package minbft

import (
	"errors"
	"sync/atomic"

	"hybster/internal/cop"
	"hybster/internal/telemetry"
)

// gaugeMirror publishes run-loop-owned protocol fields for lock-free
// sampling by gauge callbacks. Registry.Snapshot runs on whatever
// goroutine scrapes it (the ops server, the audit monitor's poller),
// so the callbacks cannot touch loop-confined state directly; the run
// loop stores fresh values here after every event, and readers see a
// snapshot at most one event stale.
type gaugeMirror struct {
	view atomic.Uint64
	// pendingTo is the target view while a view change is pending;
	// 0 means no view change in flight.
	pendingTo atomic.Uint64
	nextOrder atomic.Uint64
	low       atomic.Uint64
}

// loopMetrics holds the protocol loop's metric handles, resolved once
// in New (the execution stage registers its own). All handles are
// nil-safe; the zero value means telemetry is off. MinBFT has no
// pillars (the protocol is sequential), so nothing carries a pillar
// label.
type loopMetrics struct {
	tel *telemetry.Telemetry

	prepares    *telemetry.Counter
	commits     *telemetry.Counter
	committed   *telemetry.Counter
	ckptsOwn    *telemetry.Counter
	ckptsStable *telemetry.Counter
	suspectsC   *telemetry.Counter
	retransmits *telemetry.Counter
	zombiesC    *telemetry.Counter
	stateXfers  *telemetry.Counter
}

func newLoopMetrics(tel *telemetry.Telemetry) loopMetrics {
	if tel == nil {
		return loopMetrics{}
	}
	return loopMetrics{
		tel:         tel,
		prepares:    tel.Counter("hybster_minbft_prepares_total", "own proposals multicast (leader PREPARE sent)"),
		commits:     tel.Counter("hybster_minbft_commits_sent_total", "leader proposals acknowledged (COMMIT sent)"),
		committed:   tel.Counter("hybster_minbft_committed_total", "instances committed and handed to execution"),
		ckptsOwn:    tel.Counter("hybster_minbft_checkpoints_total", "own checkpoint announcements"),
		ckptsStable: tel.Counter("hybster_minbft_checkpoints_stable_total", "checkpoints that reached quorum stability"),
		suspectsC:   tel.Counter("hybster_minbft_suspects_total", "leader-timeout suspicion events"),
		retransmits: tel.Counter("hybster_minbft_retransmits_total", "messages re-multicast from the resend ring"),
		zombiesC:    tel.Counter("hybster_minbft_zombies_total", "replicas convicted of counter regression"),
		stateXfers:  tel.Counter("hybster_minbft_state_xfers_total", "checkpoint state transfers adopted"),
	}
}

// registerGauges installs the sampled gauges over live engine state;
// re-registration on restart swaps the callbacks.
func (e *Engine) registerGauges(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	tel.GaugeFunc("hybster_minbft_last_executed", "highest executed order number",
		func() float64 { return float64(e.exec.LastExecuted()) })
	tel.GaugeFunc("hybster_minbft_inbox_depth", "queued protocol events",
		func() float64 { return float64(e.inbox.Len()) })
	// Protocol-loop state snapshots, read from the atomic mirror the
	// loop refreshes after every event — sampled values may be one
	// event stale, which is good enough for the post-mortem question
	// they answer ("where was this replica wedged?").
	tel.GaugeFunc("hybster_minbft_view", "current view number",
		func() float64 { return float64(e.gm.view.Load()) })
	tel.GaugeFunc("hybster_minbft_pending_view", "target view while a view change is pending (0 = none)",
		func() float64 { return float64(e.gm.pendingTo.Load()) })
	tel.GaugeFunc("hybster_minbft_next_order", "next order number to assign",
		func() float64 { return float64(e.gm.nextOrder.Load()) })
	tel.GaugeFunc("hybster_minbft_low_watermark", "last stable checkpoint order",
		func() float64 { return float64(e.gm.low.Load()) })
	tel.GaugeFunc("hybster_minbft_queue_len", "client requests queued for proposal",
		func() float64 { e.mu.Lock(); defer e.mu.Unlock(); return float64(len(e.queue)) })
	tel.GaugeFunc("hybster_minbft_history_len", "sent-message history length (§4.4's unbounded state)",
		func() float64 { return float64(e.HistoryLen()) })
	tel.GaugeFunc("hybster_minbft_deaf_streams", "sender streams with an undrainable expected-counter gap",
		func() float64 { return float64(e.deafStreams.Load()) })
	tel.GaugeFunc("hybster_minbft_holdback_horizon", "counter gap beyond which a stream cannot drain (4x window)",
		func() float64 { return float64(4 * e.cfg.WindowSize) })
	cop.RegisterMarshalGauges(tel)
}

// publishGauges refreshes the atomic gauge mirror from the run-loop
// state. Called by the run loop after every event (and once at
// assembly, so gauges are sane before the loop starts).
func (e *Engine) publishGauges() {
	e.gm.view.Store(uint64(e.view))
	if e.pending {
		e.gm.pendingTo.Store(uint64(e.pendingTo))
	} else {
		e.gm.pendingTo.Store(0)
	}
	e.gm.nextOrder.Store(uint64(e.nextOrder))
	e.gm.low.Store(uint64(e.low))
}

// trace records one protocol event on the engine's tracer (nil-safe).
// MinBFT has a single processing unit, so the pillar field is 0.
func (e *Engine) trace(kind telemetry.EventKind, view, slot uint64, note string) {
	e.met.tel.Trace(kind, view, slot, 0, note)
}

// traceD records one protocol event carrying the digest the event is
// about — the cross-replica correlation key the auditor compares
// (nil-safe).
func (e *Engine) traceD(kind telemetry.EventKind, view, slot uint64, digest []byte, note string) {
	e.met.tel.TraceDigest(kind, view, slot, 0, digest, note)
}

// Telemetry returns the engine's telemetry bundle (nil when disabled).
func (e *Engine) Telemetry() *telemetry.Telemetry { return e.met.tel }

// Healthz reports process liveness for the ops server.
func (e *Engine) Healthz() error {
	select {
	case <-e.stopTick:
		return errors.New("minbft: engine stopped")
	default:
		return nil
	}
}
