package cop

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hybster/internal/config"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// Metrics holds the engine-level metric handles of a COP engine,
// resolved once under the engine's metric prefix. Everything is
// nil-safe (telemetry off), so protocol code records unconditionally.
type Metrics struct {
	Tel *telemetry.Telemetry

	ViewChanges *telemetry.Counter
	CkptsOwn    *telemetry.Counter
	CkptsStable *telemetry.Counter
	StateXfers  *telemetry.Counter
	Noops       *telemetry.Counter
}

func newMetrics(tel *telemetry.Telemetry, prefix string) Metrics {
	return Metrics{
		Tel:         tel,
		ViewChanges: tel.Counter(prefix+"view_changes_total", "view changes this replica initiated or joined"),
		CkptsOwn:    tel.Counter(prefix+"checkpoints_total", "own checkpoint announcements"),
		CkptsStable: tel.Counter(prefix+"checkpoints_stable_total", "checkpoints that reached quorum stability"),
		StateXfers:  tel.Counter(prefix+"state_transfers_total", "state snapshots installed via transfer"),
		Noops:       tel.Counter(prefix+"noop_proposals_total", "no-op proposals filling execution gaps"),
	}
}

// Shell is the protocol-independent part of a COP engine: its
// identity, metric set, tracing, the lock-free mirrors of the
// coordinator's view and stable checkpoint, the progress watchdog, and
// the health probes.
type Shell struct {
	cfg  config.Config
	id   uint32
	ep   transport.Endpoint
	now  func() time.Time
	name string // engine name: the metric and error prefix
	Met  Metrics

	// view mirrors the coordinator's stable view for lock-free reads
	// on hot paths.
	view atomic.Uint64
	// stable mirrors the coordinator's last stable checkpoint order for
	// gauge sampling (the auditor's checkpoint-lag check reads it
	// against last_executed).
	stable atomic.Uint64
	// pendingSince is the unix nanos of the oldest unserved work; 0
	// means none. It drives the view-change watchdog and Readyz.
	pendingSince atomic.Int64

	stopped chan struct{}
}

// NewShell creates the shell of engine name ("core", "pbft"), whose
// metrics are exported as hybster_<name>_*.
func NewShell(cfg config.Config, id uint32, ep transport.Endpoint, now func() time.Time, tel *telemetry.Telemetry, name string) *Shell {
	return &Shell{
		cfg: cfg, id: id, ep: ep, now: now, name: name,
		Met:     newMetrics(tel, "hybster_"+name+"_"),
		stopped: make(chan struct{}),
	}
}

// View returns the current stable view.
func (s *Shell) View() timeline.View { return timeline.View(s.view.Load()) }

// SetView publishes a newly installed view.
func (s *Shell) SetView(v timeline.View) { s.view.Store(uint64(v)) }

// Stopped is closed once the engine stops.
func (s *Shell) Stopped() <-chan struct{} { return s.stopped }

// Stop marks the engine stopped; call it once.
func (s *Shell) Stop() { close(s.stopped) }

// NoteWork records the arrival of work for the watchdog.
func (s *Shell) NoteWork() {
	if s.pendingSince.Load() == 0 {
		s.pendingSince.CompareAndSwap(0, s.now().UnixNano())
	}
}

// NoteProgress records execution progress: if work is still pending the
// marker restarts, otherwise it clears.
func (s *Shell) NoteProgress(stillPending bool) {
	if stillPending {
		s.pendingSince.Store(s.now().UnixNano())
	} else {
		s.pendingSince.Store(0)
	}
}

// Stalled returns how long work has been pending without execution
// progress (0 when nothing is pending).
func (s *Shell) Stalled() time.Duration {
	ps := s.pendingSince.Load()
	if ps == 0 {
		return 0
	}
	return s.now().Sub(time.Unix(0, ps))
}

// Trace records one protocol event on the engine's tracer (nil-safe).
func (s *Shell) Trace(kind telemetry.EventKind, view, slot uint64, pillar uint32, note string) {
	s.Met.Tel.Trace(kind, view, slot, pillar, note)
}

// TraceD records one protocol event carrying the digest the event is
// about — the correlation key the cluster auditor compares across
// replicas (nil-safe).
func (s *Shell) TraceD(kind telemetry.EventKind, view, slot uint64, pillar uint32, digest []byte, note string) {
	s.Met.Tel.TraceDigest(kind, view, slot, pillar, digest, note)
}

// Telemetry returns the engine's telemetry bundle (nil when disabled);
// the ops server and cluster introspection read through it.
func (s *Shell) Telemetry() *telemetry.Telemetry { return s.Met.Tel }

// Healthz reports process liveness: nil while the engine runs, an
// error once it stopped. Backs the ops server's /healthz.
func (s *Shell) Healthz() error {
	select {
	case <-s.stopped:
		return errors.New(s.name + ": engine stopped")
	default:
		return nil
	}
}

// Readyz reports serving readiness: the engine is live AND not stuck.
// "Stuck" means work has been pending without execution progress for
// more than twice the view-change timeout — long enough that the
// watchdog should have rotated the view, so something is genuinely
// wedged. Backs the ops server's /readyz.
func (s *Shell) Readyz() error {
	if err := s.Healthz(); err != nil {
		return err
	}
	if stalled := s.Stalled(); stalled > 2*s.cfg.ViewChangeTimeout {
		return fmt.Errorf("%s: no execution progress for %v", s.name, stalled.Round(time.Millisecond))
	}
	return nil
}

// RegisterGauges installs the sampled gauges over live engine state.
// Registration replaces any callbacks left by a predecessor engine on
// the same registry (cluster restart), so the scrape never reads a
// dead engine's state.
func (s *Shell) RegisterGauges(seq *Sequencer, exec *Exec, coord *Mailbox[any], pillars []*Mailbox[any]) {
	tel, p := s.Met.Tel, "hybster_"+s.name+"_"
	if tel == nil {
		return
	}
	tel.GaugeFunc(p+"view", "current stable view",
		func() float64 { return float64(s.view.Load()) })
	tel.GaugeFunc(p+"last_executed", "highest executed order number",
		func() float64 { return float64(exec.LastExecuted()) })
	tel.GaugeFunc(p+"stable_checkpoint", "last stable checkpoint order",
		func() float64 { return float64(s.stable.Load()) })
	for u, mb := range pillars {
		mb := mb
		tel.GaugeFunc(p+"pillar_mailbox_depth", "queued pillar events",
			func() float64 { return float64(mb.Len()) },
			telemetry.L("pillar", fmt.Sprint(u)))
	}
	tel.GaugeFunc(p+"exec_mailbox_depth", "queued execution events",
		func() float64 { return float64(exec.inbox.Len()) })
	tel.GaugeFunc(p+"coord_mailbox_depth", "queued coordinator events",
		func() float64 { return float64(coord.Len()) })
	for u := range seq.inFlight {
		u := u
		tel.GaugeFunc(p+"seq_inflight", "proposals awaiting commit credit",
			func() float64 { return float64(seq.inFlight[u].Load()) },
			telemetry.L("pillar", fmt.Sprint(u)))
	}
	tel.GaugeFunc(p+"seq_outreqs", "requests dispatched but not yet credited back",
		func() float64 { return float64(seq.outReqs.Load()) })
	tel.GaugeFunc(p+"seq_queue_depth", "admitted requests awaiting a batch cut",
		func() float64 {
			seq.mu.Lock()
			n := len(seq.queue)
			seq.mu.Unlock()
			return float64(n)
		})
	RegisterMarshalGauges(tel)
}

// RegisterMarshalGauges exposes the codec's marshal-pool statistics.
// The counters are process-global (the encoder pool is shared by every
// engine in the process), so in-process multi-replica clusters see the
// same totals on each replica's registry — that is fine for the pool
// hit-rate the gauges exist to answer for.
func RegisterMarshalGauges(tel *telemetry.Telemetry) {
	tel.GaugeFunc("hybster_marshal_total", "messages marshaled (process-wide)",
		func() float64 { total, _ := message.MarshalStats(); return float64(total) })
	tel.GaugeFunc("hybster_marshal_pool_hits", "marshals served by a pooled encoder (process-wide)",
		func() float64 { _, hits := message.MarshalStats(); return float64(hits) })
}
