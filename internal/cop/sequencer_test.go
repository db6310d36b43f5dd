package cop

import (
	"sync"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// recordingEndpoint is a transport.Endpoint that records every Send.
type recordingEndpoint struct {
	mu   sync.Mutex
	sent []sentMsg
}

type sentMsg struct {
	to uint32
	m  message.Message
}

func (r *recordingEndpoint) ID() uint32               { return 0 }
func (r *recordingEndpoint) Handle(transport.Handler) {}
func (r *recordingEndpoint) Close() error             { return nil }

func (r *recordingEndpoint) Send(to uint32, m message.Message) error {
	r.mu.Lock()
	r.sent = append(r.sent, sentMsg{to: to, m: m})
	r.mu.Unlock()
	return nil
}

func (r *recordingEndpoint) requestsTo(to uint32) []*message.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*message.Request
	for _, s := range r.sent {
		if req, ok := s.m.(*message.Request); ok && s.to == to {
			out = append(out, req)
		}
	}
	return out
}

// proposal is one batch the sequencer handed to a pillar.
type proposal struct {
	pillar uint32
	view   timeline.View
	order  timeline.Order
	batch  []*message.Request
}

// seqHarness is a sequencer of replica id whose proposals land on a
// channel instead of a pillar.
type seqHarness struct {
	sh    *Shell
	seq   *Sequencer
	ep    *recordingEndpoint
	props chan proposal
}

func newSeqHarness(t *testing.T, cfg config.Config, id uint32) *seqHarness {
	t.Helper()
	// The buffer holds every proposal a test makes, so the sequencer
	// never blocks on a test that has not drained yet.
	h := &seqHarness{ep: &recordingEndpoint{}, props: make(chan proposal, 256)}
	h.sh = NewShell(cfg, id, h.ep, time.Now, telemetry.New(cfg.Protocol.String()), "core")
	h.seq = NewSequencer(h.sh, func(u uint32, v timeline.View, o timeline.Order, batch []*message.Request) {
		h.props <- proposal{pillar: u, view: v, order: o, batch: batch}
	})
	t.Cleanup(func() { h.seq.holdTimer.Stop() })
	return h
}

// admit queues n fresh requests.
func (h *seqHarness) admit(n int) []*message.Request {
	reqs := make([]*message.Request, n)
	for i := range reqs {
		reqs[i] = &message.Request{Client: crypto.ClientIDBase, Seq: uint64(i + 1), Payload: []byte{1}}
		h.seq.AdmitVerified(reqs[i])
	}
	return reqs
}

// drained returns the proposals made so far without waiting.
func (h *seqHarness) drained() []proposal {
	var out []proposal
	for {
		select {
		case p := <-h.props:
			out = append(out, p)
		default:
			return out
		}
	}
}

// onePillar is a fixed-leader configuration whose orders all map to
// pillar 0, so in-flight credit is easy to reason about.
func onePillar(batch int) config.Config {
	cfg := config.Default(config.HybsterS)
	cfg.BatchSize = batch
	return cfg
}

func TestSequencerSlotAssignment(t *testing.T) {
	cfg := config.Default(config.HybsterX)
	cfg.Pillars = 2
	cfg.RotateLeader = true
	s := newSeqHarness(t, cfg, 1).seq
	// Replica 1 with rotation in view 0 proposes orders ≡ 1 (mod 3).
	o := s.nextSlot(0, 0)
	if cfg.ProposerOf(0, o) != 1 {
		t.Fatalf("first slot %d not owned by replica 1", o)
	}
	n := s.nextSlot(0, o)
	if n <= o || cfg.ProposerOf(0, n) != 1 {
		t.Fatalf("nextSlot %d invalid", n)
	}
	if n-o != 3 {
		t.Fatalf("slot stride = %d, want n=3", n-o)
	}
}

// TestSequencerHeldBatchFlushesWithoutCredit pins the liveness escape
// of the partial-batch hold: a batch held behind a busy pillar must be
// dispatched by the hold timer even if the in-flight instance never
// returns its credit (a stalled instance under faults once wedged the
// sequencer outright this way).
func TestSequencerHeldBatchFlushesWithoutCredit(t *testing.T) {
	h := newSeqHarness(t, onePillar(16), 0)
	h.seq.hold = 100 * time.Millisecond

	// An idle pillar and no cycling population: dispatch at once.
	h.admit(1)
	if got := h.drained(); len(got) != 1 || got[0].order != 1 {
		t.Fatalf("lone request not dispatched at once: %+v", got)
	}
	admitted := time.Now()
	h.admit(1)
	if got := h.drained(); len(got) != 0 {
		t.Fatalf("partial batch behind a busy pillar dispatched without a hold: %+v", got)
	}
	select {
	case p := <-h.props:
		waited := time.Since(admitted)
		if len(p.batch) != 1 || p.order != 2 {
			t.Fatalf("flushed proposal = order %d with %d requests, want order 2 with 1", p.order, len(p.batch))
		}
		if waited < h.seq.hold {
			t.Fatalf("flushed after %v, before the %v hold expired", waited, h.seq.hold)
		}
		if waited > h.seq.hold+2*time.Second {
			t.Fatalf("flushed only after %v, hold is %v", waited, h.seq.hold)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held partial batch never dispatched without a credit")
	}
	if got := h.seq.inFlight[0].Load(); got != 2 {
		t.Fatalf("in-flight = %d, want 2 (no credit ever returned)", got)
	}
}

// TestSequencerCreditAfterResetClampsAtZero checks that credits for
// proposals dropped by a view reset cannot drive the accounting
// negative, which would let a pillar exceed its in-flight bound.
func TestSequencerCreditAfterResetClampsAtZero(t *testing.T) {
	h := newSeqHarness(t, onePillar(1), 0)
	h.admit(1)
	if got := h.drained(); len(got) != 1 {
		t.Fatalf("%d proposals, want 1", len(got))
	}
	h.seq.ResetForView(0, 1)
	// The dropped proposal's credit arrives late, twice over.
	h.seq.Credit(0, 1)
	h.seq.Credit(0, 1)
	if c, r := h.seq.inFlight[0].Load(), h.seq.outReqs.Load(); c != 0 || r != 0 {
		t.Fatalf("after stray credits: inFlight=%d outReqs=%d, want 0/0", c, r)
	}
	h.admit(maxInFlightPerPillar + 1)
	got := h.drained()
	if len(got) != maxInFlightPerPillar {
		t.Fatalf("%d proposals in flight, want the bound %d", len(got), maxInFlightPerPillar)
	}
	if got[0].order != 2 {
		t.Fatalf("first proposal after reset at order %d, want 2", got[0].order)
	}
}

// TestSequencerNoopSkipsSlotCursor checks that a gap-filling no-op
// moves the slot cursor past its order, so regular proposals never
// reuse it.
func TestSequencerNoopSkipsSlotCursor(t *testing.T) {
	cfg := onePillar(16)
	cfg.RotateLeader = true
	h := newSeqHarness(t, cfg, 1) // owns orders ≡ 1 (mod 3) in view 0

	h.seq.ProposeNoop(0, 4)
	got := h.drained()
	if len(got) != 1 || got[0].order != 4 || got[0].batch != nil {
		t.Fatalf("no-op proposal = %+v, want an empty batch at order 4", got)
	}
	h.seq.ProposeNoop(0, 4) // already behind the cursor
	h.seq.ProposeNoop(0, 5) // not ours
	if got := h.drained(); len(got) != 0 {
		t.Fatalf("unexpected no-ops: %+v", got)
	}
	if n := h.sh.Met.Noops.Value(); n != 1 {
		t.Fatalf("noop counter = %d, want 1", n)
	}
	h.admit(1)
	if got := h.drained(); len(got) != 1 || got[0].order != 7 {
		t.Fatalf("request after the no-op proposed as %+v, want order 7", got)
	}
}

// TestSequencerDemotedProposerRelaysQueue checks that requests queued
// at a leader that loses its leadership are relayed to the new leader
// instead of being stranded.
func TestSequencerDemotedProposerRelaysQueue(t *testing.T) {
	h := newSeqHarness(t, onePillar(1), 0)
	h.admit(maxInFlightPerPillar)
	if got := h.drained(); len(got) != maxInFlightPerPillar {
		t.Fatalf("%d proposals, want %d", len(got), maxInFlightPerPillar)
	}
	queued := h.admit(5) // no credit left: these stay queued
	if got := h.drained(); len(got) != 0 {
		t.Fatalf("queued requests proposed past the in-flight bound: %+v", got)
	}

	h.sh.SetView(1) // replica 1 leads view 1
	h.seq.ResetForView(1, 64)
	relayed := h.ep.requestsTo(1)
	if len(relayed) != len(queued) {
		t.Fatalf("relayed %d requests to the new leader, want %d", len(relayed), len(queued))
	}
	for i, r := range relayed {
		if r != queued[i] {
			t.Fatalf("relay %d out of order", i)
		}
	}
	if got := h.drained(); len(got) != 0 {
		t.Fatalf("demoted replica still proposed: %+v", got)
	}
	h.admit(1)
	if n := len(h.ep.requestsTo(1)); n != len(queued)+1 {
		t.Fatalf("new request not relayed directly (%d relayed)", n)
	}
}
