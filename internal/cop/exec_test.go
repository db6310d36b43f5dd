package cop

import (
	"sync"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
)

// batchAt builds a one-request batch unique to order o.
func batchAt(o timeline.Order) []*message.Request {
	return []*message.Request{{Client: crypto.ClientIDBase, Seq: uint64(o), Payload: []byte{1}}}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecCreditCheckpointsAndInstall pins the execution stage's
// contract: flow-control credit returns when an instance is dequeued
// (not when it executes), checkpoint views are posted exactly at
// interval boundaries, and an installed state transfer moves the
// cursor and drains instances buffered beyond it.
func TestExecCreditCheckpointsAndInstall(t *testing.T) {
	cfg := onePillar(1)
	cfg.CheckpointInterval = 4
	h := newSeqHarness(t, cfg, 0)
	replies := reply.NewStage(0, crypto.NewKeyStore(0, crypto.NewKeyFromSeed("exec-test")), h.ep, 1, nil)
	defer replies.Close()

	var mu sync.Mutex
	var ckpts []timeline.Order
	x := NewExec(ExecConfig{
		Config: cfg, Application: counter.New(), Replies: replies, Seq: h.seq,
		OnCheckpoint: func(v *statemachine.CheckpointView) {
			mu.Lock()
			ckpts = append(ckpts, v.Order)
			mu.Unlock()
		},
		OnProgress: func(bool) {},
	})
	done := make(chan struct{})
	go func() { x.Run(); close(done) }()
	defer func() { x.Close(); <-done }()

	// Own proposals for orders 1 and 2 hold one credit each. Order 2
	// arrives first and cannot execute across the gap at 1 — but
	// dequeuing it must already return its credit.
	h.admit(2)
	if got := h.drained(); len(got) != 2 {
		t.Fatalf("%d proposals, want 2", len(got))
	}
	x.Deliver(2, batchAt(2), 0)
	waitFor(t, "the credit of order 2", func() bool { return h.seq.inFlight[0].Load() == 1 })
	if x.LastExecuted() != 0 {
		t.Fatal("order 2 executed across the gap at 1")
	}
	x.Deliver(1, batchAt(1), 0)
	waitFor(t, "orders 1-2 to execute", func() bool { return x.LastExecuted() == 2 })
	if n := h.seq.inFlight[0].Load(); n != 0 {
		t.Fatalf("in-flight = %d after both dequeued, want 0", n)
	}

	for o := timeline.Order(3); o <= 9; o++ {
		x.Deliver(o, batchAt(o), -1)
	}
	waitFor(t, "orders up to 9", func() bool { return x.LastExecuted() == 9 })
	mu.Lock()
	got := append([]timeline.Order(nil), ckpts...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 4 || got[1] != 8 {
		t.Fatalf("checkpoint views at %v, want [4 8]", got)
	}

	// State transfer to order 12 with 13 and 14 already buffered.
	ref := statemachine.NewExecutor(counter.New())
	for o := timeline.Order(1); o <= 12; o++ {
		ref.Buffer(o, batchAt(o))
	}
	ref.Drain()
	x.Deliver(13, batchAt(13), -1)
	x.Deliver(14, batchAt(14), -1)
	if err := x.Install(12, ref.Snapshot(), ref.ReplyVector(), nil); err != nil {
		t.Fatal(err)
	}
	if got := x.LastExecuted(); got != 14 {
		t.Fatalf("last executed = %d after install, want 14 (13 and 14 drained)", got)
	}
	if err := x.Install(10, ref.Snapshot(), ref.ReplyVector(), nil); err == nil {
		t.Fatal("install behind the cursor accepted")
	}
}
