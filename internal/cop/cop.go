// Package cop is the consensus-oriented parallelization runtime
// (Behl et al., Middleware '15) that HybsterX and the PBFT baseline are
// built on: replicas are composed of equal processing units — pillars —
// that share no state and communicate via asynchronous in-memory
// message passing only (§5.3).
//
// The pipeline around the pillars does not depend on the protocol, so
// it lives here once:
//
//   - Mailbox, the in-memory message channel: an unbounded
//     multi-producer single-consumer queue. Unboundedness matters — the
//     internal protocols between pillars, coordinator, and execution
//     stage form cycles (e.g. pillar → executor → coordinator → pillar
//     for checkpoints), and bounded channels could deadlock under
//     bursts. Memory remains bounded because every producer is itself
//     throttled by the ordering window.
//   - Sequencer: request admission, batching and per-pillar flow
//     control for the proposals a replica makes.
//   - Exec: the execution stage that delivers committed instances in
//     order, hands replies to the reply stage and posts checkpoint
//     boundaries.
//   - Keeper: the coordinator's checkpoint half — candidates, the last
//     stable checkpoint, and state transfer.
//   - Shell: the engine's metric set, watchdog, tracing and health
//     probes.
//
// A protocol supplies the pillars, message routing, certificates, the
// view change and recovery, and plugs into the runtime through the
// Sequencer's propose callback, the Exec hooks and the Keeper hooks.
// MinBFT, which cannot be parallelized (§4.4), uses only the Exec.
package cop

import (
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
)

// Events shared by the COP engines' mailboxes.
type (
	// InMsg is an inbound protocol message tagged with its sender.
	// Verified marks messages whose client authenticators were already
	// checked by the parallel verify stage; pillars re-check
	// sequentially when it is unset.
	InMsg struct {
		From     uint32
		Msg      message.Message
		Verified bool
	}
	// CkptDue tells the owning pillar to run the checkpoint protocol
	// instance for the given digest (execution reached the interval
	// boundary).
	CkptDue struct {
		Order  timeline.Order
		Digest crypto.Digest
	}
	// Advance announces a stable checkpoint: slide the window.
	Advance struct{ Order timeline.Order }
	// Behind reports ordering traffic beyond the window — evidence
	// that this replica has fallen behind the group.
	Behind struct{}
	// Tick drives retransmission and the watchdog.
	Tick struct{}
)

// Serve runs a coordinator loop over inbox until it closes: handle
// receives every event in arrival order, plus a Tick every tick
// period.
func Serve(inbox *Mailbox[any], tick time.Duration, handle func(ev any)) {
	stopTick := make(chan struct{})
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				inbox.Put(Tick{})
			case <-stopTick:
				return
			}
		}
	}()
	defer close(stopTick)
	inbox.Drain(handle)
}
