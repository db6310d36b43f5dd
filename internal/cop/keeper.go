package cop

import (
	"time"

	"hybster/internal/checkpoint"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// Stable is the keeper's record of the last stable checkpoint.
// Snapshot and ReplyVector are nil when local execution never reached
// it (the state must then be fetched before serving transfers).
type Stable[M any] struct {
	Order  timeline.Order
	Digest crypto.Digest
	// Proof is the checkpoint's quorum certificate.
	Proof       []M
	Snapshot    []byte
	ReplyVector []byte
}

// candidate is the materialized state of a checkpoint boundary: the
// digest to announce plus the state needed to serve transfers once the
// checkpoint stabilizes.
type candidate struct {
	digest   crypto.Digest
	snapshot []byte
	rv       []byte
}

// KeeperHooks are the protocol's plug points into the keeper.
type KeeperHooks[M any] struct {
	// Accept vets a StateReply whose state hashes to digest, given the
	// keeper's current record, and returns the proof to record for the
	// installed checkpoint.
	Accept func(rep *message.StateReply, digest crypto.Digest, last *Stable[M]) (proof []M, ok bool)
	// WireProof converts a recorded proof into the one a StateReply
	// carries.
	WireProof func(proof []M) []*message.Checkpoint
	// OnStable, when set, runs whenever a newer stable checkpoint is
	// recorded through quorum stability or state transfer.
	OnStable func(st *Stable[M])
}

// Keeper is the checkpoint half of a COP coordinator, generic over the
// checkpoint announcement type: it materializes candidates at interval
// boundaries and dispatches their checkpoint instances to the owning
// pillars (§5.3.2), records the last stable checkpoint and slides the
// pillar windows to it, and runs state transfer — requesting, serving
// and installing snapshots. It is confined to the coordinator loop.
type Keeper[M any] struct {
	sh      *Shell
	exec    *Exec
	pillars []*Mailbox[any]
	hooks   KeeperHooks[M]

	last         Stable[M]
	candidates   map[timeline.Order]candidate
	lastStateReq time.Time
}

// NewKeeper creates the keeper of the engine behind sh.
func NewKeeper[M any](sh *Shell, exec *Exec, pillars []*Mailbox[any], hooks KeeperHooks[M]) *Keeper[M] {
	return &Keeper[M]{sh: sh, exec: exec, pillars: pillars, hooks: hooks, candidates: make(map[timeline.Order]candidate)}
}

// Last returns the record of the last stable checkpoint (read-only).
func (k *Keeper[M]) Last() *Stable[M] { return &k.last }

// Adopt records st as the last stable checkpoint without announcing it
// to the pillars: recovery and view installation slide the windows
// themselves.
func (k *Keeper[M]) Adopt(st Stable[M]) {
	k.last = st
	k.sh.stable.Store(uint64(st.Order))
}

// Handle consumes the coordinator events the keeper owns — checkpoint
// boundaries, stable checkpoints, Behind, and the state-transfer
// messages — and reports whether ev was one of them.
func (k *Keeper[M]) Handle(ev any) bool {
	switch v := ev.(type) {
	case *statemachine.CheckpointView:
		k.handleView(v)
	case *checkpoint.Stable[M]:
		k.handleStable(v)
	case Behind:
		k.MaybeRequestState()
	case InMsg:
		switch m := v.Msg.(type) {
		case *message.StateRequest:
			k.handleStateRequest(v.From, m)
		case *message.StateReply:
			k.handleStateReply(m)
		default:
			return false
		}
	default:
		return false
	}
	return true
}

// Tick keeps requesting state while a stable checkpoint lies beyond
// what local execution can reach (the decisions below it are gone from
// the group's logs). The one-shot request issued at adoption can be
// lost, and no further event would re-trigger it; MaybeRequestState
// rate-limits the actual traffic. Without this a lagging replica
// wedges forever, and if the laggards hold the quorum margin, the
// whole cluster stops committing.
func (k *Keeper[M]) Tick() {
	if k.last.Order > k.exec.LastExecuted() {
		k.MaybeRequestState()
	}
}

// handleView materializes a checkpoint boundary posted by the
// execution stage: the application snapshot is encoded and hashed here
// — on the coordinator loop — so the exec loop never stalls behind a
// state copy. Boundaries already covered by a stable checkpoint are
// dropped before paying for the encode. The checkpoint protocol
// instance then runs on the boundary's round-robin owner pillar.
func (k *Keeper[M]) handleView(v *statemachine.CheckpointView) {
	if v.Order <= k.last.Order {
		return
	}
	cand := candidate{digest: v.StateDigest(), snapshot: v.Snapshot(), rv: v.ReplyVector()}
	k.candidates[v.Order] = cand
	// Keep only the two newest candidates; older ones can no longer
	// become the latest stable checkpoint first.
	for o := range k.candidates {
		if o+2*k.sh.cfg.CheckpointInterval <= v.Order {
			delete(k.candidates, o)
		}
	}
	owner := k.sh.cfg.CheckpointPillar(v.Order) % uint32(len(k.pillars))
	k.pillars[owner].Put(CkptDue{Order: v.Order, Digest: cand.digest})
}

// handleStable records a checkpoint quorum reported by its owning
// pillar and triggers state transfer if execution is behind the group.
func (k *Keeper[M]) handleStable(s *checkpoint.Stable[M]) {
	if s.Order <= k.last.Order {
		return
	}
	st := Stable[M]{Order: s.Order, Digest: s.Digest, Proof: s.Proof}
	if cand, ok := k.candidates[s.Order]; ok && cand.digest == s.Digest {
		st.Snapshot, st.ReplyVector = cand.snapshot, cand.rv
	}
	k.sh.Met.CkptsStable.Inc()
	k.sh.TraceD(telemetry.EvCkptStable, uint64(k.sh.View()), uint64(s.Order), 0, s.Digest[:], "")
	k.advance(st)
	if st.Snapshot == nil && s.Order > k.exec.LastExecuted() {
		k.MaybeRequestState()
	}
}

// advance records a newer stable checkpoint and slides every pillar's
// window to it.
func (k *Keeper[M]) advance(st Stable[M]) {
	k.Adopt(st)
	if k.hooks.OnStable != nil {
		k.hooks.OnStable(&k.last)
	}
	for o := range k.candidates {
		if o <= st.Order {
			delete(k.candidates, o)
		}
	}
	for _, p := range k.pillars {
		p.Put(Advance{Order: st.Order})
	}
}

// MaybeRequestState asks the group for the newest stable state,
// rate-limited to one round per second.
func (k *Keeper[M]) MaybeRequestState() {
	now := k.sh.now()
	if now.Sub(k.lastStateReq) < time.Second {
		return
	}
	k.lastStateReq = now
	req := &message.StateRequest{Replica: k.sh.id, From: k.exec.NextNeeded()}
	transport.Multicast(k.sh.ep, k.sh.cfg.N, req)
}

func (k *Keeper[M]) handleStateRequest(from uint32, req *message.StateRequest) {
	if k.last.Snapshot == nil || k.last.Order < req.From {
		return
	}
	_ = k.sh.ep.Send(from, &message.StateReply{
		Replica:     k.sh.id,
		CkptOrder:   k.last.Order,
		Snapshot:    k.last.Snapshot,
		ReplyVector: k.last.ReplyVector,
		Proof:       k.hooks.WireProof(k.last.Proof),
	})
}

// handleStateReply installs a transferred snapshot the protocol
// accepts. A transfer newer than the record becomes the stable
// checkpoint; one at the recorded checkpoint fills in its missing
// snapshot so this replica can serve transfers too.
func (k *Keeper[M]) handleStateReply(rep *message.StateReply) {
	if rep.CkptOrder <= k.exec.LastExecuted() {
		return
	}
	digest := statemachine.StateDigest(rep.Snapshot, rep.ReplyVector)
	proof, ok := k.hooks.Accept(rep, digest, &k.last)
	if !ok {
		return
	}
	if k.exec.Install(rep.CkptOrder, rep.Snapshot, rep.ReplyVector, k.sh.Stopped()) != nil {
		return
	}
	switch {
	case rep.CkptOrder > k.last.Order:
		k.advance(Stable[M]{
			Order: rep.CkptOrder, Digest: digest, Proof: proof,
			Snapshot: rep.Snapshot, ReplyVector: rep.ReplyVector,
		})
	case rep.CkptOrder == k.last.Order && digest == k.last.Digest && k.last.Snapshot == nil:
		k.last.Snapshot, k.last.ReplyVector = rep.Snapshot, rep.ReplyVector
	}
	k.sh.Met.StateXfers.Inc()
	k.sh.Trace(telemetry.EvStateXfer, uint64(k.sh.View()), uint64(rep.CkptOrder), 0, "")
	k.sh.NoteProgress(false)
}
