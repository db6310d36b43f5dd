package cop

import (
	"errors"
	"sync/atomic"

	"hybster/internal/config"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
)

// execEvent is one entry of the execution mailbox: a committed
// instance or, when install is set, a verified state transfer. The
// transfer rides inline so the common case pays no interface boxing on
// the mailbox.
type execEvent struct {
	order timeline.Order
	batch []*message.Request
	// credit is the pillar whose flow-control slot this instance holds
	// (-1 for foreign proposals). The slot is returned when execution
	// dequeues the instance, not when it commits: dispatch is thereby
	// paced by the shared execution stage — the real bottleneck — so
	// fast-committing partitioned pillars accumulate full batches
	// instead of flushing on every quick commit.
	credit  int32
	install *installReq
}

// installReq carries a verified state transfer to the execution stage.
type installReq struct {
	ckpt     timeline.Order
	snapshot []byte
	rv       []byte
	done     chan error
}

// ExecConfig wires an execution stage to its engine.
type ExecConfig struct {
	Config      config.Config
	Application statemachine.Application
	Replies     *reply.Stage
	Telemetry   *telemetry.Telemetry
	// Prefix is the engine's metric prefix, e.g. "hybster_core_".
	Prefix string
	// Seq receives the flow-control credit of own instances at dequeue;
	// nil for engines without a Sequencer.
	Seq *Sequencer
	// OnCheckpoint receives a lazy view of every checkpoint boundary,
	// taken exactly at the boundary. Materializing it (snapshot encode
	// and digests) is the receiver's job, off the delivery loop.
	OnCheckpoint func(*statemachine.CheckpointView)
	// OnProgress is called once per drain that executed something (or
	// installed state) with whether instances are still buffered.
	OnProgress func(pending bool)
}

// Exec is the execution stage: it delivers committed instances to the
// application strictly in order-number sequence, answers clients, and
// posts checkpoint boundaries (§5.3.2, EXEC-REQUEST / CK-REACHED in
// Fig. 4).
type Exec struct {
	c        ExecConfig
	inbox    *Mailbox[execEvent]
	x        *statemachine.Executor
	batches  *telemetry.Counter
	requests *telemetry.Counter

	// last mirrors the executor's cursor for lock-free reads by the
	// watchdog, gauges and tests.
	last atomic.Uint64
}

// NewExec creates an execution stage; Run starts it.
func NewExec(c ExecConfig) *Exec {
	return &Exec{
		c:        c,
		inbox:    NewMailbox[execEvent](),
		x:        statemachine.NewExecutor(c.Application),
		batches:  c.Telemetry.Counter(c.Prefix+"exec_batches_total", "batches delivered to the application"),
		requests: c.Telemetry.Counter(c.Prefix+"exec_requests_total", "client requests executed"),
	}
}

// LastExecuted returns the highest executed order number.
func (x *Exec) LastExecuted() timeline.Order { return timeline.Order(x.last.Load()) }

// NextNeeded returns the order number execution is waiting for; the
// coordinator uses it for gap detection.
func (x *Exec) NextNeeded() timeline.Order { return x.LastExecuted() + 1 }

// Deliver hands a committed instance to the stage. credit names the
// pillar owed a flow-control slot, -1 for none.
func (x *Exec) Deliver(o timeline.Order, batch []*message.Request, credit int32) {
	x.inbox.Put(execEvent{order: o, batch: batch, credit: credit})
}

// Install applies a verified state transfer on the execution loop and
// waits for the outcome, giving up once stopped closes. Buffered
// instances after ckpt execute right after it.
func (x *Exec) Install(ckpt timeline.Order, snapshot, rv []byte, stopped <-chan struct{}) error {
	done := make(chan error, 1)
	x.inbox.Put(execEvent{install: &installReq{ckpt: ckpt, snapshot: snapshot, rv: rv, done: done}})
	select {
	case err := <-done:
		return err
	case <-stopped:
		return errStopped
	}
}

var errStopped = errors.New("cop: engine stopped")

// Restore installs recovered state before Run starts.
func (x *Exec) Restore(ckpt timeline.Order, snapshot, rv []byte) error {
	err := x.x.InstallState(ckpt, snapshot, rv)
	if err == nil {
		x.last.Store(uint64(ckpt))
	}
	return err
}

// Replay buffers a recovered decision before Run starts and executes
// every instance that became contiguous, without replying: the original
// execution sent the replies, and clients retransmit if theirs got
// lost. Gaps are tolerated; execution stops at the first one and the
// rest stays buffered until ordering or state transfer fills it.
func (x *Exec) Replay(o timeline.Order, batch []*message.Request) {
	if !x.x.Buffer(o, batch) {
		return
	}
	for ex := x.x.Step(); ex != nil; ex = x.x.Step() {
		x.last.Store(uint64(ex.Order))
	}
}

// Close stops the stage once its queue drains.
func (x *Exec) Close() { x.inbox.Close() }

// Run is the execution loop.
func (x *Exec) Run() {
	x.inbox.Drain(func(ev execEvent) {
		if req := ev.install; req != nil {
			err := x.x.InstallState(req.ckpt, req.snapshot, req.rv)
			if err == nil {
				x.last.Store(uint64(req.ckpt))
				x.drain(true)
			}
			req.done <- err
			return
		}
		if ev.credit >= 0 && x.c.Seq != nil {
			x.c.Seq.Credit(uint32(ev.credit), len(ev.batch))
		}
		if x.x.Buffer(ev.order, ev.batch) {
			x.drain(false)
		}
	})
}

// drain delivers every contiguous instance, stepping one at a time so
// checkpoint views are taken exactly at interval boundaries.
func (x *Exec) drain(progressed bool) {
	for ex := x.x.Step(); ex != nil; ex = x.x.Step() {
		progressed = true
		x.last.Store(uint64(ex.Order))
		x.batches.Inc()
		x.requests.Add(uint64(len(ex.Replies)))
		x.c.Telemetry.Trace(telemetry.EvExec, 0, uint64(ex.Order), 0, "")
		x.reply(ex)
		if x.c.Config.IsCheckpoint(ex.Order) {
			x.c.OnCheckpoint(x.x.CheckpointView())
		}
	}
	if progressed {
		x.c.OnProgress(x.x.Pending() > 0)
	}
}

// reply hands every client served by the delivered instance to the
// parallel reply stage; MAC computation and the sends happen there,
// off the execution loop (reply authentication is independent per
// client and needs no ordering beyond the per-client FIFO the stage
// guarantees).
func (x *Exec) reply(ex *statemachine.Executed) {
	// A single-reply instance (unbatched request) goes inline when the
	// shard is quiet: at light load the worker wakeup would dominate
	// the reply latency.
	if len(ex.Replies) == 1 {
		r := ex.Replies[0]
		x.c.Replies.SubmitInline(r.Client, r.Seq, r.Result)
		return
	}
	for _, r := range ex.Replies {
		x.c.Replies.Submit(r.Client, r.Seq, r.Result)
	}
}
