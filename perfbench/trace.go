package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
)

// The traced run wraps the program's public seams — replica endpoints,
// the application factory and the benchmark's own Invoke calls — and
// records counts and spans in memory. Nothing inside the program is
// instrumented by the benchmark.

// numTypes bounds message.Type values (they are small and dense).
const numTypes = 32

// endpointCounts are one replica endpoint's outbound totals. Each
// endpoint has its own, so replicas do not contend on shared counters.
type endpointCounts struct {
	msgs   [numTypes]atomic.Uint64 // per destination, by message type
	bytes  atomic.Uint64           // transport.EstimateSize per destination
	sendNs atomic.Uint64           // time spent inside Send and Multicast
}

func (c *endpointCounts) sent(m message.Message, dests int, d time.Duration) {
	c.msgs[int(m.MsgType())%numTypes].Add(uint64(dests))
	c.bytes.Add(uint64(dests * transport.EstimateSize(m)))
	c.sendNs.Add(uint64(d))
}

// tracedEndpoint counts and times what a replica sends, and reports
// every reply to the span book before handing it on. It does not
// implement transport.Multicaster; tracedMulticaster does, and
// wrapEndpoint picks the one that matches the wrapped endpoint, so
// transport.Multicast takes the same path with and without tracing.
type tracedEndpoint struct {
	transport.Endpoint
	c       *endpointCounts
	book    *spanBook
	replica int
}

func (e *tracedEndpoint) Send(to uint32, m message.Message) error {
	if rep, ok := m.(*message.Reply); ok {
		e.book.replied(e.replica, rep.Client, rep.Seq)
	}
	start := time.Now()
	err := e.Endpoint.Send(to, m)
	e.c.sent(m, 1, time.Since(start))
	return err
}

type tracedMulticaster struct {
	tracedEndpoint
	mc transport.Multicaster
}

func (e *tracedMulticaster) Multicast(dests []uint32, m message.Message) {
	start := time.Now()
	e.mc.Multicast(dests, m)
	e.c.sent(m, len(dests), time.Since(start))
}

func wrapEndpoint(ep transport.Endpoint, c *endpointCounts, book *spanBook, replica int) transport.Endpoint {
	te := tracedEndpoint{Endpoint: ep, c: c, book: book, replica: replica}
	if mc, ok := ep.(transport.Multicaster); ok {
		return &tracedMulticaster{tracedEndpoint: te, mc: mc}
	}
	return &te
}

// appCounts are one replica application's totals.
type appCounts struct {
	execs, execNs            atomic.Uint64
	snaps, snapNs, snapBytes atomic.Uint64 // snapshot encodes
	clones, cloneNs          atomic.Uint64 // SnapshotView calls on the exec loop
}

func (c *appCounts) snapshot(start time.Time, b []byte) {
	c.snaps.Add(1)
	c.snapNs.Add(uint64(time.Since(start)))
	c.snapBytes.Add(uint64(len(b)))
}

// tracedApp times Execute and Snapshot and tells the span book when it
// executed each session's request. Like the endpoint, it has a
// SnapshotViewer twin chosen by wrapApp, so Executor.CheckpointView
// keeps deferring snapshots off the exec loop.
type tracedApp struct {
	statemachine.Application
	c       *appCounts
	book    *spanBook
	replica int
}

func (a *tracedApp) Execute(client uint32, payload []byte, readOnly bool) []byte {
	start := time.Now()
	res := a.Application.Execute(client, payload, readOnly)
	end := time.Now()
	a.c.execs.Add(1)
	a.c.execNs.Add(uint64(end.Sub(start)))
	a.book.executed(a.replica, client, start, end)
	return res
}

func (a *tracedApp) Snapshot() []byte {
	start := time.Now()
	b := a.Application.Snapshot()
	a.c.snapshot(start, b)
	return b
}

type tracedViewer struct {
	tracedApp
	sv statemachine.SnapshotViewer
}

func (a *tracedViewer) SnapshotView() func() []byte {
	start := time.Now()
	view := a.sv.SnapshotView()
	a.c.clones.Add(1)
	a.c.cloneNs.Add(uint64(time.Since(start)))
	return func() []byte {
		start := time.Now()
		b := view()
		a.c.snapshot(start, b)
		return b
	}
}

func wrapApp(app statemachine.Application, c *appCounts, book *spanBook, replica int) statemachine.Application {
	ta := tracedApp{Application: app, c: c, book: book, replica: replica}
	if sv, ok := app.(statemachine.SnapshotViewer); ok {
		return &tracedViewer{tracedApp: ta, sv: sv}
	}
	return &ta
}

// spanRing is how many of a session's requests the span book tracks at
// once. A reply that trails its session by more than this many requests
// no longer contributes to that session's spans.
const spanRing = 16

// spanSlot gathers the replica side of one request: the earliest start
// of a replica's Execute, which replicas have replied, and the Execute
// end of the (f+1)-th to reply — the reply that can complete the
// client's quorum.
type spanSlot struct {
	op         atomic.Uint64
	firstStart atomic.Int64
	replied    atomic.Uint64 // bit per replica
	quorumEnd  atomic.Int64
}

// span is one finished request: Invoke start, first replica Execute
// start, (f+1)-th Execute end, Invoke return (Unix nanoseconds).
type span struct {
	op                         uint64
	read                       bool
	start, first, quorum, done int64
}

// sessionSpans is a session's slot ring plus its finished spans, which
// only the session's goroutine appends to.
type sessionSpans struct {
	slots [spanRing]spanSlot
	done  []span
}

func (s *sessionSpans) begin(op uint64) {
	sl := &s.slots[op%spanRing]
	sl.firstStart.Store(0)
	sl.replied.Store(0)
	sl.quorumEnd.Store(0)
	sl.op.Store(op)
}

func (s *sessionSpans) end(op uint64, read bool, start, done time.Time) {
	sl := &s.slots[op%spanRing]
	first, quorum := sl.firstStart.Load(), sl.quorumEnd.Load()
	if sl.op.Load() != op || first == 0 || quorum == 0 {
		return
	}
	s.done = append(s.done, span{op: op, read: read,
		start: start.UnixNano(), first: first, quorum: quorum, done: done.UnixNano()})
}

// execTime is when a replica last executed a session's request.
type execTime struct{ start, end atomic.Int64 }

// spanBook matches replica-side events to the sessions' requests. A
// replica does not execute every request itself — after a state
// transfer it skips to a checkpoint — so executions cannot be counted
// per client. Replies carry the client's sequence number, which is the
// session's request index plus one: when a replica replies, the book
// credits that request with the replica's latest Execute for the
// client. Everything is allocated before load starts.
type spanBook struct {
	quorum   int
	sessions []*sessionSpans // indexed by client ID - crypto.ClientIDBase
	execs    [][]execTime    // [replica][client ID - crypto.ClientIDBase]
}

func (b *spanBook) index(client uint32) (int, bool) {
	i := int(client) - crypto.ClientIDBase
	return i, i >= 0 && i < len(b.sessions) && b.sessions[i] != nil
}

func (b *spanBook) executed(replica int, client uint32, start, end time.Time) {
	if i, ok := b.index(client); ok {
		et := &b.execs[replica][i]
		et.start.Store(start.UnixNano())
		et.end.Store(end.UnixNano())
	}
}

func (b *spanBook) replied(replica int, client uint32, seq uint64) {
	i, ok := b.index(client)
	if !ok || seq == 0 {
		return
	}
	op := seq - 1
	sl := &b.sessions[i].slots[op%spanRing]
	et := &b.execs[replica][i]
	start, end := et.start.Load(), et.end.Load()
	if sl.op.Load() != op || start == 0 {
		return
	}
	bit := uint64(1) << uint(replica)
	var replied uint64
	for {
		old := sl.replied.Load()
		if old&bit != 0 {
			return // a repeated reply, e.g. from the reply cache
		}
		if replied = old | bit; sl.replied.CompareAndSwap(old, replied) {
			break
		}
	}
	for {
		cur := sl.firstStart.Load()
		if (cur != 0 && cur <= start) || sl.firstStart.CompareAndSwap(cur, start) {
			break
		}
	}
	if bits.OnesCount64(replied) == b.quorum {
		sl.quorumEnd.CompareAndSwap(0, end)
	}
}

// tracer owns every wrapper's counters for one cluster.
type tracer struct {
	eps  []*endpointCounts
	apps []*appCounts
	book spanBook
}

func (t *tracer) endpoint(id uint32, ep transport.Endpoint) transport.Endpoint {
	c := &endpointCounts{}
	t.eps = append(t.eps, c)
	return wrapEndpoint(ep, c, &t.book, int(id))
}

// app wraps the application of the next replica: the cluster builds
// replicas in ID order, one application each.
func (t *tracer) app(a statemachine.Application) statemachine.Application {
	c := &appCounts{}
	t.apps = append(t.apps, c)
	return wrapApp(a, c, &t.book, len(t.apps)-1)
}

// attach registers the sessions with the span book; quorum is the
// number of matching replies a client waits for.
func (t *tracer) attach(sessions []*session, quorum int) {
	b := &t.book
	b.quorum = quorum
	for _, s := range sessions {
		s.spans = &sessionSpans{}
		i := int(s.cl.ID()) - crypto.ClientIDBase
		for len(b.sessions) <= i {
			b.sessions = append(b.sessions, nil)
		}
		b.sessions[i] = s.spans
	}
	b.execs = make([][]execTime, len(t.apps))
	for r := range b.execs {
		b.execs[r] = make([]execTime, len(b.sessions))
	}
}

// traceCounts is a point-in-time sum of every wrapper's counters.
type traceCounts struct {
	msgs                                      [numTypes]uint64
	bytes, sendNs                             uint64
	execs, execNs                             uint64
	snaps, snapNs, snapBytes, clones, cloneNs uint64
}

func (t *tracer) counts() traceCounts {
	var out traceCounts
	for _, c := range t.eps {
		for i := range c.msgs {
			out.msgs[i] += c.msgs[i].Load()
		}
		out.bytes += c.bytes.Load()
		out.sendNs += c.sendNs.Load()
	}
	for _, c := range t.apps {
		out.execs += c.execs.Load()
		out.execNs += c.execNs.Load()
		out.snaps += c.snaps.Load()
		out.snapNs += c.snapNs.Load()
		out.snapBytes += c.snapBytes.Load()
		out.clones += c.clones.Load()
		out.cloneNs += c.cloneNs.Load()
	}
	return out
}

func (a traceCounts) minus(b traceCounts) traceCounts {
	for i := range a.msgs {
		a.msgs[i] -= b.msgs[i]
	}
	a.bytes -= b.bytes
	a.sendNs -= b.sendNs
	a.execs -= b.execs
	a.execNs -= b.execNs
	a.snaps -= b.snaps
	a.snapNs -= b.snapNs
	a.snapBytes -= b.snapBytes
	a.clones -= b.clones
	a.cloneNs -= b.cloneNs
	return a
}

// writeSpans writes every measured request's spans as JSON lines: a
// header naming the spans and their parent, then one line per request
// with its four boundaries in microseconds from the window's start.
func writeSpans(path string, sessions []*session, origin time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"spans":{"invoke":"[t0,t3]","order":"[t0,t1] parent invoke","quorum":"[t1,t2] parent invoke","reply":"[t2,t3] parent invoke"},"t":"microseconds from window start"}`)
	base := origin.UnixNano()
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	for _, s := range sessions {
		if s.spans == nil {
			continue
		}
		for _, sp := range s.spans.done {
			class := "write"
			if sp.read {
				class = "read"
			}
			fmt.Fprintf(w, "{\"req\":\"%d/%d\",\"class\":%q,\"t\":[%.1f,%.1f,%.1f,%.1f]}\n",
				s.idx, sp.op, class, us(sp.start), us(sp.first), us(sp.quorum), us(sp.done))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
