package cop

import "sync"

// minMailboxCap is the smallest ring allocation; the ring shrinks back
// to this size when it drains after a burst.
const minMailboxCap = 16

// Mailbox is an unbounded MPSC queue backed by a ring buffer: Put and
// Get are O(1) at any depth (the previous slice-shift implementation
// made every Get O(n) while a burst was queued). The zero value is not
// usable; create with NewMailbox.
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []T // ring storage; len(buf) is the capacity
	head   int // index of the oldest element
	count  int // number of queued elements
	closed bool
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	m := &Mailbox[T]{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// grow doubles the ring (or allocates the initial one), unwrapping the
// elements into the new storage. Caller holds m.mu.
func (m *Mailbox[T]) grow() {
	newCap := 2 * len(m.buf)
	if newCap < minMailboxCap {
		newCap = minMailboxCap
	}
	buf := make([]T, newCap)
	m.unwrapInto(buf)
	m.buf = buf
	m.head = 0
}

// unwrapInto copies the queued elements, oldest first, into dst.
// Caller holds m.mu; len(dst) >= m.count.
func (m *Mailbox[T]) unwrapInto(dst []T) {
	n := copy(dst, m.buf[m.head:min(m.head+m.count, len(m.buf))])
	if n < m.count {
		copy(dst[n:], m.buf[:m.count-n])
	}
}

// pop removes and returns the oldest element. Caller holds m.mu and
// guarantees count > 0.
func (m *Mailbox[T]) pop() T {
	var zero T
	v := m.buf[m.head]
	m.buf[m.head] = zero // release the reference for the GC
	m.head++
	if m.head == len(m.buf) {
		m.head = 0
	}
	m.count--
	m.maybeShrink()
	return v
}

// maybeShrink lets the ring return burst storage once the queue is
// near-empty again (the steady state). Caller holds m.mu.
func (m *Mailbox[T]) maybeShrink() {
	if len(m.buf) > minMailboxCap && m.count <= len(m.buf)/4 && m.count <= minMailboxCap/2 {
		buf := make([]T, minMailboxCap)
		m.unwrapInto(buf)
		m.buf = buf
		m.head = 0
	}
}

// Put enqueues v. Puts on a closed mailbox are silently discarded
// (shutdown races are benign).
func (m *Mailbox[T]) Put(v T) {
	m.mu.Lock()
	if !m.closed {
		if m.count == len(m.buf) {
			m.grow()
		}
		i := m.head + m.count
		if i >= len(m.buf) {
			i -= len(m.buf)
		}
		m.buf[i] = v
		m.count++
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// Get dequeues the next value, blocking until one is available or the
// mailbox closes. ok is false when the mailbox is closed and drained.
func (m *Mailbox[T]) Get() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.count == 0 {
		return v, false
	}
	return m.pop(), true
}

// GetBatch dequeues up to cap(dst)-len(dst) queued values into dst in
// FIFO order under one lock acquisition, blocking until at least one
// value is available or the mailbox closes. It returns the extended
// slice; a nil result with ok=false means closed and drained. Event
// loops use it to drain bursts without paying one lock round-trip per
// event.
func (m *Mailbox[T]) GetBatch(dst []T) (out []T, ok bool) {
	room := cap(dst) - len(dst)
	if room <= 0 {
		return dst, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.count == 0 {
		return dst, false
	}
	n := m.count
	if n > room {
		n = room
	}
	for i := 0; i < n; i++ {
		dst = append(dst, m.pop())
	}
	return dst, true
}

// Drain runs handle on every value in FIFO order until the mailbox
// closes and drains. It fetches bursts with GetBatch, so an event loop
// pays one lock round-trip per burst instead of one per event.
func (m *Mailbox[T]) Drain(handle func(T)) {
	batch := make([]T, 0, 32)
	for {
		events, ok := m.GetBatch(batch[:0])
		if !ok {
			return
		}
		for _, ev := range events {
			handle(ev)
		}
	}
}

// TryGet dequeues without blocking; ok is false if the mailbox is
// empty or closed.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		return v, false
	}
	return m.pop(), true
}

// Len returns the number of queued values.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Close wakes all blocked consumers; queued values may still be
// drained with Get/TryGet.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
