package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/client"
)

// session is one logical BFT client session. It has at most one request
// outstanding, because the replicas' reply cache answers only a client's
// latest sequence number. Everything below is owned by the goroutine
// that drives the session; the load generators merge it after the run.
type session struct {
	w     workload
	idx   int
	cl    *client.Client
	spans *sessionSpans // nil in untraced runs

	keys        []keyState
	pendingData []byte
	writesAcked uint64
	// issued counts every Invoke, set-up included. The client numbers its
	// requests from 1 in the same order, so a reply's sequence number is
	// its request's index plus one; the traced run matches replies so.
	issued uint64

	// samples holds every request of the measured window, exactly.
	samples           []sample
	attempted, failed int
	// outsideErrs counts failures outside the window (warmup or drain).
	outsideErrs int
	firstErr    error
}

// timedInvoke issues one request and returns its index among the
// session's requests, Invoke's start time and the result.
func (s *session) timedInvoke(payload []byte, readOnly bool) (op uint64, start time.Time, res []byte, err error) {
	op = s.issued
	s.issued++
	if s.spans != nil {
		s.spans.begin(op)
	}
	start = time.Now()
	res, err = s.cl.Invoke(payload, readOnly)
	return op, start, res, err
}

// do runs one operation and records it when it belongs to the measured
// window; latency is timed from Invoke's start.
func (s *session) do(o op, record bool) {
	payload, readOnly := s.request(o)
	k, start, res, err := s.timedInvoke(payload, readOnly)
	end := time.Now()
	if err == nil {
		err = s.check(o, res)
	}
	if err != nil && s.firstErr == nil {
		s.firstErr = fmt.Errorf("session %d op %d: %w", s.idx, k, err)
	}
	if !record {
		if err != nil {
			s.outsideErrs++
		}
		return
	}
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	s.samples = append(s.samples, sample{at: start.UnixNano(), lat: int64(end.Sub(start)), read: o.read})
	if s.spans != nil {
		s.spans.end(k, o.read, start, end)
	}
}

// window is the measured interval of a load run.
type window struct {
	start, end time.Time
}

// hooks run on the caller's goroutine at the window's edges, so counter
// snapshots bracket exactly the measured interval.
type hooks struct {
	atStart, atEnd func()
}

const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseDrain
)

// runLoad drives the sessions in closed loop for warmup plus length and
// returns the measured window: every session sends its next request as
// soon as the last one returns.
func runLoad(w workload, sessions []*session, seed int64, warmup, length time.Duration, h hooks) window {
	var phase atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sessions {
		s := s
		rng := rand.New(rand.NewSource(seed*1000 + int64(s.idx)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.do(w.nextOp(rng), phase.Load() == phaseWindow)
			}
		}()
	}
	time.Sleep(warmup)
	h.atStart()
	var win window
	win.start = time.Now()
	phase.Store(phaseWindow)
	time.Sleep(length)
	phase.Store(phaseDrain)
	win.end = time.Now()
	h.atEnd()
	close(stop)
	wg.Wait()
	return win
}
