// Command perfbench is the repository's benchmark. It boots one
// workload's in-process replica group through the public cluster
// constructors with deployment defaults, drives it from its own load
// generator, checks every result, and prints the workload's metrics.
//
//	perfbench --workload echo-hx --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced and then traced, and
// reports the per-layer metrics of the traced run plus the tracing
// overhead. The last line of standard output is one JSON object; the
// exit code is nonzero when a correctness check fails. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"hybster/internal/apps/coordination"
	"hybster/internal/apps/echo"
	"hybster/internal/cluster"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/statemachine"
)

const (
	// warmup runs before every measured window and is not recorded.
	warmup = 2 * time.Second
	// setups is how often the untraced run boots its cluster; setup_s
	// is the median, and the last cluster is the one measured.
	setups = 9
	// quiesceTimeout bounds the wait for the cluster to go idle after
	// load; idleAfter is how long executed orders must hold still to count
	// as idle when the replicas do not all reach the same one.
	quiesceTimeout = 10 * time.Second
	idleAfter      = time.Second
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	length := time.Duration(*seconds) * time.Second
	fmt.Printf("# %s seed %d trace %d: %d closed-loop sessions, GOMAXPROCS %d\n",
		w.name, *seed, *trace, w.sessions, runtime.GOMAXPROCS(0))

	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, length)
	} else {
		res, err = perLayer(w, *seed, length, filepath.Join(*out, "spans"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is one booted cluster with its sessions.
type pass struct {
	w        workload
	c        *cluster.Cluster
	apps     []statemachine.Application // unwrapped, in replica order
	sessions []*session
	tr       *tracer // nil when untraced
}

// setUp boots the cluster, opens the sessions and creates the
// coordination key space: everything setup_s measures.
func setUp(w workload, traced bool) (*pass, error) {
	p := &pass{w: w}
	opts := cluster.Options{Config: w.config(), EnclaveCost: enclave.DefaultCostModel}
	if traced {
		p.tr = &tracer{}
		opts.WrapEndpoint = p.tr.endpoint
	}
	newApp := func() statemachine.Application {
		a := w.newApp()
		p.apps = append(p.apps, a)
		if p.tr != nil {
			return p.tr.app(a)
		}
		return a
	}
	c, err := w.boot(opts, newApp)
	if err != nil {
		p.tearDown()
		return nil, fmt.Errorf("boot %s: %w", w.name, err)
	}
	p.c = c
	for i := 0; i < w.sessions; i++ {
		cl, err := c.NewClient(clientTimeout)
		if err != nil {
			p.tearDown()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		p.sessions = append(p.sessions, &session{w: w, idx: i, cl: cl})
	}
	if p.tr != nil {
		p.tr.attach(p.sessions, c.Cfg.F()+1)
	}
	errs := make(chan error, len(p.sessions))
	for _, s := range p.sessions {
		s := s
		go func() { errs <- s.createKeys() }()
	}
	var first error
	for range p.sessions {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		p.tearDown()
		return nil, first
	}
	return p, nil
}

func (p *pass) tearDown() {
	for _, s := range p.sessions {
		s.cl.Close()
	}
	if p.c != nil {
		p.c.Stop()
	}
}

// measurement is what one load run observed.
type measurement struct {
	win               window
	attempted, failed int
	samples           []sample
	cpu               time.Duration
	tel               telemetryDelta
	marshals, poolHit uint64
	rt                runtimeDelta
	tc                traceCounts
	queueDepth        float64
	spans             [][]span // per session, traced runs only
	// lag is how many orders the furthest replica was ahead of the
	// slowest once the cluster went idle after the window.
	lag uint64
	// problems lists every failed correctness check.
	problems []string
}

func (m *measurement) ops() int { return len(m.samples) }

func (m *measurement) seconds() float64 { return m.win.end.Sub(m.win.start).Seconds() }

func (m *measurement) perOp(x float64) float64 { return ratio(x, float64(m.ops())) }

// measure runs warmup plus one window of load, snapshotting every
// counter at the window's edges, and then runs the correctness gate.
func (p *pass) measure(seed int64, length time.Duration) measurement {
	runtime.GC() // start every window from the same heap, however many setups came first
	var m measurement
	var (
		cpu0        time.Duration
		tel0        map[string]float64
		marshal0    uint64
		poolHit0    uint64
		rt0         []metrics.Sample
		tc0         traceCounts
		stopSampler func() float64
	)
	h := hooks{
		atStart: func() {
			tel0 = p.c.TelemetrySnapshot()
			marshal0, poolHit0 = message.MarshalStats()
			rt0 = readRuntime()
			if p.tr != nil {
				tc0 = p.tr.counts()
				stopSampler = sampleGauge(p.c, queueGauge(p.w))
			}
			cpu0 = processCPU()
		},
		atEnd: func() {
			m.cpu = processCPU() - cpu0
			if p.tr != nil {
				m.queueDepth = stopSampler()
				m.tc = p.tr.counts().minus(tc0)
			}
			m.rt = diffRuntime(rt0, readRuntime())
			total, hits := message.MarshalStats()
			m.marshals, m.poolHit = total-marshal0, hits-poolHit0
			m.tel = diffTelemetry(tel0, p.c.TelemetrySnapshot())
		},
	}
	m.win = runLoad(p.w, p.sessions, seed, warmup, length, h)

	for _, s := range p.sessions {
		m.samples = append(m.samples, s.samples...)
		m.attempted += s.attempted
		m.failed += s.failed
		if s.spans != nil {
			m.spans = append(m.spans, s.spans.done)
		}
		if s.firstErr != nil && len(m.problems) < 5 {
			m.problems = append(m.problems, s.firstErr.Error())
		}
		if s.outsideErrs > 0 {
			m.problems = append(m.problems, fmt.Sprintf("session %d: %d failures outside the window", s.idx, s.outsideErrs))
		}
	}
	lag, problems := p.gate()
	m.lag = lag
	m.problems = append(m.problems, problems...)
	return m
}

// gate lets the cluster go idle, then checks that the replicas that
// executed furthest hold the same application state, at least a quorum
// of them, and that the state is what the sessions saw. A replica still
// behind them once the cluster is idle is not compared — its snapshot is
// of an earlier order — and its lag is returned as a liveness margin.
func (p *pass) gate() (lag uint64, problems []string) {
	orders, err := p.quiesce()
	if err != nil {
		return 0, []string{err.Error()}
	}
	top, bottom := orders[0], orders[0]
	for _, o := range orders {
		top, bottom = max(top, o), min(bottom, o)
	}
	var lead []int
	for id, o := range orders {
		if o == top {
			lead = append(lead, id)
		}
	}
	if q := p.c.Cfg.Quorum(); len(lead) < q {
		problems = append(problems, fmt.Sprintf("only %d replicas reached executed order %d after the run, fewer than a quorum of %d; executed per replica: %v", len(lead), top, q, orders))
	}
	var writes uint64
	for _, s := range p.sessions {
		writes += s.writesAcked
	}
	ref := sha256.Sum256(p.apps[lead[0]].Snapshot())
	for _, id := range lead {
		if d := sha256.Sum256(p.apps[id].Snapshot()); d != ref {
			problems = append(problems, fmt.Sprintf("replica %d snapshot digest %x differs from replica %d's %x at executed order %d", id, d[:8], lead[0], ref[:8], top))
		}
		switch a := p.apps[id].(type) {
		case *echo.Service:
			if a.Count() != writes {
				problems = append(problems, fmt.Sprintf("replica %d executed %d echo writes, sessions had %d acknowledged", id, a.Count(), writes))
			}
		case *coordination.Service:
			if want := len(p.sessions) * keysPerSession; a.NodeCount() != want {
				problems = append(problems, fmt.Sprintf("replica %d holds %d znodes, want %d", id, a.NodeCount(), want))
			}
		}
	}
	return top - bottom, problems
}

// quiesce waits until the replicas' executed order numbers are all equal
// across two polls, or have not moved for idleAfter, and returns them.
func (p *pass) quiesce() ([]uint64, error) {
	deadline := time.Now().Add(quiesceTimeout)
	var last []uint64
	var since time.Time
	for {
		cur := make([]uint64, p.c.Cfg.N)
		equal := true
		for id := range cur {
			cur[id] = uint64(p.c.Replica(uint32(id)).LastExecuted())
			equal = equal && cur[id] == cur[0]
		}
		switch {
		case !slices.Equal(cur, last):
			last, since = cur, time.Now()
		case equal || time.Since(since) >= idleAfter:
			return cur, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replicas still executing %v after the run; executed per replica: %v", quiesceTimeout, cur)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// queueGauge names the engine's admission-queue gauge.
func queueGauge(w workload) string {
	if w.engine() == "minbft" {
		return "hybster_minbft_queue_len"
	}
	return "hybster_" + w.engine() + "_seq_queue_depth"
}

// sampleGauge polls a gauge on every replica until the returned stop
// function is called, which returns its mean per replica.
func sampleGauge(c *cluster.Cluster, name string) func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		var sum float64
		var n int
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- ratio(sum, float64(n))
				return
			case <-tick.C:
				for id := 0; id < c.Cfg.N; id++ {
					sum += c.MetricValue(uint32(id), name)
					n++
				}
			}
		}
	}()
	return func() float64 { close(stop); return <-done }
}
