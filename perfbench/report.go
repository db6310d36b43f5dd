package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hybster/internal/message"
)

// Units of the end-to-end metrics, reported by untraced runs. p99_ms is
// printed with every run but is not one of them: on a shared 2-vCPU host a
// stretch of CPU steal raises it 1.3 to 3 times for whole runs, further
// than any admissible bound (see README.md). Traced runs report it as the
// per-layer client.p99_ms.
var endToEndUnits = map[string]string{
	"throughput_ops": "ops/s",
	"p50_ms":         "ms",
	"p50_read_ms":    "ms",
	"p50_write_ms":   "ms",
	"cpu_us_per_op":  "us/op",
	"setup_s":        "s",
}

// engines are the protocol engine packages; every workload reports the
// engine metrics of all three, zero for the engines it does not run.
var engines = []string{"core", "pbft", "minbft"}

// kinds are the message types whose per-op counts are reported by name;
// every other type (view change, state transfer) is "other".
var kinds = []message.Type{
	message.TypeReply, message.TypePrepare, message.TypeCommit, message.TypeCheckpoint,
	message.TypePrePrepare, message.TypePBFTPrepare, message.TypePBFTCommit,
	message.TypePBFTCheckpoint, message.TypeMinPrepare, message.TypeMinCommit,
}

func kindName(t message.Type) string { return strings.ToLower(t.String()) }

// perLayerUnits lists the per-layer metrics, reported by traced runs.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"trinx.ecalls_per_op":                  "count/op",
		"trinx.ecall_us_per_op":                "us/op",
		"usig.ecalls_per_op":                   "count/op",
		"usig.ecall_us_per_op":                 "us/op",
		"message.marshals_per_op":              "count/op",
		"message.marshal_pool_hit_frac":        "frac",
		"transport.msgs_per_op":                "count/op",
		"transport.msgs_per_op.other":          "count/op",
		"transport.bytes_per_op":               "bytes/op",
		"transport.send_us_per_op":             "us/op",
		"verify.verified_per_op":               "count/op",
		"verify.latency_us":                    "us",
		"verify.rejected":                      "count",
		"span.order_ms":                        "ms",
		"span.quorum_ms":                       "ms",
		"span.reply_ms":                        "ms",
		"client.p99_ms":                        "ms",
		"reply.sent_per_op":                    "count/op",
		"statemachine.execute_us_per_op":       "us/op",
		"statemachine.snapshot_ms":             "ms",
		"statemachine.snapshot_clone_ms":       "ms",
		"statemachine.snapshot_bytes":          "bytes",
		"runtime.alloc_bytes_per_op":           "bytes/op",
		"runtime.allocs_per_op":                "count/op",
		"runtime.gc_cpu_frac":                  "frac",
		"runtime.gc_pause_p99_us":              "us",
		"runtime.sched_latency_p99_us":         "us",
		"quiesce.lag_orders":                   "count",
		"tracing_overhead_frac.throughput_ops": "frac",
		"tracing_overhead_frac.p50_ms":         "frac",
	}
	for _, e := range engines {
		u[e+".requests_per_batch"] = "count"
		u[e+".seq_queue_depth"] = "count"
		u[e+".view_changes"] = "count"
		u[e+".retransmits_per_kop"] = "count/kop"
		u[e+".state_transfers"] = "count"
	}
	for _, k := range kinds {
		u["transport.msgs_per_op."+kindName(k)] = "count/op"
	}
	return u
}

// report collects named values and prints each as it is added.
type report map[string]float64

func (r report) add(name string, v float64, note string) {
	r[name] = v
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("%-40s %14.6g%s\n", name, v, note)
}

func (r report) metrics(units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := r[name]
		if !ok {
			panic("perfbench: metric " + name + " was never measured")
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	return out
}

// clientFigures prints and records the client-visible figures of m:
// each is the median over the window's one-second slices, printed next
// to its whole-window value. A slice in which no request of a class
// completed counts as the run's worst latency of that class.
func clientFigures(r report, m *measurement) {
	parts := splitWindow(m.samples, m.win.start, m.win.end.Sub(m.win.start))
	perSlice := func(f func([]sample) float64) float64 {
		vals := make([]float64, len(parts))
		for i, part := range parts {
			vals[i] = f(part)
		}
		return median(vals)
	}
	latency := func(name string, keep func(sample) bool, q float64) {
		whole := latencies(m.samples, keep)
		worst := percentile(whole, 1)
		v := perSlice(func(part []sample) float64 {
			lat := latencies(part, keep)
			if len(lat) == 0 {
				return ms(worst)
			}
			return ms(percentile(lat, q))
		})
		r.add(name, v, fmt.Sprintf("ms, median of %d slices; whole window %.4g, n=%d", len(parts), ms(percentile(whole, q)), len(whole)))
	}
	every := func(sample) bool { return true }
	r.add("throughput_ops", perSlice(func(part []sample) float64 { return float64(len(part)) / sliceLen.Seconds() }),
		fmt.Sprintf("ops/s, median of %d slices; whole window %.1f, n=%d over %.2f s", len(parts), float64(m.ops())/m.seconds(), m.ops(), m.seconds()))
	latency("p50_ms", every, 0.50)
	latency("p99_ms", every, 0.99)
	latency("p50_read_ms", func(s sample) bool { return s.read }, 0.50)
	latency("p50_write_ms", func(s sample) bool { return !s.read }, 0.50)
	r.add("cpu_us_per_op", m.perOp(float64(m.cpu.Microseconds())), fmt.Sprintf("us/op, %.2f s CPU, %.0f%% of %d CPUs",
		m.cpu.Seconds(), 100*m.cpu.Seconds()/m.seconds()/float64(runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)))
}

// validity prints what tells a program tail from a scheduler tail, and
// the failure share; it is printed with every run.
func validity(r report, w workload, m *measurement) {
	r.add("failed_frac", ratio(float64(m.failed), float64(m.attempted)), fmt.Sprintf("%d of %d attempted", m.failed, m.attempted))
	r.add("runtime.sched_latency_p99_us", float64(m.rt.schedP99.Microseconds()), "us, goroutine runnable-to-running")
	r.add(w.engine()+".view_changes", m.tel.sum("hybster_"+w.engine()+"_view_changes_total"), "must be 0")
	r.add("quiesce.lag_orders", float64(m.lag), "orders the slowest replica trailed by once idle")
}

// requestsPerBatch is the engine's mean batch size over m's window.
func requestsPerBatch(w workload, m *measurement) float64 {
	pre := "hybster_" + w.engine() + "_"
	return ratio(m.tel.sum(pre+"exec_requests_total"), m.tel.sum(pre+"exec_batches_total"))
}

// endToEnd is the untraced run: setups boots, one measured window.
func endToEnd(w workload, seed int64, length time.Duration) (result, error) {
	var setupS []float64
	var p *pass
	for i := 0; i < setups; i++ {
		runtime.GC() // no set-up pays for the garbage of the one before
		start := time.Now()
		q, err := setUp(w, false)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setups-1 {
			q.tearDown()
		} else {
			p = q
		}
	}
	defer p.tearDown()
	m := p.measure(seed, length)
	r := report{}
	clientFigures(r, &m)
	r.add("setup_s", median(setupS), fmt.Sprintf("s, median of %d: %.4f", setups, setupS))
	validity(r, w, &m)
	r.add(w.engine()+".requests_per_batch", requestsPerBatch(w, &m), "")
	return finish(r, endToEndUnits, &m), nil
}

// finish prints the problems of m and builds the result line.
func finish(r report, units map[string]string, m *measurement) result {
	for _, p := range m.problems {
		fmt.Println("FAIL", p)
	}
	return result{
		Correct:   len(m.problems) == 0 && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   r.metrics(units),
	}
}

// perLayer runs the workload untraced, then traced, and reports the
// traced run's per-layer metrics and the tracing overhead.
func perLayer(w workload, seed int64, length time.Duration, spanDir string) (result, error) {
	base, err := onePass(w, seed, length, false, "")
	if err != nil {
		return result{}, err
	}
	fmt.Println("# untraced reference")
	ref := report{}
	clientFigures(ref, &base)

	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return result{}, err
	}
	spanFile := filepath.Join(spanDir, w.name+".jsonl")
	m, err := onePass(w, seed, length, true, spanFile)
	if err != nil {
		return result{}, err
	}
	fmt.Println("# traced run; spans in", spanFile)
	r := report{}
	clientFigures(r, &m)
	r.add("client.p99_ms", r["p99_ms"], "ms, p99_ms of the traced run")
	layers(r, w, &m)
	validity(r, w, &m)
	r.add("tracing_overhead_frac.throughput_ops", 1-ratio(r["throughput_ops"], ref["throughput_ops"]), "throughput lost to tracing")
	r.add("tracing_overhead_frac.p50_ms", ratio(r["p50_ms"], ref["p50_ms"])-1, "p50 added by tracing")

	// The wrappers must not change what the program does: per-op marshal
	// counts and batch sizes of the two runs must agree.
	pre := "hybster_" + w.engine() + "_"
	for name, a := range map[string]float64{
		"message.marshals_per_op":          base.perOp(float64(base.marshals)),
		w.engine() + ".requests_per_batch": ratio(base.tel.sum(pre+"exec_requests_total"), base.tel.sum(pre+"exec_batches_total")),
	} {
		b := r[name]
		fmt.Printf("%-40s %14.6g untraced, %.6g traced\n", "agree "+name, a, b)
		if math.Abs(a-b) > agreeTolerance*math.Max(math.Abs(a), math.Abs(b)) {
			m.problems = append(m.problems, fmt.Sprintf("%s differs between untraced (%.4g) and traced (%.4g) runs", name, a, b))
		}
	}
	base.problems = append(base.problems, m.problems...)
	m.problems = base.problems
	m.attempted += base.attempted
	m.failed += base.failed
	return finish(r, perLayerUnits(), &m), nil
}

// agreeTolerance is how far, as a share, a per-op count may differ
// between the untraced and the traced run before the wrappers count as
// having changed the program.
const agreeTolerance = 0.25

// onePass boots once, measures one window and, when traced, writes the
// spans to spanFile.
func onePass(w workload, seed int64, length time.Duration, traced bool, spanFile string) (measurement, error) {
	p, err := setUp(w, traced)
	if err != nil {
		return measurement{}, err
	}
	defer p.tearDown()
	m := p.measure(seed, length)
	if traced {
		if err := writeSpans(spanFile, p.sessions, m.win.start); err != nil {
			return measurement{}, err
		}
	}
	return m, nil
}

// layers derives the per-layer metrics from m's counter deltas and adds
// them to r, which it returns.
func layers(r report, w workload, m *measurement) report {
	t := m.tel
	ops := float64(m.ops())
	perOp := func(x float64) float64 { return ratio(x, ops) }
	nsPerOpUs := func(ns float64) float64 { return perOp(ns) / 1e3 }

	for _, e := range engines {
		pre := "hybster_" + e + "_"
		reqs, batches := t.sum(pre+"exec_requests_total"), t.sum(pre+"exec_batches_total")
		depth := 0.0
		if e == w.engine() {
			depth = m.queueDepth
		}
		r.add(e+".requests_per_batch", ratio(reqs, batches), "")
		r.add(e+".seq_queue_depth", depth, "mean per replica, sampled every 10 ms")
		r.add(e+".retransmits_per_kop", 1000*perOp(t.sum(pre+"retransmits_total")), "")
		r.add(e+".state_transfers", t.sum(pre+"state_transfers_total")+t.sum(pre+"state_xfers_total"), "snapshots installed by lagging replicas")
		if e != w.engine() {
			r.add(e+".view_changes", 0, "")
		}
	}

	r.add("trinx.ecalls_per_op", perOp(t.sum("hybster_trinx_ecalls_total")), "")
	r.add("trinx.ecall_us_per_op", nsPerOpUs(t.sum("hybster_trinx_ecall_seconds_sum")), "")
	r.add("usig.ecalls_per_op", perOp(t.sum("hybster_usig_ecalls_total")), "")
	r.add("usig.ecall_us_per_op", nsPerOpUs(t.sum("hybster_usig_ecall_seconds_sum")), "")

	r.add("message.marshals_per_op", perOp(float64(m.marshals)), "process-wide")
	r.add("message.marshal_pool_hit_frac", ratio(float64(m.poolHit), float64(m.marshals)), "")

	var msgs, named uint64
	for _, c := range m.tc.msgs {
		msgs += c
	}
	for _, k := range kinds {
		c := m.tc.msgs[int(k)%numTypes]
		named += c
		r.add("transport.msgs_per_op."+kindName(k), perOp(float64(c)), "")
	}
	r.add("transport.msgs_per_op.other", perOp(float64(msgs-named)), "")
	r.add("transport.msgs_per_op", perOp(float64(msgs)), "sent by replicas, per destination")
	r.add("transport.bytes_per_op", perOp(float64(m.tc.bytes)), "estimated wire bytes")
	r.add("transport.send_us_per_op", nsPerOpUs(float64(m.tc.sendNs)), "")

	r.add("verify.verified_per_op", perOp(t.sum("hybster_verify_verified_total")), "")
	r.add("verify.latency_us", ratio(t.sum("hybster_verify_latency_ns_sum"), t.sum("hybster_verify_latency_ns_count"))/1e3, "mean submit-to-verdict")
	r.add("verify.rejected", t.sum("hybster_verify_rejected_total"), "")

	var order, quorum, reply []int64
	for _, spans := range m.spans {
		for _, sp := range spans {
			order = append(order, sp.first-sp.start)
			quorum = append(quorum, sp.quorum-sp.first)
			reply = append(reply, sp.done-sp.quorum)
		}
	}
	spanN := fmt.Sprintf("ms p50, n=%d", len(order))
	r.add("span.order_ms", ms(percentile(sortedCopy(order), 0.5)), spanN)
	r.add("span.quorum_ms", ms(percentile(sortedCopy(quorum), 0.5)), spanN)
	r.add("span.reply_ms", ms(percentile(sortedCopy(reply), 0.5)), spanN)
	r.add("reply.sent_per_op", perOp(t.sum("hybster_reply_sent_total")), "")

	tc := m.tc
	r.add("statemachine.execute_us_per_op", nsPerOpUs(float64(tc.execNs)), "summed over replicas")
	r.add("statemachine.snapshot_ms", ratio(float64(tc.snapNs), float64(tc.snaps))/1e6, fmt.Sprintf("mean of %d encodes", tc.snaps))
	r.add("statemachine.snapshot_clone_ms", ratio(float64(tc.cloneNs), float64(tc.clones))/1e6, fmt.Sprintf("mean of %d views on the exec loop", tc.clones))
	r.add("statemachine.snapshot_bytes", ratio(float64(tc.snapBytes), float64(tc.snaps)), "mean")

	r.add("runtime.alloc_bytes_per_op", perOp(m.rt.allocBytes), "whole process")
	r.add("runtime.allocs_per_op", perOp(m.rt.allocObjs), "whole process")
	r.add("runtime.gc_cpu_frac", ratio(m.rt.gcCPU, m.rt.totalCPU), "")
	r.add("runtime.gc_pause_p99_us", float64(m.rt.gcPauseP99.Microseconds()), "")
	return r
}
