package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sample is one measured request: when it was sent, its latency, and
// its class.
type sample struct {
	at, lat int64 // Unix nanoseconds; nanoseconds
	read    bool
}

// sliceLen is the length of the slices a window is cut into. The
// end-to-end figures are medians over slices, so a host stall shorter
// than half the window does not move them, while a change in the
// program, which every slice sees, does.
const sliceLen = time.Second

// splitWindow cuts the window's samples into consecutive slices by their time.
func splitWindow(samples []sample, start time.Time, length time.Duration) [][]sample {
	n := int(length / sliceLen)
	if n < 1 {
		n = 1
	}
	out := make([][]sample, n)
	for _, s := range samples {
		i := int((s.at - start.UnixNano()) / int64(sliceLen))
		if i < 0 {
			i = 0
		} else if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], s)
	}
	return out
}

// latencies returns the sorted latencies of the samples keep selects.
func latencies(samples []sample, keep func(sample) bool) []int64 {
	var out []int64
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the nearest-rank q-quantile of sorted, in the
// slice's own units; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing happened (b = 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the process's user plus system time from rusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the traced run takes deltas of.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: rtAllocBytes}, {Name: rtAllocObjs}, {Name: rtGCCPU},
		{Name: rtTotalCPU}, {Name: rtGCPauses}, {Name: rtSchedLat},
	}
	metrics.Read(s)
	return s
}

// runtimeDelta is the change of the runtime metrics over a window.
type runtimeDelta struct {
	allocBytes, allocObjs float64
	gcCPU, totalCPU       float64
	gcPauseP99, schedP99  time.Duration
}

func diffRuntime(before, after []metrics.Sample) runtimeDelta {
	val := func(s []metrics.Sample, name string) metrics.Value {
		for _, x := range s {
			if x.Name == name {
				return x.Value
			}
		}
		return metrics.Value{}
	}
	scalar := func(name string) float64 {
		a, b := val(after, name), val(before, name)
		switch a.Kind() {
		case metrics.KindUint64:
			return float64(a.Uint64() - b.Uint64())
		case metrics.KindFloat64:
			return a.Float64() - b.Float64()
		}
		return 0
	}
	hist := func(name string) time.Duration {
		a, b := val(after, name), val(before, name)
		if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
			return 0
		}
		return histP99(a.Float64Histogram(), b.Float64Histogram())
	}
	return runtimeDelta{
		allocBytes: scalar(rtAllocBytes), allocObjs: scalar(rtAllocObjs),
		gcCPU: scalar(rtGCCPU), totalCPU: scalar(rtTotalCPU),
		gcPauseP99: hist(rtGCPauses), schedP99: hist(rtSchedLat),
	}
}

// histP99 is the 0.99-quantile of the observations a histogram gained
// between two reads, as the upper edge of the bucket holding it.
func histP99(after, before *metrics.Float64Histogram) time.Duration {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// telemetryDelta subtracts two Cluster.TelemetrySnapshot maps.
type telemetryDelta map[string]float64

func diffTelemetry(before, after map[string]float64) telemetryDelta {
	d := make(telemetryDelta, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the family name, whatever its labels; for a
// histogram family name is the _count or _sum series.
func (d telemetryDelta) sum(name string) float64 {
	var s float64
	for k, v := range d {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			s += v
		}
	}
	return s
}
