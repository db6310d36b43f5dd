package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"hybster/internal/apps/coordination"
	"hybster/internal/apps/echo"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
)

// plainEndpoint is an endpoint without the Multicaster capability.
type plainEndpoint struct{ transport.Endpoint }

// plainApp is an application without the SnapshotViewer capability.
type plainApp struct{ statemachine.Application }

// The traced wrappers must keep exactly the optional capabilities of
// what they wrap: without Multicaster, transport.Multicast falls back to
// per-destination sends, and without SnapshotViewer the executor
// snapshots synchronously on its loop — either would change the program
// the traced run measures.
func TestWrappersKeepCapabilities(t *testing.T) {
	net := transport.NewNetwork(transport.LinkProfile{}, 1)
	defer net.Close()
	mem := net.Endpoint(0)
	if _, ok := mem.(transport.Multicaster); !ok {
		t.Fatal("in-process endpoint is expected to be a Multicaster")
	}
	if _, ok := wrapEndpoint(mem, &endpointCounts{}, &spanBook{}, 0).(transport.Multicaster); !ok {
		t.Error("wrapped Multicaster endpoint lost Multicast")
	}
	if _, ok := wrapEndpoint(plainEndpoint{mem}, &endpointCounts{}, &spanBook{}, 0).(transport.Multicaster); ok {
		t.Error("wrapping added Multicast to an endpoint without it")
	}

	for name, app := range map[string]statemachine.Application{
		"echo": echo.New(0), "coordination": coordination.New(),
	} {
		if _, ok := app.(statemachine.SnapshotViewer); !ok {
			t.Fatalf("%s is expected to be a SnapshotViewer", name)
		}
		if _, ok := wrapApp(app, &appCounts{}, &spanBook{}, 0).(statemachine.SnapshotViewer); !ok {
			t.Errorf("wrapped %s lost SnapshotView", name)
		}
		if _, ok := wrapApp(plainApp{app}, &appCounts{}, &spanBook{}, 0).(statemachine.SnapshotViewer); ok {
			t.Errorf("wrapping added SnapshotView to %s without it", name)
		}
	}
}

// The wrappers count per destination and time the deferred snapshot
// closure when it runs, not when the view is taken.
func TestWrappersCount(t *testing.T) {
	net := transport.NewNetwork(transport.LinkProfile{}, 1)
	defer net.Close()
	got := make(chan message.Message, 4)
	for id := uint32(1); id <= 3; id++ {
		net.Endpoint(id).Handle(func(_ uint32, m message.Message) { got <- m })
	}
	var ec endpointCounts
	ep := wrapEndpoint(net.Endpoint(0), &ec, &spanBook{}, 0)
	transport.Multicast(ep, 4, &message.Reply{})
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 multicast deliveries arrived", i)
		}
	}
	if n := ec.msgs[message.TypeReply].Load(); n != 3 {
		t.Errorf("counted %d replies sent, want 3", n)
	}

	var ac appCounts
	app := wrapApp(echo.New(0), &ac, &spanBook{}, 0)
	app.Execute(1<<16, nil, false)
	view := app.(statemachine.SnapshotViewer).SnapshotView()
	if ac.clones.Load() != 1 || ac.snaps.Load() != 0 {
		t.Fatalf("after SnapshotView: %d views, %d encodes; want 1, 0", ac.clones.Load(), ac.snaps.Load())
	}
	if b := view(); len(b) != 8 || ac.snaps.Load() != 1 || ac.snapBytes.Load() != 8 {
		t.Errorf("after the closure: %d bytes, %d encodes of %d bytes; want 8, 1, 8", len(b), ac.snaps.Load(), ac.snapBytes.Load())
	}
	if ac.execs.Load() != 1 {
		t.Errorf("counted %d executions, want 1", ac.execs.Load())
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program runs and reports.
func TestBenchmarkDescriptionMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	if len(desc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(desc.Workloads), len(workloads))
	}
	for _, w := range desc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] is reported as [%s]", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", desc.EndToEnd, endToEndUnits)
	check("per_layer", desc.PerLayer, perLayerUnits())
}

func TestPercentile(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
}
