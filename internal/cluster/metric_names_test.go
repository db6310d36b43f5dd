package cluster_test

import (
	"bufio"
	"os"
	"strings"
	"testing"
	"time"

	"hybster/internal/cluster"
	"hybster/internal/config"
)

// newMetricNames are the series the engines export beyond the pinned
// list: PBFT's exec and coordinator mailbox depths and its no-op
// counter, which it gained by sharing the COP runtime with Hybster.
var newMetricNames = map[string]bool{
	"PBFTcop hybster_pbft_exec_mailbox_depth":   true,
	"PBFTcop hybster_pbft_coord_mailbox_depth":  true,
	"PBFTcop hybster_pbft_noop_proposals_total": true,
}

// TestMetricNamesPinned boots HybsterX, PBFTcop and MinBFT through
// the public constructors, commits a few requests, and checks every
// replica's exported series against testdata/metric_names.txt. The
// ops surface, the auditor, the chaos harness and perfbench all read
// these names, so a refactor must neither drop nor rename one.
func TestMetricNamesPinned(t *testing.T) {
	pinned := readPinnedMetricNames(t)
	boot := map[config.Protocol]func(cluster.Options) (*cluster.Cluster, error){
		config.HybsterX: func(o cluster.Options) (*cluster.Cluster, error) { return cluster.NewHybster(o, counterApp) },
		config.PBFTcop:  func(o cluster.Options) (*cluster.Cluster, error) { return cluster.NewPBFT(o, counterApp) },
		config.MinBFT:   func(o cluster.Options) (*cluster.Cluster, error) { return cluster.NewMinBFT(o, counterApp) },
	}
	for _, proto := range []config.Protocol{config.HybsterX, config.PBFTcop, config.MinBFT} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c, err := boot[proto](cluster.Options{Config: config.Default(proto)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			cl, err := c.NewClient(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 5; i++ {
				if _, err := cl.Invoke([]byte{1}, false); err != nil {
					t.Fatal(err)
				}
			}
			for id := uint32(0); int(id) < c.Cfg.N; id++ {
				exported := make(map[string]bool)
				for name := range c.Telemetry(id).Metrics().Snapshot() {
					key := proto.String() + " " + name
					exported[key] = true
					if !pinned[key] && !newMetricNames[key] {
						t.Errorf("replica %d exports unpinned series %s", id, name)
					}
				}
				for key := range pinned {
					if strings.HasPrefix(key, proto.String()+" ") && !exported[key] {
						t.Errorf("replica %d no longer exports %s", id, key)
					}
				}
				for key := range newMetricNames {
					if strings.HasPrefix(key, proto.String()+" ") && !exported[key] {
						t.Errorf("replica %d does not export %s", id, key)
					}
				}
			}
		})
	}
}

// readPinnedMetricNames loads the "<protocol> <series>" lines.
func readPinnedMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("testdata/metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
