package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"hybster/internal/apps/coordination"
	"hybster/internal/apps/echo"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/statemachine"
)

// workload is one deployment configuration the benchmark drives. Every
// field is fixed per workload; only the seed varies between runs.
type workload struct {
	name  string
	why   string
	proto config.Protocol
	// batch overrides config.Default's batch size when nonzero.
	batch  int
	rotate bool
	coord  bool
	// sessions is the number of logical BFT client sessions, each with
	// one request outstanding.
	sessions int
}

// Workload constants. keysPerSession × sessions × znodeSize is the
// coordination state a checkpoint snapshots (about 1 MB).
const (
	keysPerSession = 32
	znodeSize      = 1024
	readShare      = 0.5
	clientTimeout  = 2 * time.Second
)

var workloads = []workload{
	{
		name:  "echo-hx",
		why:   "HybsterX defaults (4 pillars, batch 16), rotating leader, 0-byte echo, 32 closed-loop sessions: the paper's headline configuration, bound by ordering",
		proto: config.HybsterX, rotate: true, sessions: 32,
	},
	{
		name:  "coord-hx",
		why:   "HybsterX defaults, fixed leader, coordination service with 1 kB znodes, 50% reads, 32 closed-loop sessions: execution, 1 MB snapshots and kB payloads carry weight",
		proto: config.HybsterX, coord: true, sessions: 32,
	},
	{
		name:  "echo-pbft-b1",
		why:   "PBFTcop defaults with batch 1, fixed leader, 0-byte echo, 32 closed-loop sessions: per-message cost, no trusted subsystem, no batching",
		proto: config.PBFTcop, batch: 1, sessions: 32,
	},
	{
		name:  "echo-minbft",
		why:   "MinBFT, batch 16, fixed leader, 0-byte echo, 32 closed-loop sessions: the only workload that runs the minbft engine and USIG",
		proto: config.MinBFT, sessions: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config returns the deployment configuration: config.Default, which
// is what hybster-replica runs, with only the workload's own overrides.
func (w workload) config() config.Config {
	cfg := config.Default(w.proto)
	if w.batch != 0 {
		cfg.BatchSize = w.batch
	}
	cfg.RotateLeader = w.rotate
	return cfg
}

// engine names the protocol engine package the workload runs on; the
// per-layer metrics of that engine carry its name.
func (w workload) engine() string {
	switch w.proto {
	case config.HybsterS, config.HybsterX:
		return "core"
	case config.PBFTcop, config.HybridPBFT:
		return "pbft"
	default:
		return "minbft"
	}
}

func (w workload) newApp() statemachine.Application {
	if w.coord {
		return coordination.New()
	}
	return echo.New(0)
}

// boot starts the workload's cluster through the public constructor of
// its protocol family.
func (w workload) boot(opts cluster.Options, newApp func() statemachine.Application) (*cluster.Cluster, error) {
	switch w.engine() {
	case "core":
		return cluster.NewHybster(opts, newApp)
	case "pbft":
		return cluster.NewPBFT(opts, newApp)
	default:
		return cluster.NewMinBFT(opts, newApp)
	}
}

// op is one generated operation. For the coordination service key is
// the index of one of the session's own znodes.
type op struct {
	read bool
	key  int
}

// nextOp draws the next operation from rng.
func (w workload) nextOp(rng *rand.Rand) op {
	o := op{read: rng.Float64() < readShare}
	if w.coord {
		o.key = rng.Intn(keysPerSession)
	}
	return o
}

// keyState is what a session last wrote to one of its znodes; only that
// session writes it, so a read must return exactly this.
type keyState struct {
	version uint64
	data    []byte
}

func znodePath(session, key int) string { return fmt.Sprintf("/s%02d-k%02d", session, key) }

// znodeData fills a fresh 1 kB value that differs per session, key and
// write, so a stale or misrouted read cannot match by accident.
func znodeData(session, key int, version uint64) []byte {
	b := make([]byte, znodeSize)
	x := uint64(session)<<48 ^ uint64(key)<<40 ^ version
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
}

// request builds the payload and read-only flag of o for session s.
// On echo both classes carry a 0-byte payload; a read-only echo does not
// advance the service counter, and the replicas order it like a write.
func (s *session) request(o op) ([]byte, bool) {
	if !s.w.coord {
		return nil, o.read
	}
	path := znodePath(s.idx, o.key)
	if o.read {
		return coordination.EncodeRequest(coordination.OpGetData, path, nil, 0), true
	}
	k := &s.keys[o.key]
	next := znodeData(s.idx, o.key, k.version+1)
	s.pendingData = next
	return coordination.EncodeRequest(coordination.OpSetData, path, next, k.version), false
}

// check validates the reply to o and updates the session's view of its
// own keys. A non-nil error is a correctness failure.
func (s *session) check(o op, res []byte) error {
	if !s.w.coord {
		if len(res) != 0 {
			return fmt.Errorf("echo reply of %d bytes, want 0", len(res))
		}
		if !o.read {
			s.writesAcked++
		}
		return nil
	}
	r, err := coordination.DecodeResult(res)
	if err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if r.Status != coordination.StatusOK {
		return fmt.Errorf("%s on %s", r.Status, znodePath(s.idx, o.key))
	}
	k := &s.keys[o.key]
	if o.read {
		if r.Version != k.version || !bytes.Equal(r.Data, k.data) {
			return fmt.Errorf("read-your-writes: %s read version %d, last wrote %d",
				znodePath(s.idx, o.key), r.Version, k.version)
		}
		return nil
	}
	if r.Version != k.version+1 {
		return fmt.Errorf("write to %s returned version %d, want %d",
			znodePath(s.idx, o.key), r.Version, k.version+1)
	}
	k.version, k.data = r.Version, s.pendingData
	return nil
}

// createKeys creates the session's znodes: the coordination key space
// that is part of set-up.
func (s *session) createKeys() error {
	if !s.w.coord {
		return nil
	}
	s.keys = make([]keyState, keysPerSession)
	for k := range s.keys {
		data := znodeData(s.idx, k, 1)
		_, _, res, err := s.timedInvoke(coordination.EncodeRequest(coordination.OpCreate, znodePath(s.idx, k), data, 0), false)
		if err != nil {
			return fmt.Errorf("create %s: %w", znodePath(s.idx, k), err)
		}
		r, err := coordination.DecodeResult(res)
		if err != nil || r.Status != coordination.StatusOK || r.Version != 1 {
			return fmt.Errorf("create %s: status %v version %d (%v)", znodePath(s.idx, k), r.Status, r.Version, err)
		}
		s.keys[k] = keyState{version: 1, data: data}
	}
	return nil
}
