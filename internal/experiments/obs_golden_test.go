package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// readGolden loads the checked-in determinism hashes, skipping on
// architectures they were not recorded on (mirrors
// TestGoldenDeterminism's gate).
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// obsFedRun executes the reference federated workload (the same one
// goldenFedRun pins) with the full observability surface attached:
// the tracer recording every phase span, a registry serving live
// counter views, and a snapshot gathered every round while the next
// one runs. Returns the run digest, which must match the untraced
// golden hash byte for byte.
func obsFedRun(t *testing.T, backend string, workers int, tracer *obs.Tracer) string {
	t.Helper()
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spec := BenchSpec()
	spec.Workers = workers
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	reg := obs.NewRegistry()
	var hr []float64
	sim, err := fed.New(fed.Config{
		Dataset:   d,
		Factory:   model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    4,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   workers,
		Transport: tr,
		Tracer:    tracer,
		OnRound: func(round int, s *fed.Simulation) {
			hr = append(hr, s.UtilityHR(spec.HRK, 20))
			reg.Snapshot() // live mid-run gather must not disturb the run
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RegisterMetrics(reg)
	sim.Run()
	if snap := reg.Snapshot(); snap["transport_messages_total"] == 0 {
		t.Fatalf("registry recorded no transport traffic: %v", snap)
	}
	return hashRun([]*param.Set{sim.Global().Params()}, hr)
}

// obsGossipRun is obsFedRun's gossip counterpart, mirroring
// goldenGossipRun's workload.
func obsGossipRun(t *testing.T, backend string, workers int, tracer *obs.Tracer) string {
	t.Helper()
	spec := BenchSpec()
	spec.Workers = workers
	d, err := MakeDataset("gowalla", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("prme", d)
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry()
	var f1 []float64
	sim, err := gossip.New(gossip.Config{
		Dataset:   d,
		Factory:   model.NewPRMEFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    5,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   workers,
		Transport: tr,
		Tracer:    tracer,
		OnRound: func(round int, s *gossip.Simulation) {
			f1 = append(f1, s.UtilityF1(spec.HRK))
			reg.Snapshot()
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RegisterMetrics(reg)
	sim.Run()
	params := make([]*param.Set, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		params[u] = sim.Node(u).Params()
	}
	return hashRun(params, f1)
}

// TestObsOffByteIdentical pins the disabled-recorder half of the obs
// determinism contract: with a metrics registry attached but no
// tracer (the nil recorder is the hot-path no-op), the reference fed
// and gossip workloads reproduce the checked-in golden hashes exactly
// on every backend.
func TestObsOffByteIdentical(t *testing.T) {
	want := readGolden(t)
	for _, backend := range []string{"inproc", "wire", "socket"} {
		if got := obsFedRun(t, backend, 2, nil); got != want["fed-gmf"] {
			t.Errorf("fed-gmf/%s with metrics registry attached: hash %s != golden %s", backend, got, want["fed-gmf"])
		}
		if got := obsGossipRun(t, backend, 2, nil); got != want["gossip-prme"] {
			t.Errorf("gossip-prme/%s with metrics registry attached: hash %s != golden %s", backend, got, want["gossip-prme"])
		}
	}
}

// TestObsOnByteIdentical pins the enabled half: with full span
// tracing (including a deliberately tiny ring, so wraparound and drop
// accounting are exercised mid-run) and live metric gathering every
// round, the golden hashes are still byte-identical — across
// inproc/wire/socket and across worker counts. This is the hard
// determinism constraint of the observability subsystem: recording
// must never perturb results.
func TestObsOnByteIdentical(t *testing.T) {
	want := readGolden(t)
	for _, backend := range []string{"inproc", "wire", "socket"} {
		for _, workers := range []int{2, 3} {
			tracer := obs.NewTracer(64) // tiny rings: force wraparound
			if got := obsFedRun(t, backend, workers, tracer); got != want["fed-gmf"] {
				t.Errorf("fed-gmf/%s workers=%d traced: hash %s != golden %s", backend, workers, got, want["fed-gmf"])
			}
			if tracer.Recorded() == 0 {
				t.Fatalf("fed-gmf/%s workers=%d: tracer recorded nothing", backend, workers)
			}
			tracer = obs.NewTracer(64)
			if got := obsGossipRun(t, backend, workers, tracer); got != want["gossip-prme"] {
				t.Errorf("gossip-prme/%s workers=%d traced: hash %s != golden %s", backend, workers, got, want["gossip-prme"])
			}
			if tracer.Recorded() == 0 {
				t.Fatalf("gossip-prme/%s workers=%d: tracer recorded nothing", backend, workers)
			}
		}
	}
}
