package fed

import (
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// runWithWorkers executes a fresh simulation from cfg with the given
// worker count on an inproc transport and returns the simulation, its
// transport and the final global parameter set.
func runWithWorkers(t *testing.T, cfg Config, workers int) (*Simulation, transport.Transport, *param.Set) {
	t.Helper()
	cfg.Workers = workers
	tr := transport.NewInproc()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s, tr, s.Global().Params().Clone()
}

// The round engine's core determinism guarantee: Workers=1 and
// Workers=N produce byte-identical final parameters (tolerance 0),
// identical traffic, and identical per-client private state, for every
// policy family.
func TestSerialParallelEquivalence(t *testing.T) {
	d := fedTestDataset(t)
	policies := map[string]defense.Policy{
		"full":       nil,
		"share-less": defense.ShareLess{Tau: 1},
		"dp-sgd":     defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05},
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := fedConfig(d)
			cfg.Policy = policy
			serialSim, serialTr, serial := runWithWorkers(t, cfg, 1)
			parallelSim, parallelTr, parallel := runWithWorkers(t, cfg, 4)
			if !param.Equal(serial, parallel, 0) {
				t.Fatal("Workers=1 and Workers=4 final global params differ")
			}
			if serialTr.Stats() != parallelTr.Stats() {
				t.Fatalf("traffic differs: %+v vs %+v", serialTr.Stats(), parallelTr.Stats())
			}
			for u := range serialSim.clients {
				sp := serialSim.clients[u].privateRows
				pp := parallelSim.clients[u].privateRows
				if len(sp) != len(pp) {
					t.Fatalf("client %d private-row count differs", u)
				}
				for k, row := range sp {
					prow := pp[k]
					for i := range row {
						if row[i] != prow[i] {
							t.Fatalf("client %d private row %q differs at %d", u, k, i)
						}
					}
				}
			}
		})
	}
}

// Dropout draws come from the shared round RNG; the parallel engine
// must consume that stream exactly like a serial round.
func TestSerialParallelEquivalenceWithDropoutAndSampling(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 6
	cfg.ClientFraction = 0.6
	cfg.DropoutProb = 0.2
	_, serialTr, serial := runWithWorkers(t, cfg, 1)
	_, parallelTr, parallel := runWithWorkers(t, cfg, 3)
	if !param.Equal(serial, parallel, 0) {
		t.Fatal("dropout/sampling run differs between Workers=1 and Workers=3")
	}
	if serialTr.Stats() != parallelTr.Stats() {
		t.Fatalf("traffic differs: %+v vs %+v", serialTr.Stats(), parallelTr.Stats())
	}
}

// Observers must see the same upload sequence whatever the worker
// count (the CIA adversary's view is part of the reproduced protocol).
func TestParallelObserverSequence(t *testing.T) {
	d := fedTestDataset(t)
	type seen struct {
		round, from int
		norm        float64
	}
	record := func(workers int) []seen {
		var log []seen
		cfg := fedConfig(d)
		cfg.Workers = workers
		cfg.Observer = observerFunc(func(msg Message) {
			log = append(log, seen{msg.Round, msg.From, msg.Params.L2Norm()})
		})
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return log
	}
	serial := record(1)
	parallel := record(4)
	if len(serial) != len(parallel) {
		t.Fatalf("observation count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}
