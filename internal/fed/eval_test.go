package fed

import (
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
)

// utilityCurves runs cfg to completion recording both metrics each
// round via OnRound.
func utilityCurves(t *testing.T, cfg Config, workers int) (hr, f1 []float64) {
	t.Helper()
	cfg.Workers = workers
	cfg.OnRound = func(round int, s *Simulation) {
		hr = append(hr, s.UtilityHR(10, 20))
		f1 = append(f1, s.UtilityF1(10))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return hr, f1
}

// Utility curves must be byte-identical across worker counts — the
// evaluation engine's half of the determinism contract, on top of the
// round engine's (training is already covered by
// TestSerialParallelEquivalence). Share-less exercises the per-worker
// private-row overlay path.
func TestUtilityCurveWorkersInvariance(t *testing.T) {
	d := fedTestDataset(t)
	policies := map[string]defense.Policy{
		"full":       nil,
		"share-less": defense.ShareLess{Tau: 1},
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := fedConfig(d)
			cfg.Policy = policy
			hr1, f11 := utilityCurves(t, cfg, 1)
			hr4, f14 := utilityCurves(t, cfg, 4)
			for r := range hr1 {
				if hr1[r] != hr4[r] {
					t.Fatalf("round %d: HR differs across workers: %v != %v", r, hr1[r], hr4[r])
				}
				if f11[r] != f14[r] {
					t.Fatalf("round %d: F1 differs across workers: %v != %v", r, f11[r], f14[r])
				}
			}
		})
	}
}

// Regression for the shared-evalRng bug: a round's utility must not
// depend on evaluation history. Recording every round and recording
// only the final round must agree on the final round's value (under the
// old shared generator, the earlier sweeps advanced the stream and
// shifted the final round's negative samples).
func TestUtilityIndependentOfEvalCadence(t *testing.T) {
	d := fedTestDataset(t)

	var everyRound []float64
	cfg := fedConfig(d)
	cfg.OnRound = func(round int, s *Simulation) {
		everyRound = append(everyRound, s.UtilityHR(10, 20))
		s.UtilityF1(10) // extra unrelated evaluation traffic
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()

	cfg2 := fedConfig(d)
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2.Run()
	lastOnly := s2.UtilityHR(10, 20)

	if got := everyRound[len(everyRound)-1]; got != lastOnly {
		t.Fatalf("final-round utility depends on evaluation cadence: %v (evaluated every round) != %v (evaluated once)", got, lastOnly)
	}
	// And re-evaluating the same round is idempotent.
	if again := s.UtilityHR(10, 20); again != lastOnly {
		t.Fatalf("re-evaluating the same round is not idempotent: %v != %v", again, lastOnly)
	}
}
