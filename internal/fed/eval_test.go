package fed

import "testing"

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
