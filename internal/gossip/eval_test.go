package gossip

import "testing"

// Regression for the shared-evalRng bug, gossip side: the final round's
// utility must be the same whether or not earlier rounds were
// evaluated.
func TestUtilityIndependentOfEvalCadence(t *testing.T) {
	d := gossipTestDataset(t)

	var everyRound []float64
	cfg := gossipConfig(d)
	cfg.OnRound = func(round int, s *Simulation) {
		everyRound = append(everyRound, s.UtilityHR(10, 20))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()

	s2, err := New(gossipConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	s2.Run()
	lastOnly := s2.UtilityHR(10, 20)

	if got := everyRound[len(everyRound)-1]; got != lastOnly {
		t.Fatalf("final-round utility depends on evaluation cadence: %v != %v", got, lastOnly)
	}
}
