package analysis_test

import (
	"testing"

	"github.com/collablearn/ciarec/internal/analysis"
	"github.com/collablearn/ciarec/internal/analysis/analysistest"
)

func TestDetRand(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetRand, "fed", "report")
}

// TestSimulatorPackagesAreDeterministic keeps the analyzers on the
// simulators and the frame they share: code moved from fed or gossip
// into simcore must stay checked.
func TestSimulatorPackagesAreDeterministic(t *testing.T) {
	for _, p := range []string{"fed", "gossip", "simcore", "simcore/simcoretest"} {
		if path := "github.com/collablearn/ciarec/internal/" + p; !analysis.IsDeterministicPkg(path) {
			t.Errorf("%s is outside the deterministic package set", path)
		}
	}
}
