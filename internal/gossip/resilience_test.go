package gossip

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// runFaulty executes a fresh simulation from cfg on the named backend
// wrapped in the plan's fault injector.
func runFaulty(t *testing.T, cfg Config, backend string, plan transport.FaultPlan) (*Simulation, []*param.Set, []float64) {
	t.Helper()
	tr, err := transport.NewOptions(transport.FaultyPrefix+backend, transport.Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cfg.Transport = tr
	cfg.FaultPlan = &plan
	var hr []float64
	cfg.OnRound = func(round int, s *Simulation) {
		hr = append(hr, s.UtilityHR(10, 20))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	out := make([]*param.Set, len(s.nodes))
	for u := range s.nodes {
		out[u] = s.nodes[u].m.Params().Clone()
	}
	return s, out, hr
}

// An unreachable receiver skips the push without corrupting the
// sender's view, and a lost send is counted — both pure plan
// functions, so the counters are predictable and the run stays
// byte-identical across backends and worker counts.
func TestFaultyGossipEquivalence(t *testing.T) {
	d := gossipTestDataset(t)
	plan := transport.FaultPlan{
		Seed:         3,
		DropProb:     0.15,
		SendLossProb: 0.15,
	}
	cfg := gossipConfig(d)
	cfg.Rounds = 4

	refSim, refParams, refHR := runFaulty(t, cfg, "inproc", plan)
	ref := refSim.Resilience()
	if ref.SkippedPeers == 0 || ref.LostPushes == 0 {
		t.Fatalf("chaos plan too tame to prove anything: %+v", ref)
	}
	for _, backend := range []string{"inproc", "wire", "socket"} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				c := cfg
				c.Workers = workers
				sim, params, hr := runFaulty(t, c, backend, plan)
				for u := range refParams {
					if !param.Equal(refParams[u], params[u], 0) {
						t.Fatalf("node %d params differ from the reference chaos run", u)
					}
				}
				for r := range refHR {
					if hr[r] != refHR[r] {
						t.Fatalf("utility curve differs at round %d", r)
					}
				}
				if sim.Resilience() != ref {
					t.Fatalf("fault accounting %+v != reference %+v", sim.Resilience(), ref)
				}
			})
		}
	}
}

// Fault handling must consume no simulator RNG: a plan with nothing
// enabled reproduces the plain run exactly, even with the plan and the
// wrapper installed.
func TestGossipInactivePlanIsFree(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 4
	refSim, _, refParams, refHR := runWithTransport(t, cfg, "inproc")

	sim, params, hr := runFaulty(t, cfg, "inproc", transport.FaultPlan{Seed: 99})
	for u := range refParams {
		if !param.Equal(refParams[u], params[u], 0) {
			t.Fatalf("inactive plan changed node %d", u)
		}
	}
	for r := range refHR {
		if hr[r] != refHR[r] {
			t.Fatalf("inactive plan changed utility at round %d", r)
		}
	}
	if r := sim.Resilience(); r != (Resilience{}) {
		t.Fatalf("inactive plan accumulated fault accounting: %+v", r)
	}
	if refSim.Resilience() != (Resilience{}) {
		t.Fatalf("plain run accumulated fault accounting: %+v", refSim.Resilience())
	}
}
