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
	cfg.FaultPlan = &plan
	s, _, params, hr := runWithTransport(t, cfg, backend)
	return s, params, hr
}

// A push the transport loses is neither delivered nor observed: every
// awake node's push is either observed or counted in LostPushes. Nodes
// fall back on local training, so utility still improves under heavy
// transit loss.
func TestFaultySendLossDropsPushes(t *testing.T) {
	d := gossipTestDataset(t)
	plan := transport.FaultPlan{Seed: 5, SendLossProb: 0.4}
	cfg := gossipConfig(d)
	cfg.Rounds = 20
	cfg.Train.Epochs = 2
	cfg.FaultPlan = &plan
	rec := &recordingObserver{}
	cfg.Observer = rec
	tr, err := transport.NewOptions("inproc", transport.Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.UtilityHR(10, 30)
	s.Run()
	after := s.UtilityHR(10, 30)
	observed, lost := int64(len(rec.msgs)), s.Resilience().LostPushes
	if lost == 0 {
		t.Fatal("SendLossProb=0.4 lost no push")
	}
	if st := tr.Stats(); st.Messages != observed || st.InjectedFaults != lost {
		t.Fatalf("traffic %+v, want %d messages and %d injected faults", st, observed, lost)
	}
	if observed+lost != int64(d.NumUsers*cfg.Rounds) {
		t.Fatalf("observed %d + lost %d pushes, want %d", observed, lost, d.NumUsers*cfg.Rounds)
	}
	if after <= before {
		t.Fatalf("training under loss did not improve HR: %.3f -> %.3f", before, after)
	}
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
