package gossip

import (
	"testing"

	"github.com/collablearn/ciarec/internal/transport"
)

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
