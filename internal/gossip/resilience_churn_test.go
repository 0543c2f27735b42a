package gossip

import (
	"reflect"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// churnTestPlan produces leaves, joins, rejoins and stale resets
// within a short run on the 30-node test network.
func churnTestPlan() transport.ChurnPlan {
	return transport.ChurnPlan{Seed: 5, InitialFraction: 0.8, LeaveProb: 0.3, JoinProb: 0.3, StaleBound: 2}
}

// TestResilienceGossipChurnReplayPredictsCounters replays the pure
// membership fold and demands matching counters from the simulator.
func TestResilienceGossipChurnReplayPredictsCounters(t *testing.T) {
	d := gossipTestDataset(t)
	plan := churnTestPlan()
	cfg := gossipConfig(d)
	cfg.Rounds = 8
	cfg.ChurnPlan = &plan
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	m := transport.NewMembership(plan, d.NumUsers)
	for round := 0; round < cfg.Rounds; round++ {
		m.Advance(round)
	}
	r := s.Resilience()
	if r.Joins != m.Joins() || r.Leaves != m.Leaves() || r.Rejoins != m.Rejoins() {
		t.Fatalf("simulator counters joins/leaves/rejoins = %d/%d/%d, replay predicts %d/%d/%d",
			r.Joins, r.Leaves, r.Rejoins, m.Joins(), m.Leaves(), m.Rejoins())
	}
}

// TestResilienceGossipChurnFreezesAbsentNodes: a round in which every
// node has left must change nothing at all.
func TestResilienceGossipChurnFreezesAbsentNodes(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 3
	cfg.ChurnPlan = &transport.ChurnPlan{Seed: 1, LeaveProb: 1}
	tr := transport.NewInproc()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*param.Set, d.NumUsers)
	for u := range before {
		before[u] = s.Node(u).Params().Clone()
	}
	s.Run()
	for u := range before {
		if !param.Equal(before[u], s.Node(u).Params(), 0) {
			t.Fatalf("node %d trained while the whole network was absent", u)
		}
	}
	if st := tr.Stats(); st.Messages != 0 {
		t.Fatalf("%d messages moved in an all-absent network", st.Messages)
	}
	r := s.Resilience()
	if r.Leaves != int64(d.NumUsers) {
		t.Fatalf("Leaves = %d, want %d (everyone leaves in round 0)", r.Leaves, d.NumUsers)
	}
}

// TestResilienceMetricViews holds the registry's resilience_* views to
// the Resilience() accounting they read: after a run with churn,
// Byzantine pushes and faults, there is one view per field and each
// equals its field.
func TestResilienceMetricViews(t *testing.T) {
	d := gossipTestDataset(t)
	churn := churnTestPlan()
	byz := attack.Byzantine{Kind: attack.ByzCollude, Fraction: 0.2, Seed: 9}
	plan := transport.FaultPlan{Seed: 3, DropProb: 0.15, SendLossProb: 0.15}
	tr, err := transport.NewOptions(transport.FaultyPrefix+"inproc", transport.Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := gossipConfig(d)
	cfg.Rounds = 10
	cfg.Transport = tr
	cfg.FaultPlan = &plan
	cfg.ChurnPlan = &churn
	cfg.Byzantine = &byz
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	s.Run()

	r := s.Resilience()
	want := map[string]int64{
		"resilience_lost_pushes":      r.LostPushes,
		"resilience_skipped_peers":    r.SkippedPeers,
		"resilience_absent_skips":     r.AbsentSkips,
		"resilience_joins":            r.Joins,
		"resilience_leaves":           r.Leaves,
		"resilience_rejoins":          r.Rejoins,
		"resilience_stale_resets":     r.StaleResets,
		"resilience_byzantine_pushes": r.ByzantinePushes,
	}
	for name, v := range want {
		if v == 0 {
			t.Errorf("%s is 0: the run is too tame to tell the views apart (%+v)", name, r)
		}
	}
	got := map[string]int64{}
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "resilience_") {
			got[name] = int64(v)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resilience views %v, Resilience() fields %v", got, want)
	}
}
