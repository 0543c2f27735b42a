package gossip

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/simcore"
	"github.com/collablearn/ciarec/internal/simcore/simcoretest"
	"github.com/collablearn/ciarec/internal/transport"
)

type replayCase = simcoretest.Case[Config]

// replayCases is the union of the configurations whose replay must not
// depend on the transport backend or the worker count. Every case runs
// 4 rounds unless its Rounds says otherwise.
func replayCases(d *dataset.Dataset) []replayCase {
	churn := churnTestPlan()
	return []replayCase{
		{Name: "rand"},
		{Name: "pers", Config: func(c *Config) { c.Variant = PersGossip }},
		{Name: "shareless", Config: func(c *Config) { c.Policy = defense.ShareLess{Tau: 1} }},
		{Name: "dpsgd", Config: func(c *Config) { c.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05} }},
		{Name: "lossy-sparse", Config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 1, SendLossProb: 0.2}
			c.WakeProb = 0.5
		}},
		{Name: "prme", Config: func(c *Config) { c.Factory = model.NewPRMEFactory(d.NumUsers, d.NumItems, 8) }},
		// NeuMF scores its forward pass through model-owned scratch;
		// with Pers-Gossip this exercises the cross-node Relevance
		// calls of view refresh, which must not run concurrently.
		{Name: "pers-neumf", Config: func(c *Config) {
			c.Variant = PersGossip
			c.Factory = model.NewNeuMFFactory(d.NumUsers, d.NumItems, 8)
		}},
		{Name: "faults", Config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 3, DropProb: 0.15, SendLossProb: 0.15}
		}},
		{Name: "churn-collude", Rounds: 10, Config: func(c *Config) {
			c.ChurnPlan = &churn
			c.Byzantine = &attack.Byzantine{Kind: attack.ByzCollude, Fraction: 0.2, Seed: 9}
		}},
		{Name: "compressed8", Comp: param.Compression{Bits: 8}},
		{Name: "inactive-faults", SameAs: "rand", Config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 99}
		}},
		{Name: "inactive-churn", SameAs: "rand", Config: func(c *Config) {
			c.ChurnPlan = &transport.ChurnPlan{Seed: 99}
		}},
	}
}

// replayDigest is one run reduced to what the backend and the worker
// count must not change. Its fields are compared in order.
type replayDigest struct {
	Nodes      string // every node's final parameters
	Utility    string // HR@10 (20 negatives) and F1@10 after every round
	Observed   string // round, sender, receiver and payload of every push, in observer order
	Traffic    simcoretest.Traffic
	Resilience simcore.Counts
}

func (dg replayDigest) Counts() simcore.Counts { return dg.Resilience }

// replay runs c on backend with the given worker count and reduces the
// run to its digest.
func replay(t *testing.T, d *dataset.Dataset, c replayCase, backend string, workers int) replayDigest {
	t.Helper()
	cfg := gossipConfig(d)
	cfg.Rounds = cmp.Or(c.Rounds, 4)
	if c.Config != nil {
		c.Config(&cfg)
	}
	cfg.Workers = workers
	tr, err := transport.NewOptions(backend, transport.Options{Compression: c.Comp, Plan: cfg.FaultPlan})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg.Transport = tr
	// The digests drop Write errors: a hash.Hash never returns one.
	observed := sha256.New()
	cfg.Observer = observerFunc2(func(msg Message) {
		binary.Write(observed, binary.LittleEndian, [3]int64{int64(msg.Round), int64(msg.From), int64(msg.To)})
		msg.Params.WriteTo(observed)
	})
	var utility []float64
	cfg.OnRound = func(round int, s *Simulation) {
		utility = append(utility, s.UtilityHR(10, 20), s.UtilityF1(10))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()

	nodes := sha256.New()
	for u := range s.nodes {
		s.nodes[u].m.Params().WriteTo(nodes)
	}
	return replayDigest{
		Nodes:      simcoretest.Sum(nodes),
		Utility:    fmt.Sprint(utility),
		Observed:   simcoretest.Sum(observed),
		Traffic:    simcoretest.TrafficOf(tr.Stats()),
		Resilience: s.core.Counts(),
	}
}

// TestReplay holds the simulator's determinism contract
// (simcoretest.Replay): each case gives one digest on inproc, wire and
// socket at workers 1 and 3, a case with SameAs gives the named case's
// digest, and across the cases every gossip counter is driven above
// zero.
func TestReplay(t *testing.T) {
	d := gossipTestDataset(t)
	simcoretest.Replay(t, simcore.Gossip, replayCases(d), func(t *testing.T, c replayCase, backend string, workers int) replayDigest {
		return replay(t, d, c, backend, workers)
	})
}
