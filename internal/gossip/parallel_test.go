package gossip

import (
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// finalParams runs a fresh simulation from cfg with the given worker
// count on an inproc transport (behind cfg.FaultPlan's fault injector
// when set) and returns the transport and every node's final parameter
// set.
func finalParams(t *testing.T, cfg Config, workers int) (transport.Transport, []*param.Set) {
	t.Helper()
	cfg.Workers = workers
	tr, err := transport.NewOptions("inproc", transport.Options{Plan: cfg.FaultPlan})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	out := make([]*param.Set, len(s.nodes))
	for u := range s.nodes {
		out[u] = s.nodes[u].m.Params().Clone()
	}
	return tr, out
}

// Workers=1 and Workers=N must produce byte-identical node models
// across variants, defenses and failure injection: every node owns its
// RNG stream and delivery happens sequentially between the parallel
// phases.
func TestSerialParallelEquivalence(t *testing.T) {
	d := gossipTestDataset(t)
	cases := map[string]func(*Config){
		"rand-gossip":  func(c *Config) {},
		"pers-gossip":  func(c *Config) { c.Variant = PersGossip },
		"share-less":   func(c *Config) { c.Policy = defense.ShareLess{Tau: 1} },
		"dp-sgd":       func(c *Config) { c.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05} },
		"lossy-sparse": func(c *Config) { c.FaultPlan = &transport.FaultPlan{Seed: 1, SendLossProb: 0.2}; c.WakeProb = 0.5 },
		// NeuMF scores its forward pass through model-owned scratch;
		// with Pers-Gossip this exercises the cross-node Relevance
		// calls of view refresh, which must not run concurrently.
		"pers-neumf": func(c *Config) {
			c.Variant = PersGossip
			c.Factory = model.NewNeuMFFactory(c.Dataset.NumUsers, c.Dataset.NumItems, 8)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := gossipConfig(d)
			mutate(&cfg)
			serialTr, serial := finalParams(t, cfg, 1)
			parallelTr, parallel := finalParams(t, cfg, 4)
			for u := range serial {
				if !param.Equal(serial[u], parallel[u], 0) {
					t.Fatalf("node %d params differ between Workers=1 and Workers=4", u)
				}
			}
			if serialTr.Stats() != parallelTr.Stats() {
				t.Fatalf("traffic differs: %+v vs %+v", serialTr.Stats(), parallelTr.Stats())
			}
		})
	}
}

// The adversary's observation stream (sender, receiver, payload) must
// not depend on the worker count.
func TestParallelObserverSequence(t *testing.T) {
	d := gossipTestDataset(t)
	type seen struct {
		round, from, to int
		norm            float64
	}
	record := func(workers int) []seen {
		var log []seen
		cfg := gossipConfig(d)
		cfg.Workers = workers
		cfg.Observer = observerFunc2(func(msg Message) {
			log = append(log, seen{msg.Round, msg.From, msg.To, msg.Params.L2Norm()})
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

// Re-running the same seeded configuration must reproduce identical
// models — covers the deterministic candidate ordering in persView
// (map iteration order must not leak into peer selection).
func TestPersGossipReproducible(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Variant = PersGossip
	cfg.Rounds = 8
	_, a := finalParams(t, cfg, 2)
	_, b := finalParams(t, cfg, 2)
	for u := range a {
		if !param.Equal(a[u], b[u], 0) {
			t.Fatalf("node %d params differ across identical runs", u)
		}
	}
}

// keepingObserver holds on to every payload of a round, with a
// snapshot taken on receipt, and checks in OnRoundEnd that none
// changed. It is unsynchronized on purpose: under -race, OnReceive
// calls from more than one goroutine, or overlapping OnRoundEnd, fail.
type keepingObserver struct {
	t     *testing.T
	round int
	kept  []Message
	snaps []*param.Set
	count int
}

func (o *keepingObserver) OnReceive(msg Message) {
	if msg.Round != o.round {
		o.t.Errorf("message of round %d delivered in round %d", msg.Round, o.round)
	}
	if n := len(o.kept); n > 0 && o.kept[n-1].From >= msg.From {
		o.t.Errorf("round %d: sender %d observed after %d", o.round, msg.From, o.kept[n-1].From)
	}
	o.kept = append(o.kept, msg)
	o.snaps = append(o.snaps, msg.Params.Clone())
}

func (o *keepingObserver) OnRoundEnd(round int) {
	for i, msg := range o.kept {
		if !param.Equal(msg.Params, o.snaps[i], 0) {
			o.t.Errorf("round %d: payload %d→%d changed before OnRoundEnd", round, msg.From, msg.To)
		}
	}
	o.count += len(o.kept)
	o.kept, o.snaps = o.kept[:0], o.snaps[:0]
	o.round++
}

// Payloads handed to OnReceive stay valid, unchanged, until OnRoundEnd,
// while the nodes aggregate and train alongside the observer.
func TestObserverPayloadsLiveUntilRoundEnd(t *testing.T) {
	d := gossipTestDataset(t)
	for _, backend := range []string{"inproc", "wire"} {
		for name, policy := range map[string]defense.Policy{
			"full":       defense.FullSharing{},
			"share-less": defense.ShareLess{Tau: 1},
		} {
			t.Run(backend+"/"+name, func(t *testing.T) {
				tr, err := transport.New(backend)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				obs := &keepingObserver{t: t}
				cfg := gossipConfig(d)
				cfg.Policy = policy
				cfg.Workers = 4
				cfg.Transport = tr
				cfg.Observer = obs
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				if obs.round != cfg.Rounds || obs.count != cfg.Rounds*d.NumUsers {
					t.Fatalf("saw %d rounds and %d messages, want %d and %d",
						obs.round, obs.count, cfg.Rounds, cfg.Rounds*d.NumUsers)
				}
			})
		}
	}
}
