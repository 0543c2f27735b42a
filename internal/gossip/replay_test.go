package gossip

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// replayCase is one configuration the replay harness runs on every
// backend at every worker count.
type replayCase struct {
	name   string
	config func(*Config) // applied on top of gossipConfig
	comp   param.Compression
	// sameAs names an earlier case whose digest this one must equal.
	sameAs string
}

// replayCases is the union of the configurations whose replay must not
// depend on the transport backend or the worker count. Every case runs
// 4 rounds unless its config says otherwise.
func replayCases(d *dataset.Dataset) []replayCase {
	churn := churnTestPlan()
	return []replayCase{
		{name: "rand"},
		{name: "pers", config: func(c *Config) { c.Variant = PersGossip }},
		{name: "shareless", config: func(c *Config) { c.Policy = defense.ShareLess{Tau: 1} }},
		{name: "dpsgd", config: func(c *Config) { c.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05} }},
		{name: "lossy-sparse", config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 1, SendLossProb: 0.2}
			c.WakeProb = 0.5
		}},
		{name: "prme", config: func(c *Config) { c.Factory = model.NewPRMEFactory(d.NumUsers, d.NumItems, 8) }},
		// NeuMF scores its forward pass through model-owned scratch;
		// with Pers-Gossip this exercises the cross-node Relevance
		// calls of view refresh, which must not run concurrently.
		{name: "pers-neumf", config: func(c *Config) {
			c.Variant = PersGossip
			c.Factory = model.NewNeuMFFactory(d.NumUsers, d.NumItems, 8)
		}},
		{name: "faults", config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 3, DropProb: 0.15, SendLossProb: 0.15}
		}},
		{name: "churn-collude", config: func(c *Config) {
			c.Rounds = 10
			c.ChurnPlan = &churn
			c.Byzantine = &attack.Byzantine{Kind: attack.ByzCollude, Fraction: 0.2, Seed: 9}
		}},
		{name: "compressed8", comp: param.Compression{Bits: 8}},
		{name: "inactive-faults", sameAs: "rand", config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 99}
		}},
		{name: "inactive-churn", sameAs: "rand", config: func(c *Config) {
			c.ChurnPlan = &transport.ChurnPlan{Seed: 99}
		}},
	}
}

// traffic is the backend-independent share of transport.Stats.
type traffic struct {
	Messages, Bytes, RawBytes                            int64
	BroadcastMessages, BroadcastBytes, RawBroadcastBytes int64
	InjectedFaults                                       int64
}

// replayDigest is one run reduced to what the backend and the worker
// count must not change. Its fields are compared in order.
type replayDigest struct {
	Nodes      string // every node's final parameters
	Utility    string // HR@10 (20 negatives) and F1@10 after every round
	Observed   string // round, sender, receiver and payload of every push, in observer order
	Traffic    traffic
	Resilience Resilience
}

// firstDiff names the first component in which dg departs from ref
// and the two values, or returns "" when they are equal.
func (dg replayDigest) firstDiff(ref replayDigest) string {
	got, want := reflect.ValueOf(dg), reflect.ValueOf(ref)
	for i := 0; i < got.NumField(); i++ {
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); g != w {
			return fmt.Sprintf("%s = %+v, want %+v", got.Type().Field(i).Name, g, w)
		}
	}
	return ""
}

func sum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

// replay runs c on backend with the given worker count and reduces the
// run to its digest.
func replay(t *testing.T, d *dataset.Dataset, c replayCase, backend string, workers int) replayDigest {
	t.Helper()
	cfg := gossipConfig(d)
	cfg.Rounds = 4
	if c.config != nil {
		c.config(&cfg)
	}
	cfg.Workers = workers
	tr, err := transport.NewOptions(backend, transport.Options{Compression: c.comp, Plan: cfg.FaultPlan})
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
	st := tr.Stats()
	return replayDigest{
		Nodes:    sum(nodes),
		Utility:  fmt.Sprint(utility),
		Observed: sum(observed),
		Traffic: traffic{
			st.Messages, st.Bytes, st.RawBytes,
			st.BroadcastMessages, st.BroadcastBytes, st.RawBroadcastBytes,
			st.InjectedFaults,
		},
		Resilience: s.Resilience(),
	}
}

// TestReplay holds the simulator's determinism contract: each case
// gives one digest on inproc, wire and socket at workers 1 and 3, and
// a case with sameAs gives the named case's digest. Across the cases,
// every Resilience counter is driven above zero.
// Each replay compared with the inproc, workers-1 reference is a
// subtest of its case (inproc/workers=3, ..., socket/workers=3), so one
// departing backend does not hide another.
func TestReplay(t *testing.T) {
	d := gossipTestDataset(t)
	cases := replayCases(d)
	digests := map[string]replayDigest{}
	var exercised Resilience
	ran := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			ref := replay(t, d, c, "inproc", 1)
			for _, backend := range []string{"inproc", "wire", "socket"} {
				for _, workers := range []int{1, 3} {
					if backend == "inproc" && workers == 1 {
						continue
					}
					t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
						if diff := replay(t, d, c, backend, workers).firstDiff(ref); diff != "" {
							t.Fatalf("%s on %s at workers %d departs from inproc at workers 1: %s", c.name, backend, workers, diff)
						}
					})
				}
			}
			if c.sameAs != "" {
				want, ok := digests[c.sameAs]
				if !ok { // the named case was filtered out by -run
					i := slices.IndexFunc(cases, func(o replayCase) bool { return o.name == c.sameAs })
					if i < 0 {
						t.Fatalf("%s: sameAs names no case %q", c.name, c.sameAs)
					}
					want = replay(t, d, cases[i], "inproc", 1)
				}
				if diff := ref.firstDiff(want); diff != "" {
					t.Fatalf("%s departs from %s: %s", c.name, c.sameAs, diff)
				}
			}
			digests[c.name] = ref
			got, seen := reflect.ValueOf(ref.Resilience), reflect.ValueOf(&exercised).Elem()
			for i := 0; i < got.NumField(); i++ {
				seen.Field(i).SetInt(seen.Field(i).Int() + got.Field(i).Int())
			}
		})
	}
	if ran < len(cases) {
		return // -run selected some cases only
	}
	seen := reflect.ValueOf(exercised)
	for i := 0; i < seen.NumField(); i++ {
		if seen.Field(i).Int() == 0 {
			t.Errorf("no case drives Resilience.%s above zero", seen.Type().Field(i).Name)
		}
	}
}
