package fed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"testing"
	"time"

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
	rounds int
	config func(*Config) // applied on top of fedConfig
	comp   param.Compression
	// sameAs names an earlier case whose digest this one must equal.
	sameAs string
}

// replayCases is the union of the configurations whose replay must not
// depend on the transport backend or the worker count.
func replayCases(d *dataset.Dataset) []replayCase {
	prme := func(c *Config) { c.Factory = model.NewPRMEFactory(d.NumUsers, d.NumItems, 8) }
	shareLess := func(c *Config) { c.Policy = defense.ShareLess{Tau: 1} }
	dpSGD := func(c *Config) { c.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05} }
	both := func(a, b func(*Config)) func(*Config) { return func(c *Config) { a(c); b(c) } }
	// Every fault family with a straggler deadline and a quorum that
	// blackout and quorum misses leave some rounds to aggregate.
	faults := func(c *Config) {
		c.FaultPlan = &transport.FaultPlan{
			Seed: 3, DropProb: 0.1, SendLossProb: 0.1, DeliverLossProb: 0.1, BroadcastFailProb: 0.25,
			SlowProb: 0.3, SlowLatency: 500 * time.Millisecond,
		}
		c.StragglerDeadline = 100 * time.Millisecond
		c.Quorum = 0.6
	}
	compressedFaults := func(c *Config) {
		c.FaultPlan = &transport.FaultPlan{
			Seed: 9, DropProb: 0.1, SendLossProb: 0.1, DeliverLossProb: 0.1,
			SlowProb: 0.3, SlowLatency: 100 * time.Millisecond,
		}
		c.StragglerDeadline = 50 * time.Millisecond
		c.Quorum = 0.4
	}
	churn := churnTestPlan()
	return []replayCase{
		{name: "full-gmf", rounds: 3},
		{name: "full-prme", rounds: 3, config: prme},
		{name: "shareless-gmf", rounds: 3, config: shareLess},
		{name: "shareless-prme", rounds: 3, config: both(shareLess, prme)},
		{name: "dpsgd-gmf", rounds: 3, config: dpSGD},
		{name: "dpsgd-prme", rounds: 3, config: both(dpSGD, prme)},
		{name: "sampling-dropout", rounds: 6, config: func(c *Config) {
			c.ClientFraction = 0.6
			c.DropoutProb = 0.2
		}},
		{name: "faults", rounds: 6, config: faults},
		{name: "churn-signflip-trimmed", rounds: 6, config: func(c *Config) {
			c.ChurnPlan = &churn
			c.Byzantine = &attack.Byzantine{Kind: attack.ByzSignFlip, Fraction: 0.2, Scale: 1, Seed: 9}
			c.Aggregator = AggTrimmedMean
			c.TrimFraction = 0.2
		}},
		{name: "norm-clip", rounds: 3, config: func(c *Config) {
			c.Aggregator = AggNormClip
			c.ClipNorm = 0.5
		}},
		{name: "compressed8", rounds: 3, comp: param.Compression{Bits: 8}},
		{name: "compressed16", rounds: 3, comp: param.Compression{Bits: 16}},
		{name: "compressed16-faults", rounds: 4, comp: param.Compression{Bits: 16}, config: compressedFaults},
		{name: "compressed16-noise-median", rounds: 3, comp: param.Compression{Bits: 16}, config: func(c *Config) {
			c.Byzantine = &attack.Byzantine{Kind: attack.ByzScaledNoise, Fraction: 0.2, Scale: 2, Seed: 4}
			c.Aggregator = AggMedian
		}},
		{name: "inactive-faults", rounds: 3, sameAs: "full-gmf", config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 99}
			c.StragglerDeadline = time.Second
			c.Quorum = 0.5
		}},
		{name: "inactive-churn", rounds: 3, sameAs: "full-gmf", config: func(c *Config) {
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
	Params     string // final global parameters
	Private    string // every client's private rows
	Utility    string // HR@10 (20 negatives) and F1@10 after every round
	Observed   string // round, sender and payload of every upload, in observer order
	Traffic    traffic
	Resilience Resilience
	// Aggregated counts the rounds whose global model moved.
	Aggregated int
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
	cfg := fedConfig(d)
	cfg.Rounds = c.rounds
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
	var dg replayDigest
	// The digests drop Write errors: a hash.Hash never returns one.
	observed := sha256.New()
	cfg.Observer = observerFunc(func(msg Message) {
		binary.Write(observed, binary.LittleEndian, [2]int64{int64(msg.Round), int64(msg.From)})
		msg.Params.WriteTo(observed)
	})
	var utility []float64
	var prev *param.Set
	cfg.OnRound = func(round int, s *Simulation) {
		utility = append(utility, s.UtilityHR(10, 20), s.UtilityF1(10))
		if !param.Equal(prev, s.Global().Params(), 0) {
			dg.Aggregated++
		}
		prev = s.Global().Params().CloneInto(prev)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev = s.Global().Params().Clone()
	s.Run()

	params, private := sha256.New(), sha256.New()
	s.Global().Params().WriteTo(params)
	for _, st := range s.clients {
		for _, name := range s.privateEntries {
			row := st.privateRows[name]
			binary.Write(private, binary.LittleEndian, int64(len(row)))
			binary.Write(private, binary.LittleEndian, row)
		}
	}
	st := tr.Stats()
	dg.Params, dg.Private, dg.Utility, dg.Observed = sum(params), sum(private), fmt.Sprint(utility), sum(observed)
	dg.Traffic = traffic{
		st.Messages, st.Bytes, st.RawBytes,
		st.BroadcastMessages, st.BroadcastBytes, st.RawBroadcastBytes,
		st.InjectedFaults,
	}
	dg.Resilience = s.Resilience()
	return dg
}

// TestReplay holds the simulator's determinism contract: each case
// gives one digest on inproc, wire and socket at workers 1 and 3, a
// case with sameAs gives the named case's digest, and every case
// aggregates in some round. Across the cases, every Resilience
// counter is driven above zero.
// Each replay compared with the inproc, workers-1 reference is a
// subtest of its case (inproc/workers=3, ..., socket/workers=3), so one
// departing backend does not hide another.
func TestReplay(t *testing.T) {
	d := fedTestDataset(t)
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
			if ref.Aggregated == 0 {
				t.Fatalf("%s never aggregates: %+v", c.name, ref.Resilience)
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
