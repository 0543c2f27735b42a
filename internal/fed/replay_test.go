package fed

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

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
		{Name: "full-gmf", Rounds: 3},
		{Name: "full-prme", Rounds: 3, Config: prme},
		{Name: "shareless-gmf", Rounds: 3, Config: shareLess},
		{Name: "shareless-prme", Rounds: 3, Config: both(shareLess, prme)},
		{Name: "dpsgd-gmf", Rounds: 3, Config: dpSGD},
		{Name: "dpsgd-prme", Rounds: 3, Config: both(dpSGD, prme)},
		{Name: "sampling-dropout", Rounds: 6, Config: func(c *Config) {
			c.ClientFraction = 0.6
			c.DropoutProb = 0.2
		}},
		{Name: "faults", Rounds: 6, Config: faults},
		{Name: "churn-signflip-trimmed", Rounds: 6, Config: func(c *Config) {
			c.ChurnPlan = &churn
			c.Byzantine = &attack.Byzantine{Kind: attack.ByzSignFlip, Fraction: 0.2, Scale: 1, Seed: 9}
			c.Aggregator = AggTrimmedMean
			c.TrimFraction = 0.2
		}},
		{Name: "norm-clip", Rounds: 3, Config: func(c *Config) {
			c.Aggregator = AggNormClip
			c.ClipNorm = 0.5
		}},
		{Name: "compressed8", Rounds: 3, Comp: param.Compression{Bits: 8}},
		{Name: "compressed16", Rounds: 3, Comp: param.Compression{Bits: 16}},
		{Name: "compressed16-faults", Rounds: 4, Comp: param.Compression{Bits: 16}, Config: compressedFaults},
		{Name: "compressed16-noise-median", Rounds: 3, Comp: param.Compression{Bits: 16}, Config: func(c *Config) {
			c.Byzantine = &attack.Byzantine{Kind: attack.ByzScaledNoise, Fraction: 0.2, Scale: 2, Seed: 4}
			c.Aggregator = AggMedian
		}},
		{Name: "inactive-faults", Rounds: 3, SameAs: "full-gmf", Config: func(c *Config) {
			c.FaultPlan = &transport.FaultPlan{Seed: 99}
			c.StragglerDeadline = time.Second
			c.Quorum = 0.5
		}},
		{Name: "inactive-churn", Rounds: 3, SameAs: "full-gmf", Config: func(c *Config) {
			c.ChurnPlan = &transport.ChurnPlan{Seed: 99}
		}},
	}
}

// replayDigest is one run reduced to what the backend and the worker
// count must not change. Its fields are compared in order.
type replayDigest struct {
	Params     string // final global parameters
	Private    string // every client's private rows
	Utility    string // HR@10 (20 negatives) and F1@10 after every round
	Observed   string // round, sender and payload of every upload, in observer order
	Traffic    simcoretest.Traffic
	Resilience simcore.Counts
	// Aggregated counts the rounds whose global model moved.
	Aggregated int
}

func (dg replayDigest) Counts() simcore.Counts { return dg.Resilience }

// replay runs c on backend with the given worker count and reduces the
// run to its digest.
func replay(t *testing.T, d *dataset.Dataset, c replayCase, backend string, workers int) replayDigest {
	t.Helper()
	cfg := fedConfig(d)
	cfg.Rounds = cmp.Or(c.Rounds, cfg.Rounds)
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
	dg.Params, dg.Private, dg.Utility, dg.Observed = simcoretest.Sum(params), simcoretest.Sum(private), fmt.Sprint(utility), simcoretest.Sum(observed)
	dg.Traffic = simcoretest.TrafficOf(tr.Stats())
	dg.Resilience = s.core.Counts()
	if dg.Aggregated == 0 {
		t.Fatalf("%s never aggregates: %v", c.Name, dg.Resilience)
	}
	return dg
}

// TestReplay holds the simulator's determinism contract
// (simcoretest.Replay): each case gives one digest on inproc, wire and
// socket at workers 1 and 3, a case with SameAs gives the named case's
// digest, every case aggregates in some round, and across the cases
// every fed counter is driven above zero.
func TestReplay(t *testing.T) {
	d := fedTestDataset(t)
	simcoretest.Replay(t, simcore.Fed, replayCases(d), func(t *testing.T, c replayCase, backend string, workers int) replayDigest {
		return replay(t, d, c, backend, workers)
	})
}
