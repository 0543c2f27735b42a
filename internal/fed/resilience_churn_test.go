package fed

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// churnTestPlan is lively enough to exercise leave, join and rejoin
// within a short run on the 30-user test dataset.
func churnTestPlan() transport.ChurnPlan {
	return transport.ChurnPlan{Seed: 5, InitialFraction: 0.8, LeaveProb: 0.25, JoinProb: 0.5, StaleBound: 2}
}

// TestResilienceChurnReplayPredictsCounters replays the pure
// membership fold outside the simulator and demands the simulator's
// counters match the prediction exactly.
func TestResilienceChurnReplayPredictsCounters(t *testing.T) {
	d := fedTestDataset(t)
	plan := churnTestPlan()
	cfg := fedConfig(d)
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
	if r.Rejoins == 0 {
		t.Fatal("scenario produced no rejoins; nothing was tested")
	}
}

// robustTestSim builds a tiny simulation for direct aggregation tests.
func robustTestSim(t *testing.T, cfg func(*Config)) *Simulation {
	t.Helper()
	d := fedTestDataset(t)
	c := fedConfig(d)
	cfg(&c)
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// robustTestUploads builds deterministic pseudo-random full-model
// uploads for n clients.
func robustTestUploads(s *Simulation, n int) []upload {
	uploads := make([]upload, 0, n)
	for u := 0; u < n; u++ {
		p := s.global.Params().Clone()
		rng := mathx.NewStreamRand(1234, uint64(u))
		p.AddNoise(rng.NormFloat64, 0.5)
		uploads = append(uploads, upload{from: u, payload: p})
	}
	return uploads
}

// TestResiliencePermutationInvariantAggregators: coordinate-wise
// median and trimmed mean are order statistics — permuting the uploads
// must not change a single bit of the result.
func TestResiliencePermutationInvariantAggregators(t *testing.T) {
	for _, agg := range []Aggregator{AggMedian, AggTrimmedMean} {
		t.Run(agg.String(), func(t *testing.T) {
			run := func(perm []int) *param.Set {
				s := robustTestSim(t, func(c *Config) {
					c.Aggregator = agg
					c.TrimFraction = 0.25
				})
				uploads := robustTestUploads(s, 7)
				permuted := make([]upload, len(uploads))
				for i, j := range perm {
					permuted[i] = uploads[j]
				}
				s.aggregateRobust(permuted)
				return s.global.Params().Clone()
			}
			ref := run([]int{0, 1, 2, 3, 4, 5, 6})
			got := run([]int{6, 2, 0, 5, 1, 4, 3})
			if !param.Equal(ref, got, 0) {
				t.Fatal("permuting uploads changed the robust aggregate")
			}
		})
	}
}

// TestResilienceMedianIgnoresOutlier: a single wildly-scaled adversary
// cannot move the coordinate-wise median beyond the honest value range
// — whereas it drags the FedAvg mean arbitrarily.
func TestResilienceMedianIgnoresOutlier(t *testing.T) {
	build := func(agg Aggregator) (*Simulation, []upload) {
		s := robustTestSim(t, func(c *Config) { c.Aggregator = agg })
		uploads := robustTestUploads(s, 5)
		// Upload 0 becomes a scaled adversary.
		uploads[0].payload.Scale(1e6)
		return s, uploads
	}
	s, uploads := build(AggMedian)
	honest := s.global.Params().Clone()
	s.aggregateRobust(uploads)
	// Every non-private coordinate of the median must be bounded by the
	// honest uploads' value range (noise 0.5 around the global), far
	// below the 1e6-scaled outlier.
	gp := s.global.Params()
	for ei := 0; ei < gp.Len(); ei++ {
		ge := gp.At(ei)
		if _, private := s.privateSet[ge.Name]; private {
			continue
		}
		for i, v := range ge.Data {
			if math.Abs(v) > math.Abs(honest.At(ei).Data[i])+10 {
				t.Fatalf("median moved %s[%d] to %g — outlier leaked through", ge.Name, i, v)
			}
		}
	}

	sAvg, uploadsAvg := build(AggFedAvg)
	foldUploads(sAvg, uploadsAvg)
	if param.Equal(sAvg.global.Params(), s.global.Params(), 0) {
		t.Fatal("FedAvg and median agreed under a scaled outlier; the outlier did nothing")
	}
}

// TestResilienceNormClipBound: after clipping, a lone oversized upload
// moves the shared entries by at most ClipNorm.
func TestResilienceNormClipBound(t *testing.T) {
	const clip = 0.5
	s := robustTestSim(t, func(c *Config) {
		c.Aggregator = AggNormClip
		c.ClipNorm = clip
	})
	before := s.global.Params().Clone()
	p := s.global.Params().Clone()
	rng := mathx.NewStreamRand(77)
	p.AddNoise(rng.NormFloat64, 50) // enormous delta, must be clipped
	foldUploads(s, []upload{{from: 0, payload: p}})

	var sq float64
	gp := s.global.Params()
	for ei := 0; ei < gp.Len(); ei++ {
		ge := gp.At(ei)
		if _, private := s.privateSet[ge.Name]; private {
			continue
		}
		sq += mathx.SqDist(ge.Data, before.At(ei).Data)
	}
	if moved := math.Sqrt(sq); moved > clip*(1+1e-9) {
		t.Fatalf("global moved %g, clip bound is %g", moved, clip)
	}
	if r := s.Resilience(); r.ClippedUploads != 1 {
		t.Fatalf("ClippedUploads = %d, want 1", r.ClippedUploads)
	}
	// A small delta passes through unscaled.
	s2 := robustTestSim(t, func(c *Config) {
		c.Aggregator = AggNormClip
		c.ClipNorm = 1e9
	})
	small := s2.global.Params().Clone()
	rng2 := mathx.NewStreamRand(78)
	small.AddNoise(rng2.NormFloat64, 0.01)
	foldUploads(s2, []upload{{from: 0, payload: small}})
	if r := s2.Resilience(); r.ClippedUploads != 0 {
		t.Fatalf("ClippedUploads = %d for an in-bound upload, want 0", r.ClippedUploads)
	}
}

// TestResilienceAggregatorValidation covers the new Config checks.
func TestResilienceAggregatorValidation(t *testing.T) {
	d := fedTestDataset(t)
	bad := []func(*Config){
		func(c *Config) { c.Aggregator = Aggregator(42) },
		func(c *Config) { c.TrimFraction = 0.5 },
		func(c *Config) { c.TrimFraction = -0.1 },
		func(c *Config) { c.Aggregator = AggNormClip }, // missing ClipNorm
		func(c *Config) { c.ChurnPlan = &transport.ChurnPlan{LeaveProb: 2} },
		func(c *Config) { c.Byzantine = &attack.Byzantine{Fraction: -1} },
		func(c *Config) { c.FaultPlan = &transport.FaultPlan{DropProb: 1.5} },
	}
	for i, mutate := range bad {
		cfg := fedConfig(d)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if _, err := ParseAggregator("nonsense"); err == nil {
		t.Error("ParseAggregator should reject unknown names")
	}
	for _, a := range []Aggregator{AggFedAvg, AggMedian, AggTrimmedMean, AggNormClip} {
		got, err := ParseAggregator(a.String())
		if err != nil || got != a {
			t.Errorf("aggregator round trip %v: got %v, %v", a, got, err)
		}
	}
}

// TestResilienceMetricViews holds the registry's resilience_* views to
// the Resilience() accounting they read: after a run with churn,
// Byzantine uploads, norm clipping and every fault family, there is
// one view per field and each equals its field.
func TestResilienceMetricViews(t *testing.T) {
	d := fedTestDataset(t)
	churn := churnTestPlan()
	byz := attack.Byzantine{Kind: attack.ByzSignFlip, Fraction: 0.2, Seed: 9}
	plan := transport.FaultPlan{
		Seed: 3, DropProb: 0.1, SendLossProb: 0.1, DeliverLossProb: 0.1, BroadcastFailProb: 0.15,
		SlowProb: 0.3, SlowLatency: 500 * time.Millisecond,
	}
	cfg := fedConfig(d)
	cfg.Rounds = 10
	cfg.Transport = faultyTransport(t, "inproc", plan)
	cfg.FaultPlan = &plan
	cfg.StragglerDeadline = 100 * time.Millisecond
	cfg.Quorum = 0.6
	cfg.ChurnPlan = &churn
	cfg.Byzantine = &byz
	cfg.Aggregator = AggNormClip
	cfg.ClipNorm = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	s.Run()

	r := s.Resilience()
	want := map[string]int64{
		"resilience_blackouts":         r.BlackoutRounds,
		"resilience_deliver_failures":  r.DeliverFailures,
		"resilience_upload_failures":   r.UploadFailures,
		"resilience_stragglers":        r.Stragglers,
		"resilience_quorum_misses":     r.QuorumMisses,
		"resilience_joins":             r.Joins,
		"resilience_leaves":            r.Leaves,
		"resilience_rejoins":           r.Rejoins,
		"resilience_byzantine_uploads": r.ByzantineUploads,
		"resilience_clipped_uploads":   r.ClippedUploads,
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
