package ciarec

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func quickDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(GenerateConfig{
		Name: "facade-test", NumUsers: 80, NumItems: 200,
		NumCommunities: 4, MeanItemsPerUser: 25, Affinity: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDatasetAccessors(t *testing.T) {
	d := quickDataset(t)
	if d.NumUsers() != 80 || d.NumItems() != 200 {
		t.Fatalf("shape %d/%d", d.NumUsers(), d.NumItems())
	}
	if d.NumInteractions() == 0 {
		t.Fatal("no interactions")
	}
	items := d.TrainItems(0)
	if len(items) == 0 {
		t.Fatal("no items for user 0")
	}
	items[0] = -1 // must be a copy
	if d.TrainItems(0)[0] == -1 {
		t.Fatal("TrainItems returned live storage")
	}
	if j := d.Jaccard(0, 0); j != 1 {
		t.Fatalf("self-Jaccard %v", j)
	}
	if d.Stats() == "" {
		t.Fatal("empty stats")
	}
}

func TestPresets(t *testing.T) {
	ml := MovieLensLike(0.1, 1)
	if ml.NumUsers() == 0 {
		t.Fatal("empty movielens preset")
	}
	fs := FoursquareLike(0.05, 1)
	if fs.CategoryID(HealthCategory) != 0 {
		t.Fatal("foursquare preset lacks the health category")
	}
	if len(fs.CategoryNames()) == 0 {
		t.Fatal("foursquare preset lacks category names")
	}
	if len(fs.ItemsInCategory(0)) == 0 {
		t.Fatal("no health items")
	}
	gw := GowallaLike(0.05, 1)
	if gw.NumUsers() == 0 {
		t.Fatal("empty gowalla preset")
	}
}

func TestRunRequiresSplit(t *testing.T) {
	d := quickDataset(t)
	if _, err := Run(RunConfig{Dataset: d}); err == nil {
		t.Fatal("Run must demand an evaluation split")
	}
}

func TestRunValidation(t *testing.T) {
	d := quickDataset(t)
	d.SplitLeaveOneOut()
	cases := []RunConfig{
		{},
		{Dataset: d, Model: "nope"},
		{Dataset: d, Protocol: "nope"},
		{Dataset: d, ColluderFraction: 1.5},
		{Dataset: d, Rounds: -1},
		{Dataset: d, ClientFraction: -0.1},
		{Dataset: d, ClientFraction: 1.1},
		{Dataset: d, DropoutProb: -0.1},
		{Dataset: d, DropoutProb: 1},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestRunValidationNamesField: bad knob fields fail up front, naming
// the field, instead of at transport dial or fed.New.
func TestRunValidationNamesField(t *testing.T) {
	d := quickDataset(t)
	d.SplitLeaveOneOut()
	cases := map[string]RunConfig{
		"transport":          {Dataset: d, Transport: "carrier-pigeon"},
		"transport_addr":     {Dataset: d, TransportAddr: "/tmp/cia.sock"},
		"faults":             {Dataset: d, Faults: "drop=2"},
		"retry":              {Dataset: d, Retry: "attempts=maybe"},
		"compression":        {Dataset: d, Compression: "4bit"},
		"quorum":             {Dataset: d, Quorum: 2},
		"straggler_deadline": {Dataset: d, StragglerDeadline: -time.Second},
	}
	for field, cfg := range cases {
		_, err := Run(cfg)
		if want := fmt.Sprintf("field %q", field); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v does not name %s", field, err, want)
		}
	}
}

// TestRunDisabledFaultPlan: a fault plan that injects nothing ("seed=7")
// wraps the transport in the fault injector but reports exactly what
// the plain run does, under both protocols.
func TestRunDisabledFaultPlan(t *testing.T) {
	d := quickDataset(t)
	d.SplitLeaveOneOut()
	for _, p := range []Protocol{Federated, RandGossip} {
		cfg := RunConfig{Dataset: d, Protocol: p, Rounds: 3, TrackUtility: true, Seed: 4}
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = "seed=7"
		faulty, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, faulty) {
			t.Fatalf("%s: disabled fault plan changed the report:\n  plain  %+v\n  faulty %+v", p, plain, faulty)
		}
	}
}

func TestRunFederatedEndToEnd(t *testing.T) {
	d := quickDataset(t)
	d.SplitLeaveOneOut()
	report, err := Run(RunConfig{
		Dataset:      d,
		Rounds:       10,
		TrackUtility: true,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.MaxAAC < 2*report.RandomBound {
		t.Fatalf("attack not above random: %.3f vs %.3f", report.MaxAAC, report.RandomBound)
	}
	if report.UpperBound != 1 {
		t.Fatalf("FL upper bound %v", report.UpperBound)
	}
	if len(report.AACSeries) != 10 {
		t.Fatalf("series length %d", len(report.AACSeries))
	}
	if report.BestUtility() <= 0 {
		t.Fatal("utility not tracked")
	}
	if report.LeakageFactor() < 2 {
		t.Fatalf("leakage factor %.2f", report.LeakageFactor())
	}
}

func TestRunGossipWithDefense(t *testing.T) {
	d := quickDataset(t)
	d.SplitLeaveOneOut()
	report, err := Run(RunConfig{
		Dataset:  d,
		Protocol: RandGossip,
		Defense:  ShareLess(5),
		Rounds:   20,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.UpperBound >= 1 {
		t.Fatal("gossip upper bound should reflect partial observation")
	}
	if report.MaxAAC < 0 || report.MaxAAC > 1 {
		t.Fatalf("MaxAAC out of range: %v", report.MaxAAC)
	}
}

func TestDefenseConstructors(t *testing.T) {
	if NoDefense().Name() != "full" {
		t.Fatal("NoDefense name")
	}
	if ShareLess(0.5).Name() != "share-less" {
		t.Fatal("ShareLess name")
	}
	if DPSGD(2, 0.1).Name() != "dp-sgd" {
		t.Fatal("DPSGD name")
	}
	noNoise := DPSGDWithEpsilon(2, math.Inf(1), 1e-6, 10)
	if noNoise.noise != 0 {
		t.Fatal("infinite epsilon should calibrate zero noise")
	}
	tight := DPSGDWithEpsilon(2, 1, 1e-6, 10)
	if tight.noise <= 0 {
		t.Fatal("epsilon=1 should calibrate positive noise")
	}
}

func TestRunTargetedFindsPlantedCommunity(t *testing.T) {
	fs := FoursquareLike(0.08, 4)
	fs.SplitLeaveOneOut()
	health := fs.ItemsInCategory(fs.CategoryID(HealthCategory))
	if len(health) == 0 {
		t.Fatal("no health items")
	}
	target := health
	if len(target) > 40 {
		target = target[:40]
	}
	members, err := RunTargeted(TargetedConfig{
		Dataset:       fs,
		Target:        target,
		CommunitySize: 3,
		Rounds:        12,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("got %d members", len(members))
	}
	hc := fs.CategoryID(HealthCategory)
	var share float64
	for _, u := range members {
		share += fs.CategoryShare(u, hc)
	}
	share /= 3
	if share < 3*fs.GlobalCategoryShare(hc) {
		t.Fatalf("inferred members not health-focused: %.3f vs %.3f",
			share, fs.GlobalCategoryShare(hc))
	}
}

func TestRunTargetedValidation(t *testing.T) {
	d := quickDataset(t)
	d.SplitLeaveOneOut()
	if _, err := RunTargeted(TargetedConfig{Dataset: d, Target: []int{1}}); err == nil {
		t.Fatal("missing CommunitySize should fail")
	}
	if _, err := RunTargeted(TargetedConfig{Dataset: d, CommunitySize: 3}); err == nil {
		t.Fatal("missing Target should fail")
	}
}

func TestRunUniversalityFacade(t *testing.T) {
	report, err := RunUniversality(UniversalityConfig{
		Clients: 30, Classes: 5, Dim: 16, SamplesPerClient: 20,
		Rounds: 15, HiddenUnits: 32, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.CIAAccuracy < 0.9 {
		t.Fatalf("universality CIA %.3f", report.CIAAccuracy)
	}
	if report.RandomBound != 0.2 {
		t.Fatalf("random bound %v", report.RandomBound)
	}
}
