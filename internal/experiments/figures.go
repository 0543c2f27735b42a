package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
)

// TradeoffPoint is one bar group of Figures 3 and 4: a protocol ×
// policy cell with its privacy (Max AAC) and utility values.
type TradeoffPoint struct {
	Dataset  string
	Protocol string // "FL" | "rand-gossip" | "pers-gossip"
	Policy   string // "full" | "share-less"
	MaxAAC   float64
	Utility  float64 // HR@K (Fig 3) or F1@K (Fig 4)
	Random   float64
}

// RunFigure3 reproduces Figure 3: the attack-accuracy / HR@K trade-off
// of full sharing vs Share-less on GMF, for FL, Rand-Gossip and
// Pers-Gossip across the three datasets.
func RunFigure3(spec Spec) ([]TradeoffPoint, error) {
	return runTradeoff(spec, "gmf", DatasetNames())
}

// RunFigure4 reproduces Figure 4: the same trade-off on PRME with the
// F1 score, for the two POI datasets.
func RunFigure4(spec Spec) ([]TradeoffPoint, error) {
	return runTradeoff(spec, "prme", []string{"foursquare", "gowalla"})
}

func runTradeoff(spec Spec, family string, datasets []string) ([]TradeoffPoint, error) {
	util := utilityFor(family)
	policies := []defense.Policy{defense.FullSharing{}, defense.ShareLess{Tau: DefaultShareLessTau}}
	var points []TradeoffPoint
	for _, ds := range datasets {
		for _, pol := range policies {
			d, err := MakeDataset(ds, spec)
			if err != nil {
				return nil, err
			}
			SplitFor(family, d)

			fl, err := RunFLCIA(FLOpts{Data: d, Family: family, Spec: spec, Policy: pol, Utility: util})
			if err != nil {
				return nil, err
			}
			points = append(points, TradeoffPoint{
				Dataset: ds, Protocol: "FL", Policy: pol.Name(),
				MaxAAC: fl.Attack.MaxAAC, Utility: fl.BestUtility(), Random: fl.Attack.RandomBound,
			})
			for _, variant := range []gossip.Variant{gossip.RandGossip, gossip.PersGossip} {
				gl, err := RunGLCIA(GLOpts{Data: d, Family: family, Spec: spec, Policy: pol,
					Variant: variant, Utility: util})
				if err != nil {
					return nil, err
				}
				points = append(points, TradeoffPoint{
					Dataset: ds, Protocol: variant.String(), Policy: pol.Name(),
					MaxAAC: gl.Attack.MaxAAC, Utility: gl.BestUtility(), Random: gl.Attack.RandomBound,
				})
			}
		}
	}
	return points, nil
}

// RenderTradeoff formats trade-off points grouped by dataset, one
// protocol × policy per line, mirroring the figures' bar groups.
func RenderTradeoff(title, utilityName string, points []TradeoffPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Dataset != points[j].Dataset {
			return points[i].Dataset < points[j].Dataset
		}
		if points[i].Protocol != points[j].Protocol {
			return points[i].Protocol < points[j].Protocol
		}
		return points[i].Policy < points[j].Policy
	})
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s %-12s %-11s MaxAAC=%5.1f%%  %s=%5.3f  random=%4.1f%%\n",
			p.Dataset, p.Protocol, p.Policy, 100*p.MaxAAC, utilityName, p.Utility, 100*p.Random)
	}
	return b.String()
}

// DPPoint is one ε setting of Figure 5.
type DPPoint struct {
	Protocol string
	Epsilon  float64 // +Inf = no noise
	Noise    float64 // calibrated noise multiplier ι
	MaxAAC   float64
	Utility  float64
	Random   float64
}

// Figure5Epsilons are the paper's privacy budgets (∞, 1000, 100, 10, 1).
var Figure5Epsilons = []float64{math.Inf(1), 1000, 100, 10, 1}

// RunFigure5 reproduces Figure 5: the DP-SGD privacy/utility trade-off
// on the MovieLens-like dataset with GMF, in FL and Rand-Gossip, with
// δ = 1e-6 and clipping C = 2 as in the paper.
func RunFigure5(spec Spec) ([]DPPoint, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	var points []DPPoint
	for _, eps := range Figure5Epsilons {
		flAcct := defense.Accountant{Delta: 1e-6, Rounds: spec.Rounds}
		iota := flAcct.Calibrate(eps)
		policy := defense.DPSGD{Clip: 2, NoiseMultiplier: iota}
		fl, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: spec, Policy: policy, Utility: UtilityHR})
		if err != nil {
			return nil, err
		}
		points = append(points, DPPoint{
			Protocol: "FL", Epsilon: eps, Noise: iota,
			MaxAAC: fl.Attack.MaxAAC, Utility: fl.BestUtility(), Random: fl.Attack.RandomBound,
		})

		glRounds := spec.GLRounds
		if glRounds == 0 {
			glRounds = spec.Rounds
		}
		glAcct := defense.Accountant{Delta: 1e-6, Rounds: glRounds}
		iotaGL := glAcct.Calibrate(eps)
		gl, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Spec: spec,
			Policy: defense.DPSGD{Clip: 2, NoiseMultiplier: iotaGL}, Utility: UtilityHR})
		if err != nil {
			return nil, err
		}
		points = append(points, DPPoint{
			Protocol: "rand-gossip", Epsilon: eps, Noise: iotaGL,
			MaxAAC: gl.Attack.MaxAAC, Utility: gl.BestUtility(), Random: gl.Attack.RandomBound,
		})
	}
	return points, nil
}

// RenderFigure5 formats the DP sweep like Figure 5's two panels.
func RenderFigure5(points []DPPoint) string {
	var b strings.Builder
	b.WriteString("== Figure 5: DP-SGD privacy/utility (MovieLens-like, GMF, delta=1e-6, C=2) ==\n")
	for _, p := range points {
		eps := "inf"
		if !math.IsInf(p.Epsilon, 1) {
			eps = fmt.Sprintf("%g", p.Epsilon)
		}
		fmt.Fprintf(&b, "%-12s eps=%-5s iota=%-8.4f MaxAAC=%5.1f%%  HR=%5.3f  random=%4.1f%%\n",
			p.Protocol, eps, p.Noise, 100*p.MaxAAC, p.Utility, 100*p.Random)
	}
	return b.String()
}

// HealthResult is the outcome of the Figure-1 motivating example.
type HealthResult struct {
	// CommunitySize is the number of users the adversary extracts.
	CommunitySize int
	// MemberHealthShare is the mean fraction of health-category items
	// in the inferred members' histories (paper: >= 68%).
	MemberHealthShare float64
	// GlobalHealthShare is the population baseline (paper: 6.7%).
	GlobalHealthShare float64
	// Members lists the inferred user ids.
	Members []int
}

// RunTargetedFL trains a federation and runs a server-side CIA with a
// single hand-crafted target item set, returning the inferred top-k
// community. This is the primitive behind the §II motivating example
// and the facade's targeted-attack API.
func RunTargetedFL(d *dataset.Dataset, family string, spec Spec, target []int, k int, policy defense.Policy) ([]int, error) {
	if len(target) == 0 {
		return nil, fmt.Errorf("experiments: empty target item set")
	}
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k must be positive")
	}
	factory, err := MakeFactory(family, d, spec)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		policy = defense.FullSharing{}
	}
	ev := newEval(factory, [][]int{target}, policy)
	cia := attack.New(attack.Config{
		Beta: spec.Beta, K: k, NumUsers: d.NumUsers, Eval: ev,
	})
	obs := &flObserver{cia: cia}
	var sim *fed.Simulation
	if ev.ShareLess() {
		rng := mathx.NewRand(spec.Seed ^ 0x7a9)
		obs.refit = func(int) { ev.RefreshFictive(sim.Global().Params(), fictiveEpochs, rng) }
	}
	sim, tr, err := newFed(spec, fed.Config{Dataset: d, Factory: factory, Policy: policy, Observer: obs})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	sim.Run()
	return cia.Predict(0), nil
}

// RunFigure1 reproduces the §II motivating example: a server-side CIA
// on a Foursquare-like federation, with V_target hand-crafted from the
// public "Health & Medicine" POI category, extracting a small
// community of health-vulnerable users.
func RunFigure1(spec Spec) (HealthResult, error) {
	d, err := MakeDataset("foursquare", spec)
	if err != nil {
		return HealthResult{}, err
	}
	SplitFor("gmf", d)
	healthCat := d.CategoryID(dataset.HealthCategory)
	if healthCat < 0 {
		return HealthResult{}, fmt.Errorf("experiments: dataset has no health category")
	}
	// The adversary crafts V_target from the public catalogue: the
	// most popular health POIs.
	healthItems := d.ItemsInCategory(healthCat)
	counts := make(map[int]int)
	for u := 0; u < d.NumUsers; u++ {
		for _, it := range d.Train[u] {
			counts[it]++
		}
	}
	sort.Slice(healthItems, func(a, b int) bool { return counts[healthItems[a]] > counts[healthItems[b]] })
	targetSize := 40
	if targetSize > len(healthItems) {
		targetSize = len(healthItems)
	}
	target := healthItems[:targetSize]

	const communitySize = 3 // the paper's 3-community of users
	members, err := RunTargetedFL(d, "gmf", spec, target, communitySize, nil)
	if err != nil {
		return HealthResult{}, err
	}

	var share float64
	for _, u := range members {
		share += d.CategoryShare(u, healthCat)
	}
	if len(members) > 0 {
		share /= float64(len(members))
	}
	return HealthResult{
		CommunitySize:     len(members),
		MemberHealthShare: share,
		GlobalHealthShare: d.GlobalCategoryShare(healthCat),
		Members:           members,
	}, nil
}

// RenderFigure1 formats the motivating example outcome.
func RenderFigure1(res HealthResult) string {
	return fmt.Sprintf(
		"== Figure 1: health-vulnerable community (Foursquare-like, FL, GMF) ==\n"+
			"inferred %d-community %v\n"+
			"member health share %.1f%% vs population baseline %.1f%%\n",
		res.CommunitySize, res.Members,
		100*res.MemberHealthShare, 100*res.GlobalHealthShare)
}
