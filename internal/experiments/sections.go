package experiments

import (
	"fmt"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/classify"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/mathx"
)

// RunUniversality reproduces §VIII-E: CIA against an MLP
// classification federation with a strongly non-iid (one class per
// client) partition. The paper reports 100% community recovery at an
// 87% global accuracy, against a 10% random bound.
func RunUniversality(spec Spec) (classify.Result, error) {
	cfg := classify.RunConfig{
		Gen: classify.GenConfig{
			NumClients: 100,
			NumClasses: 10,
			Dim:        32,
			Seed:       spec.Seed,
		},
		Rounds: spec.Rounds,
		Hidden: 100,
		Beta:   spec.Beta,
		Seed:   spec.Seed ^ 0x8e,
	}
	if !spec.Paper {
		// Scaled config tuned so the global model sits near the
		// synthetic task's Bayes accuracy (~85%, mirroring the paper's
		// 87% on MNIST) while CIA still has to separate 10 communities.
		cfg.Gen.NumClients = 50
		cfg.Gen.Dim = 24
		cfg.Gen.SamplesPerClient = 30
		cfg.Gen.Separation = 3.2
		cfg.Hidden = 64
		cfg.LR = 0.2
		if cfg.Rounds < 30 {
			cfg.Rounds = 30
		}
	}
	return classify.RunUniversality(cfg)
}

// RenderUniversality formats the §VIII-E outcome.
func RenderUniversality(res classify.Result) string {
	return fmt.Sprintf(
		"== Section VIII-E: universality (non-iid classification, FL, 1-hidden-layer MLP) ==\n"+
			"global accuracy %.1f%%  CIA community accuracy %.1f%%  random bound %.1f%%\n",
		100*res.GlobalAccuracy, 100*res.CIAAccuracy, 100*res.RandomBound)
}

// AIAComparison is the §VIII-C2 outcome: AIA vs CIA on one community.
type AIAComparison struct {
	AIAMaxAAC float64
	CIAMaxAAC float64
	Random    float64
}

// RunAIAComparison reproduces §VIII-C2: a gradient-classifier AIA
// detecting one community in FL, against CIA on the same uploads
// (paper: 40% vs 62%).
func RunAIAComparison(spec Spec) (AIAComparison, error) {
	if spec.Rounds < 2 {
		return AIAComparison{}, fmt.Errorf("experiments: sec8c2 needs at least 2 rounds (a warm-up half, then an observed half), got %d", spec.Rounds)
	}
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return AIAComparison{}, err
	}
	SplitFor("gmf", d)
	factory, err := MakeFactory("gmf", d, spec)
	if err != nil {
		return AIAComparison{}, err
	}
	k := spec.K(d.NumUsers)
	rng := mathx.NewRand(spec.Seed ^ 0xc2)
	// The paper attacks a randomly selected community.
	targetUser := rng.IntN(d.NumUsers)
	target := d.Train[targetUser]
	truth := evalx.TrueCommunity(d, target, k)

	// Warm-up federation to give the AIA a meaningful global model.
	half := spec
	half.Rounds = spec.Rounds / 2
	warm, warmTr, err := newFed(half, fed.Config{Dataset: d, Factory: factory})
	if err != nil {
		return AIAComparison{}, err
	}
	defer warmTr.Close()
	warm.Run()

	aia, err := attack.TrainAIA(warm.Global(), d, attack.AIAConfig{
		Target: target, K: k, Rand: rng,
	})
	if err != nil {
		return AIAComparison{}, err
	}

	// Continue the federation with both attacks observing. A fresh,
	// re-seeded simulation keeps the harness simple: install the warm
	// parameters into the new run's global model.
	cont := half
	cont.Seed = spec.Seed ^ 0x5ec
	r, err := newFLRun(FLOpts{Data: d, Spec: cont}, factory, [][]int{target}, k)
	if err != nil {
		return AIAComparison{}, err
	}
	defer r.Close()
	r.truths = []map[int]struct{}{truth}
	obs := &aiaObserver{aia: aia, truth: truth}
	r.also = obs
	r.fed.Global().Params().CopyFrom(warm.Global().Params())
	r.run()

	ciaAAC, _ := r.rec.MaxAAC()
	return AIAComparison{
		AIAMaxAAC: obs.bestAIA,
		CIAMaxAAC: ciaAAC,
		Random:    evalx.RandomBound(k, d.NumUsers),
	}, nil
}

// aiaObserver feeds the uploads the CIA sees to the AIA.
type aiaObserver struct {
	aia     *attack.AIA
	truth   map[int]struct{}
	bestAIA float64
}

func (o *aiaObserver) OnUpload(msg fed.Message) { o.aia.Observe(msg.From, msg.Params) }

func (o *aiaObserver) OnRoundEnd(round int) {
	if acc := o.aia.Accuracy(o.truth); acc > o.bestAIA {
		o.bestAIA = acc
	}
}

// RenderAIAComparison formats the §VIII-C2 outcome.
func RenderAIAComparison(res AIAComparison) string {
	return fmt.Sprintf(
		"== Section VIII-C2: AIA as a community-inference proxy (FL, GMF, MovieLens-like) ==\n"+
			"AIA Max AAC %.1f%%  CIA Max AAC %.1f%%  random %.1f%%\n",
		100*res.AIAMaxAAC, 100*res.CIAMaxAAC, 100*res.Random)
}
