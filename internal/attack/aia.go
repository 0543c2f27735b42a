package attack

import (
	"fmt"
	"math/rand/v2"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// AIA implements the attribute inference attack of §VIII-C2 used as a
// community detector, following Weinsberg et al.'s recipe: the
// adversary samples N fictive community members (random subsets of
// V_target) and M non-members (random subsets of V ∖ V_target), trains
// a local model for each starting from the current global model,
// collects the item-embedding updates (gradients), and fits a
// five-layer binary MLP classifying member vs non-member updates. At
// attack time every received model's update is classified and users
// are ranked by the classifier's community probability.
//
// As the paper observes, this is both costlier than CIA (N+M extra
// model trainings plus a classifier fit) and weaker (locally-generated
// gradients do not match FL-round gradients); Table IX and the §VIII-C2
// experiment quantify exactly that.
type AIA struct {
	clf       *model.MLP
	base      *param.Set // reference params for update extraction
	itemEntry string     // entry whose delta is the classifier feature
	dim       int        // feature dimension
	k         int

	scores  []float64
	hasSeen []bool
}

// AIAConfig parameterizes AIA training.
type AIAConfig struct {
	// Target is the community item set V_target.
	Target []int
	// K is the inferred community size.
	K int
	// Members (N) and NonMembers (M) are the fictive-user sample
	// counts (defaults 20/20).
	Members, NonMembers int
	// HistSize is the history length of each fictive user (default:
	// min(len(Target), 30)).
	HistSize int
	// LocalEpochs is the local-training length per fictive user
	// (default 1, one FL round's worth).
	LocalEpochs int
	// ClassifierEpochs is the MLP fit length (default 30).
	ClassifierEpochs int
	// Hidden are the classifier's hidden-layer widths (default
	// [64, 32, 16, 8] — five FC layers with the input and output).
	Hidden []int
	// Rand drives all sampling (required).
	Rand *rand.Rand
}

func (c *AIAConfig) setDefaults() {
	if c.Members == 0 {
		c.Members = 20
	}
	if c.NonMembers == 0 {
		c.NonMembers = 20
	}
	if c.HistSize == 0 {
		c.HistSize = len(c.Target)
		if c.HistSize > 30 {
			c.HistSize = 30
		}
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.ClassifierEpochs == 0 {
		c.ClassifierEpochs = 60
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 32, 16, 8}
	}
}

// TrainAIA runs the offline phase: generate fictive gradients and fit
// the classifier. global is the adversary's reference model (e.g. the
// FL global model after warm-up); d supplies the item catalogue shape.
func TrainAIA(global model.Recommender, d *dataset.Dataset, cfg AIAConfig) (*AIA, error) {
	cfg.setDefaults()
	if cfg.Rand == nil {
		return nil, fmt.Errorf("attack: AIAConfig.Rand is required")
	}
	if len(cfg.Target) == 0 {
		return nil, fmt.Errorf("attack: AIA requires a non-empty target")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("attack: AIA requires K > 0")
	}
	itemEntries := global.ItemEntries()
	if len(itemEntries) == 0 {
		return nil, fmt.Errorf("attack: model %s has no item entries", global.Name())
	}
	entry := itemEntries[0]
	base := global.Params().Clone()
	dim := len(base.Get(entry))

	a := &AIA{
		base:      base,
		itemEntry: entry,
		dim:       dim,
		k:         cfg.K,
		scores:    make([]float64, d.NumUsers),
		hasSeen:   make([]bool, d.NumUsers),
	}

	// Complement catalogue for non-members.
	inTarget := make(map[int]struct{}, len(cfg.Target))
	for _, it := range cfg.Target {
		inTarget[it] = struct{}{}
	}
	complement := make([]int, 0, d.NumItems-len(inTarget))
	for it := 0; it < d.NumItems; it++ {
		if _, ok := inTarget[it]; !ok {
			complement = append(complement, it)
		}
	}
	if len(complement) == 0 {
		return nil, fmt.Errorf("attack: target covers the whole catalogue")
	}

	// Fictive histories are *mixtures*: members draw most (but not
	// all) of their items from V_target, non-members mostly from the
	// complement. Pure sampling (member history ⊆ V_target exactly, as
	// a literal reading of §VIII-C2 suggests) makes the classifier
	// collapse to detecting the exact target set: it assigns ~1 to the
	// target owner and noise to everyone else, i.e. random community
	// accuracy. Real community members only *overlap* the target, so
	// the training distribution must contain partial overlaps too.
	var xs [][]float64
	var labels []int
	sampleMixed := func(mix float64) []int {
		n := cfg.HistSize
		seen := make(map[int]struct{}, n)
		items := make([]int, 0, n)
		for len(items) < n && len(seen) < len(cfg.Target)+len(complement) {
			pool := complement
			if mathx.Bernoulli(cfg.Rand, mix) {
				pool = cfg.Target
			}
			it := pool[cfg.Rand.IntN(len(pool))]
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			items = append(items, it)
		}
		return items
	}
	for i := 0; i < cfg.Members+cfg.NonMembers; i++ {
		label := 0
		mix := 0.2 * cfg.Rand.Float64() // non-member: 0–20% target items
		if i < cfg.Members {
			label = 1
			mix = 0.5 + 0.5*cfg.Rand.Float64() // member: 50–100%
		}
		feat := a.fictiveGradient(global, d, sampleMixed(mix), cfg)
		xs = append(xs, feat)
		labels = append(labels, label)
	}

	sizes := append([]int{dim}, cfg.Hidden...)
	sizes = append(sizes, 1)
	a.clf = model.NewMLP(sizes, true, cfg.Rand.Uint64())
	for e := 0; e < cfg.ClassifierEpochs; e++ {
		a.clf.TrainEpoch(cfg.Rand, xs, labels, 0.02)
	}
	return a, nil
}

// fictiveGradient trains a clone of the global model as a fake client
// holding items, and returns the flattened item-embedding update.
func (a *AIA) fictiveGradient(global model.Recommender, d *dataset.Dataset, items []int, cfg AIAConfig) []float64 {
	clone := global.Clone()
	tmp, err := dataset.New("aia-fictive", d.NumUsers, d.NumItems, [][]int{items})
	if err != nil {
		panic(err) // construction above guarantees validity
	}
	clone.TrainLocal(tmp, 0, model.TrainOptions{Epochs: cfg.LocalEpochs, Rand: cfg.Rand})
	return a.updateFeature(clone.Params())
}

// updateFeature extracts the item-entry delta against the base params,
// L2-normalized: the classifier should key on the *direction* of the
// update (which item rows moved), not its magnitude, which varies with
// history length and learning rate.
func (a *AIA) updateFeature(params *param.Set) []float64 {
	cur := params.Get(a.itemEntry)
	ref := a.base.Get(a.itemEntry)
	feat := make([]float64, a.dim)
	for i := range feat {
		feat[i] = cur[i] - ref[i]
	}
	if n := mathx.L2Norm(feat); n > 0 {
		mathx.Scale(1/n, feat)
	}
	return feat
}

// Observe classifies the received model's update and records the
// sender's community probability (latest observation wins).
func (a *AIA) Observe(sender int, payload *param.Set) {
	if !payload.Has(a.itemEntry) {
		return
	}
	a.scores[sender] = a.clf.PredictProb(a.updateFeature(payload), 1)
	a.hasSeen[sender] = true
}

// Predict returns the top-K users by classifier probability.
func (a *AIA) Predict() []int {
	return mathx.TopKSelect(a.scores, a.hasSeen, a.k, nil)
}

// Accuracy returns Accuracy@R against the ground-truth community.
func (a *AIA) Accuracy(truth map[int]struct{}) float64 {
	return evalx.Accuracy(a.Predict(), truth)
}
