// Package classify reproduces the paper's universality experiment
// (§VIII-E): CIA applied to an image-classification task rather than a
// recommender.
//
// The paper uses MNIST with a strongly non-iid partition (each of 100
// clients holds samples of exactly one digit) and a one-hidden-layer
// 100-unit MLP trained in FL; a community is the set of clients
// holding the same class. MNIST is not available offline, so the
// substrate is a synthetic 10-class Gaussian-cluster dataset: class c
// has a random mean direction in R^d and samples are isotropic
// Gaussian around it. This preserves exactly the property the
// experiment tests — clients whose data share a label distribution
// form a community a model-comparison attack can find (experiment sec8e).
package classify

import (
	"fmt"
	"math/rand/v2"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// Data is a labelled vector dataset partitioned across clients.
type Data struct {
	Dim        int
	NumClasses int
	// ClientX[u] / ClientY[u] are client u's local samples.
	ClientX [][][]float64
	ClientY [][]int
	// ClientClass[u] is the single class client u holds (the community
	// ground truth).
	ClientClass []int
	// TargetX[c] are the adversary's crafted target samples for class
	// c (held out from every client's training data).
	TargetX [][][]float64
	// TestX/TestY is a shared held-out test set for utility.
	TestX [][]float64
	TestY []int
}

// GenConfig parameterizes the synthetic generator.
type GenConfig struct {
	NumClients       int // default 100
	NumClasses       int // default 10
	Dim              int // default 32
	SamplesPerClient int // default 40
	TargetPerClass   int // default 20
	TestPerClass     int // default 20
	// Separation scales class-mean distances (default 2.5).
	Separation float64
	Seed       uint64
}

func (c *GenConfig) setDefaults() {
	if c.NumClients == 0 {
		c.NumClients = 100
	}
	if c.NumClasses == 0 {
		c.NumClasses = 10
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.SamplesPerClient == 0 {
		c.SamplesPerClient = 40
	}
	if c.TargetPerClass == 0 {
		c.TargetPerClass = 20
	}
	if c.TestPerClass == 0 {
		c.TestPerClass = 20
	}
	if c.Separation == 0 {
		// Default separation puts the Bayes accuracy of the 10-class
		// task near the paper's 87% MNIST accuracy.
		c.Separation = 3.2
	}
}

// Generate builds the non-iid partition: client u holds samples of
// class u mod NumClasses only.
func Generate(cfg GenConfig) (*Data, error) {
	cfg.setDefaults()
	if cfg.NumClients < cfg.NumClasses {
		return nil, fmt.Errorf("classify: need at least one client per class (%d < %d)",
			cfg.NumClients, cfg.NumClasses)
	}
	r := mathx.NewRand(cfg.Seed)
	means := make([][]float64, cfg.NumClasses)
	for c := range means {
		means[c] = make([]float64, cfg.Dim)
		mathx.FillNormal(r, means[c], 0, 1)
		mathx.ClipL2(means[c], 1)
		mathx.Scale(cfg.Separation, means[c])
	}
	sample := func(c int) []float64 {
		x := make([]float64, cfg.Dim)
		for k := range x {
			x[k] = means[c][k] + mathx.Normal(r, 0, 1)
		}
		return x
	}
	d := &Data{
		Dim:         cfg.Dim,
		NumClasses:  cfg.NumClasses,
		ClientX:     make([][][]float64, cfg.NumClients),
		ClientY:     make([][]int, cfg.NumClients),
		ClientClass: make([]int, cfg.NumClients),
		TargetX:     make([][][]float64, cfg.NumClasses),
	}
	for u := 0; u < cfg.NumClients; u++ {
		c := u % cfg.NumClasses
		d.ClientClass[u] = c
		for i := 0; i < cfg.SamplesPerClient; i++ {
			d.ClientX[u] = append(d.ClientX[u], sample(c))
			d.ClientY[u] = append(d.ClientY[u], c)
		}
	}
	for c := 0; c < cfg.NumClasses; c++ {
		for i := 0; i < cfg.TargetPerClass; i++ {
			d.TargetX[c] = append(d.TargetX[c], sample(c))
		}
		for i := 0; i < cfg.TestPerClass; i++ {
			d.TestX = append(d.TestX, sample(c))
			d.TestY = append(d.TestY, c)
		}
	}
	return d, nil
}

// Community returns the set of clients holding class c.
func (d *Data) Community(c int) map[int]struct{} {
	out := make(map[int]struct{})
	for u, cc := range d.ClientClass {
		if cc == c {
			out[u] = struct{}{}
		}
	}
	return out
}

// mlpEval scores momentum-averaged MLP states for CIA: the relevance
// of a model for class c's target samples is its negative mean
// cross-entropy on them (a well-trained-on-c model assigns high
// probability to c).
type mlpEval struct {
	scratch *model.MLP
	data    *Data
}

func (e *mlpEval) Load(state *param.Set) { e.scratch.Params().CopyFrom(state) }

func (e *mlpEval) Score(sender, t int) float64 {
	return -e.scratch.MeanLossLabel(e.data.TargetX[t], t)
}

func (e *mlpEval) NumTargets() int { return e.data.NumClasses }

// Result summarizes one universality run.
type Result struct {
	// GlobalAccuracy is the final global model's test accuracy
	// (the paper reports 87% on MNIST).
	GlobalAccuracy float64
	// CIAAccuracy is the mean community-recovery accuracy over all
	// class targets at the best round (the paper reports 100%).
	CIAAccuracy float64
	// RandomBound is K/N for this partition.
	RandomBound float64
	// Rounds is the number of FL rounds executed.
	Rounds int
}

// RunConfig parameterizes RunUniversality.
type RunConfig struct {
	Gen    GenConfig
	Rounds int     // default 25
	Hidden int     // default 100 (the paper's hidden width)
	LR     float64 // default 0.05
	Beta   float64 // CIA momentum, default 0.9
	Seed   uint64
}

// RunUniversality trains the MLP federation and runs CIA from the
// server, returning the utility/attack summary. The Evaluator and CIA
// machinery are the identical code paths used against recommenders —
// that reuse is the point of the experiment.
func RunUniversality(cfg RunConfig) (Result, error) {
	if cfg.Rounds == 0 {
		cfg.Rounds = 25
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 100
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.Beta == 0 {
		cfg.Beta = 0.9
	}
	data, err := Generate(cfg.Gen)
	if err != nil {
		return Result{}, err
	}
	r := mathx.NewRand(cfg.Seed)
	sizes := []int{data.Dim, cfg.Hidden, data.NumClasses}
	global := model.NewMLP(sizes, false, r.Uint64())
	numClients := len(data.ClientX)
	clientRngs := make([]*rand.Rand, numClients)
	for u := range clientRngs {
		clientRngs[u] = mathx.Split(r)
	}

	communitySize := numClients / data.NumClasses
	truths := make([]map[int]struct{}, data.NumClasses)
	for c := range truths {
		truths[c] = data.Community(c)
	}

	// CIA from the server, identical wiring to the recommender case.
	ciaInst := attack.New(attack.Config{
		Beta:     cfg.Beta,
		K:        communitySize,
		NumUsers: numClients,
		Eval:     &mlpEval{scratch: model.NewMLP(sizes, false, 0), data: data},
	})

	var bestCIA float64
	for round := 0; round < cfg.Rounds; round++ {
		deltas := param.New() // accumulated weighted deltas
		for _, name := range global.Params().Names() {
			e := global.Params().Entry(name)
			deltas.Add(name, e.Rows, e.Cols, make([]float64, len(e.Data)))
		}
		for u := 0; u < numClients; u++ {
			local := global.Clone()
			local.TrainEpoch(clientRngs[u], data.ClientX[u], data.ClientY[u], cfg.LR)
			payload := local.Params().Clone()
			ciaInst.Observe(u, payload)
			w := 1 / float64(numClients)
			for _, name := range deltas.Names() {
				pd := payload.Get(name)
				gd := global.Params().Get(name)
				dd := deltas.Get(name)
				for i := range dd {
					dd[i] += w * (pd[i] - gd[i])
				}
			}
		}
		global.Params().Axpy(1, deltas)
		ciaInst.EndRound()
		var acc float64
		for c := 0; c < data.NumClasses; c++ {
			acc += evalx.Accuracy(ciaInst.Predict(c), truths[c])
		}
		acc /= float64(data.NumClasses)
		if acc > bestCIA {
			bestCIA = acc
		}
	}
	return Result{
		GlobalAccuracy: global.Accuracy(data.TestX, data.TestY),
		CIAAccuracy:    bestCIA,
		RandomBound:    float64(communitySize) / float64(numClients),
		Rounds:         cfg.Rounds,
	}, nil
}
