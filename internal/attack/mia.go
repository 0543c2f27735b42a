package attack

import (
	"fmt"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// MIA implements the entropy-based membership inference attack of Song
// & Mittal (2021) repurposed as a community detector (§VIII-C1): for
// every received model and every target item, the item is classified a
// training-set member when the binary entropy of the model's
// prediction falls below the threshold ρ (confident predictions ⇒
// memorized). Users are then ranked by how many target items were
// classified as members of their training set, and the top K form the
// inferred community.
type MIA struct {
	// Rho is the entropy threshold ρ in nats (the paper sweeps
	// 0.2...1; note ln 2 ≈ 0.69 is the maximum binary entropy).
	Rho float64
	// K is the inferred community size.
	K int
	// Guarded additionally requires p >= 0.5 for a member call.
	// The paper's attack thresholds entropy alone (§VIII-C1), which
	// also fires on confidently-*rejected* items (binary entropy is
	// symmetric) — that is the variant CIA is compared against in
	// Table VIII. The guarded variant repairs this defect and becomes
	// a markedly stronger community proxy; the reproduction reports
	// both (see EXPERIMENTS.md).
	Guarded bool

	scratch  model.Recommender
	targets  [][]int
	numUsers int

	counts  [][]float64 // [target][sender] member-classified counts
	hasSeen []bool
	// probs is the grown-on-demand buffer the batched per-target
	// membership sweep writes the model's confidences into.
	probs []float64

	// precision bookkeeping over all (sender, item) member calls.
	memberCalls   int
	memberInTrain int
	data          *dataset.Dataset
}

// NewMIA builds the MIA community proxy. d is used only for precision
// accounting (the attacker does not read it to rank users).
func NewMIA(rho float64, k int, scratch model.Recommender, targets [][]int, d *dataset.Dataset) *MIA {
	if rho <= 0 {
		panic(fmt.Sprintf("attack: MIA rho %v must be positive", rho))
	}
	if k <= 0 {
		panic("attack: MIA k must be positive")
	}
	if len(targets) == 0 {
		panic("attack: MIA requires at least one target")
	}
	m := &MIA{
		Rho:      rho,
		K:        k,
		scratch:  scratch,
		targets:  targets,
		numUsers: d.NumUsers,
		counts:   make([][]float64, len(targets)),
		hasSeen:  make([]bool, d.NumUsers),
		data:     d,
	}
	for t := range m.counts {
		m.counts[t] = make([]float64, d.NumUsers)
	}
	return m
}

// Observe classifies each target item's membership under the received
// model and updates the sender's per-target member counts. Unlike CIA
// there is no momentum: the proxy scores raw uploads, as in §VIII-C1.
// Each target's confidences come from one batched PredictItems sweep
// instead of a Predict call per item.
func (m *MIA) Observe(sender int, payload *param.Set) {
	m.scratch.Params().CopyShared(payload)
	m.hasSeen[sender] = true
	trainSet := m.data.TrainSet(sender)
	for t, target := range m.targets {
		if cap(m.probs) < len(target) {
			m.probs = make([]float64, len(target))
		}
		probs := m.probs[:len(target)]
		m.scratch.PredictItems(sender, target, probs)
		var members float64
		for i, it := range target {
			p := probs[i]
			if m.Guarded && p < 0.5 {
				continue
			}
			if mathx.BinaryEntropy(p) <= m.Rho {
				members++
				m.memberCalls++
				if _, ok := trainSet[it]; ok {
					m.memberInTrain++
				}
			}
		}
		// Latest-observation semantics, mirroring Alg. 1's re-sorted
		// score dictionary.
		m.counts[t][sender] = members
	}
}

// Predict returns the top-K users by member count for target t.
func (m *MIA) Predict(t int) []int {
	return mathx.TopKSelect(m.counts[t], m.hasSeen, m.K, nil)
}

// Accuracies returns Accuracy@R for every target, reusing one selection
// buffer across targets.
func (m *MIA) Accuracies(truths []map[int]struct{}) []float64 {
	if len(truths) != len(m.targets) {
		panic(fmt.Sprintf("attack: %d truths for %d targets", len(truths), len(m.targets)))
	}
	out := make([]float64, len(truths))
	var top []int
	for t := range truths {
		top = mathx.TopKSelect(m.counts[t], m.hasSeen, m.K, top)
		out[t] = evalx.Accuracy(top, truths[t])
	}
	return out
}

// Precision returns the fraction of member classifications that were
// actually training-set members (Table VIII's "MIA Precision" row),
// or 0 before any member call.
func (m *MIA) Precision() float64 {
	if m.memberCalls == 0 {
		return 0
	}
	return float64(m.memberInTrain) / float64(m.memberCalls)
}
