package model

import (
	"fmt"

	"github.com/collablearn/ciarec/internal/mathx"
)

// catalogueScorer is the per-family half of RelevanceTargets: every
// family's Relevance is a sequential sum of one per-item value over the
// target's items divided by |T|, and catalogueRelevance computes that
// value for every catalogue item in one batched sweep (into model-owned
// scratch, valid until the model's next scoring call).
type catalogueScorer interface {
	Recommender
	catalogueRelevance(owner int) []float64
}

// sweepPays is the catalogue-sweep rule of RelevanceTargets: sweep when
// the targets together name at least numItems items. The threshold is
// the measured crossover (BenchmarkRelevanceSweep, 45-item targets over
// a 700-item dim-8 catalogue, all four families): with the targets
// naming 0.75–1× the catalogue the two branches cost the same within
// noise, at 1.5× the sweep is 1.1–1.5× faster, and one 45-item target
// costs 16–22× more swept than gathered. Table II's all-users batches
// name the catalogue about ten times over.
func sweepPays(targets [][]int, numItems int) bool {
	n := 0
	for _, t := range targets {
		n += len(t)
		if n >= numItems {
			return true
		}
	}
	return false
}

// relevanceTargets is the shared body of every family's
// RelevanceTargets. Below the sweep rule it defers to per-target
// Relevance; otherwise it sweeps the catalogue once and reduces each
// target with mathx.GatherMean, whose left-to-right order is the
// Relevance reduction's, so dst[t] is bit-identical either way.
func relevanceTargets(m catalogueScorer, owner int, targets [][]int, dst []float64) {
	if len(dst) != len(targets) {
		panic(fmt.Sprintf("model: RelevanceTargets dst length %d != %d targets", len(dst), len(targets)))
	}
	if !sweepPays(targets, m.NumItems()) {
		for t, items := range targets {
			dst[t] = m.Relevance(owner, items)
		}
		return
	}
	vals := m.catalogueRelevance(owner)
	for t, items := range targets {
		dst[t] = mathx.GatherMean(vals, items)
	}
}
