package attack

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// A full-model Score copies in only the rows its Relevance call reads.
// Poisoning every other scratch value with NaN must leave every score
// bit-identical to scoring a full copy of the state.
func TestRowScopedScoreMatchesFullCopy(t *testing.T) {
	const users, items, dim = 9, 40, 6
	rawPRME := func(seed uint64) model.Recommender {
		m := model.NewPRME(users, items, dim, seed)
		m.SetRawRelevance(true)
		return m
	}
	families := []struct {
		name    string
		factory func(seed uint64) model.Recommender
	}{
		{"gmf", func(seed uint64) model.Recommender { return model.NewGMF(users, items, dim, seed) }},
		{"prme", func(seed uint64) model.Recommender { return model.NewPRME(users, items, dim, seed) }},
		{"prme-raw", rawPRME},
		{"bprmf", func(seed uint64) model.Recommender { return model.NewBPRMF(users, items, dim, seed) }},
		{"neumf", func(seed uint64) model.Recommender { return model.NewNeuMF(users, items, dim, seed) }},
	}
	targets := [][]int{{3, 17, 29}, {}, {0}, {39, 38, 5, 12, 22, 31}, {7, 7, 8}}
	r := mathx.NewRand(9)
	for _, fam := range families {
		factory := fam.factory
		t.Run(fam.name, func(t *testing.T) {
			scratch := factory(1)
			poison(scratch.Params())
			ev := NewRecommenderEval(scratch, targets)
			ref := factory(2)
			for load := 0; load < 6; load++ {
				state := factory(uint64(100 + load)).Params()
				ev.Load(state)
				ref.Params().CopyFrom(state)
				for i := 0; i < 12; i++ {
					sender, tgt := r.IntN(users), r.IntN(len(targets))
					if load%3 == 1 && i == 6 {
						// A catalogue sweep in between copies the whole
						// state; later row copies must agree with it.
						ev.ScoreTargets(sender, make([]float64, len(targets)))
					}
					got := ev.Score(sender, tgt)
					want := ref.Relevance(sender, targets[tgt])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("load %d: Score(%d, %d) = %v, full copy %v", load, sender, tgt, got, want)
					}
				}
			}
		})
	}
}

// poison fills every parameter with NaN.
func poison(s *param.Set) {
	for i := 0; i < s.Len(); i++ {
		mathx.Fill(s.At(i).Data, math.NaN())
	}
}
