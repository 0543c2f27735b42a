package attack

import (
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/model"
)

// BenchmarkCIAEndRound prices one CIA re-scoring round at Table II's
// foursquare sizing — 150 observed senders, 150 targets (every user's
// training set, ~45 items each) over a 700-item catalogue, dim 8 — on
// one worker, for GMF and PRME: the batched path (one catalogue sweep
// per sender) against the per-target path (one Relevance gather per
// sender × target). The one-target cells score a single user's training
// set, as the single-target CIA experiments do: there the batched path
// stays below RelevanceTargets' catalogue-sweep rule and must cost what
// the per-target path costs.
func BenchmarkCIAEndRound(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 150, NumItems: 700, NumCommunities: 5,
		MeanItemsPerUser: 45, MinItemsPerUser: 10, Affinity: 0.85, ZipfExponent: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	paths := []struct {
		name string
		wrap func(*RecommenderEval) Evaluator
	}{
		{"batched", func(ev *RecommenderEval) Evaluator { return ev }},
		{"per-target", func(ev *RecommenderEval) Evaluator { return perTargetEval{ev} }},
	}
	for _, fam := range []struct {
		name    string
		factory model.Factory
	}{
		{"gmf", model.NewGMFFactory(d.NumUsers, d.NumItems, 8)},
		{"prme", model.NewPRMEFactory(d.NumUsers, d.NumItems, 8)},
	} {
		for _, ts := range []struct {
			name    string
			targets [][]int
		}{{"all-users", d.Train}, {"one-target", d.Train[:1]}} {
			for _, path := range paths {
				b.Run(fam.name+"/"+ts.name+"/"+path.name, func(b *testing.B) {
					c := New(Config{Beta: 0.99, K: 8, NumUsers: d.NumUsers, Workers: 1,
						Eval: path.wrap(NewRecommenderEval(fam.factory(0), ts.targets))})
					for u := 0; u < d.NumUsers; u++ {
						c.Observe(u, fam.factory(uint64(u+1)).Params())
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// Every sender changed, as after a full-participation round.
						for u := 0; u < d.NumUsers; u++ {
							c.dirty[u] = struct{}{}
						}
						c.EndRound()
					}
				})
			}
		}
	}
}
