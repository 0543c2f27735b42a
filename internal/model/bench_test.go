package model

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
)

// BenchmarkScoreItems prices one full-catalogue scoring sweep per model
// family at a paper-scale catalogue (20k items, dim 16 — the MovieLens
// sizing of the paper's tables), comparing the blocked batch kernels
// (ScoreAll) against the equivalent per-item ScoreItems singleton loop.
// The batch path is the one the HR/F1 utility sweeps, CIA re-scoring
// and the MIA/AIA evaluators run on; scalar is the seed behaviour.
func BenchmarkScoreItems(b *testing.B) {
	const users, items, dim = 100, 20000, 16
	factories := []struct {
		name string
		f    Factory
	}{
		{"gmf", NewGMFFactory(users, items, dim)},
		{"prme", NewPRMEFactory(users, items, dim)},
		{"bprmf", NewBPRMFFactory(users, items, dim)},
		{"neumf", NewNeuMFFactory(users, items, dim)},
	}
	for _, fam := range factories {
		m := fam.f(1)
		dst := make([]float64, items)
		b.Run(fmt.Sprintf("%s/batch", fam.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.ScoreAll(i%users, -1, dst)
			}
		})
		b.Run(fmt.Sprintf("%s/scalar", fam.name), func(b *testing.B) {
			one := make([]float64, 1)
			single := make([]int, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for it := 0; it < items; it++ {
					single[0] = it
					m.ScoreItems(i%users, -1, single, one)
					dst[it] = one[0]
				}
			}
		})
	}
}

// BenchmarkRelevanceSweep locates the catalogue-sweep rule's crossover
// (sweepPays): for batches of 45-item targets (a Table II user's
// training set) over a 700-item, dim-8 catalogue whose items the batch
// names frac times over in total, it prices both RelevanceTargets
// branches — one catalogue sweep gathered per target against one
// Relevance call per target.
func BenchmarkRelevanceSweep(b *testing.B) {
	const users, items, dim, size = 20, 700, 8, 45
	factories := []struct {
		name string
		f    Factory
	}{
		{"gmf", NewGMFFactory(users, items, dim)},
		{"prme", NewPRMEFactory(users, items, dim)},
		{"bprmf", NewBPRMFFactory(users, items, dim)},
		{"neumf", NewNeuMFFactory(users, items, dim)},
	}
	for _, frac := range []float64{0.0625, 0.5, 0.75, 1, 1.5} {
		nt := max(1, int(frac*items/size+0.5))
		targets := make([][]int, nt)
		for t := range targets {
			targets[t] = make([]int, size)
			for i := range targets[t] {
				targets[t][i] = (t*size + i*13) % items
			}
		}
		dst := make([]float64, nt)
		for _, fam := range factories {
			m := fam.f(1).(catalogueScorer)
			b.Run(fmt.Sprintf("%s/frac=%g/sweep", fam.name, frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vals := m.catalogueRelevance(i % users)
					for t, items := range targets {
						dst[t] = mathx.GatherMean(vals, items)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/frac=%g/per-target", fam.name, frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for t, items := range targets {
						dst[t] = m.Relevance(i%users, items)
					}
				}
			})
		}
	}
}

// BenchmarkTrainLocal prices one local-training pass over every user of
// the benchmark-sized gowalla-like dataset (110 users, 600 items, dim 8,
// two epochs: the BenchSpec sizing of Tables II and III), per family
// the gossip and FedAvg workloads train. Each family gets the split its
// experiments use.
func BenchmarkTrainLocal(b *testing.B) {
	families := []struct {
		name  string
		f     func(users, items, dim int) Factory
		split func(*dataset.Dataset)
	}{
		{"gmf", NewGMFFactory, func(d *dataset.Dataset) { d.SplitLeaveOneOut(3) }},
		{"prme", NewPRMEFactory, func(d *dataset.Dataset) { d.SplitFraction(0.2) }},
	}
	for _, fam := range families {
		d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
			Name: "gowalla-like", NumUsers: 110, NumItems: 600,
			NumCommunities: 4, MeanItemsPerUser: 50, MinItemsPerUser: 10,
			Affinity: 0.85, ZipfExponent: 0.8, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		fam.split(d)
		m := fam.f(d.NumUsers, d.NumItems, 8)(1)
		r := mathx.NewRand(1)
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for u := 0; u < d.NumUsers; u++ {
					m.TrainLocal(d, u, TrainOptions{Epochs: 2, Rand: r})
				}
			}
		})
	}
}
