package model

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/collablearn/ciarec/internal/mathx"
)

// Property: GMF predictions are always valid probabilities, for any
// seed and any (user, item) pair.
func TestGMFPredictBoundedProperty(t *testing.T) {
	f := func(seed uint64, uRaw, iRaw uint8) bool {
		m := NewGMF(8, 12, 4, seed)
		u := int(uRaw) % 8
		it := int(iRaw) % 12
		p := m.Predict(u, it)
		return p > 0 && p < 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: clones behave identically to the original under the same
// randomness — training a model and its clone with identically-seeded
// generators yields identical parameters.
func TestCloneTrainingEquivalenceProperty(t *testing.T) {
	d := tinyDataset(t)
	f := func(seed uint64, uRaw uint8) bool {
		u := int(uRaw) % d.NumUsers
		m1 := NewGMF(d.NumUsers, d.NumItems, 4, seed)
		m2 := m1.Clone()
		m1.TrainLocal(d, u, TrainOptions{Rand: mathx.NewRand(seed ^ 1)})
		m2.TrainLocal(d, u, TrainOptions{Rand: mathx.NewRand(seed ^ 1)})
		p1, p2 := m1.Params(), m2.Params()
		for _, name := range p1.Names() {
			a, b := p1.Get(name), p2.Get(name)
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: GMF relevance over a set equals the mean of per-item
// predictions (the Eq. 3 definition).
func TestGMFRelevanceIsMeanProperty(t *testing.T) {
	m := NewGMF(6, 20, 4, 3)
	f := func(uRaw uint8, itemsRaw []uint8) bool {
		if len(itemsRaw) == 0 {
			return true
		}
		u := int(uRaw) % 6
		items := make([]int, len(itemsRaw))
		var mean float64
		for i, raw := range itemsRaw {
			items[i] = int(raw) % 20
			mean += m.Predict(u, items[i])
		}
		mean /= float64(len(items))
		return math.Abs(m.Relevance(u, items)-mean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: PRME embeddings stay inside the max-norm ball through any
// amount of training.
func TestPRMEMaxNormInvariantProperty(t *testing.T) {
	d := tinyDataset(t)
	f := func(seed uint64, epochsRaw uint8) bool {
		m := NewPRME(d.NumUsers, d.NumItems, 4, seed)
		epochs := 1 + int(epochsRaw)%3
		r := mathx.NewRand(seed)
		for e := 0; e < epochs; e++ {
			for u := 0; u < d.NumUsers; u += 5 {
				m.TrainLocal(d, u, TrainOptions{Rand: r})
			}
		}
		for u := 0; u < d.NumUsers; u++ {
			if mathx.L2Norm(m.userEmb.Row(u)) > prmeMaxNorm*(1+1e-9) {
				return false
			}
		}
		for it := 0; it < d.NumItems; it++ {
			if mathx.L2Norm(m.itemPref.Row(it)) > prmeMaxNorm*(1+1e-9) {
				return false
			}
			if mathx.L2Norm(m.itemSeq.Row(it)) > prmeMaxNorm*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: the MLP softmax head always produces a distribution.
func TestMLPDistributionProperty(t *testing.T) {
	m := NewMLP([]int{3, 8, 4}, false, 7)
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		out := m.Forward([]float64{math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100)})
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TrainLocal shuffles a model-owned buffer: after the first call a
// local epoch allocates nothing, and a clone trains on a buffer of its
// own, so models trained on different goroutines never share one.
func TestTrainLocalReusesShuffleBuffer(t *testing.T) {
	d := tinyDataset(t)
	order := func(m Recommender) []int {
		switch m := m.(type) {
		case *GMF:
			return m.order
		case *BPRMF:
			return m.order
		case *NeuMF:
			return m.order
		}
		t.Fatalf("no shuffle buffer on %T", m)
		return nil
	}
	for _, m := range []Recommender{
		NewGMF(d.NumUsers, d.NumItems, 4, 1),
		NewBPRMF(d.NumUsers, d.NumItems, 4, 1),
		NewNeuMF(d.NumUsers, d.NumItems, 4, 1),
	} {
		r := mathx.NewRand(2)
		if a := testing.AllocsPerRun(20, func() {
			m.TrainLocal(d, 0, TrainOptions{Rand: r})
		}); a != 0 {
			t.Errorf("%s: TrainLocal allocates %v times per call", m.Name(), a)
		}
		c := m.Clone()
		c.TrainLocal(d, 0, TrainOptions{Rand: r})
		if &order(c)[0] == &order(m)[0] {
			t.Errorf("%s: Clone shares the shuffle buffer", m.Name())
		}
	}
}
