package fed

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// oracleNormalizedReduce is a frozen copy of the staged FedAvg reduce
// the streaming fold replaced, in its serial form (the element-sharded
// version was byte-identical to it): each upload's weight is
// normalized up front, wᵢ = (weightᵢ/W)·factorᵢ, every shared
// coordinate accumulates Σ wᵢ·(pᵢ − g) in upload order, and the sum is
// added to g once. Private user-table rows route from their owners.
// It is the reference for the fold's one-time rounding shift — never
// edit it to follow fed.go.
func oracleNormalizedReduce(global *param.Set, private map[string]struct{}, uploads []upload, weights, factors []float64) {
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	if totalW == 0 {
		totalW = 1
	}
	for ei := 0; ei < global.Len(); ei++ {
		ge := global.At(ei)
		if _, isUserTable := private[ge.Name]; isUserTable {
			for _, up := range uploads {
				if !up.payload.Has(ge.Name) {
					continue
				}
				pe := up.payload.Entry(ge.Name)
				u := up.from
				copy(ge.Data[u*ge.Cols:(u+1)*ge.Cols], pe.Data[u*pe.Cols:(u+1)*pe.Cols])
			}
			continue
		}
		acc := make([]float64, len(ge.Data))
		var carried bool
		for i, up := range uploads {
			if !up.payload.Has(ge.Name) {
				continue
			}
			carried = true
			w := weights[i] / totalW * factors[i]
			pd := up.payload.Get(ge.Name)
			for j := range acc {
				acc[j] += w * (pd[j] - ge.Data[j])
			}
		}
		if !carried {
			continue
		}
		for j := range acc {
			ge.Data[j] += acc[j]
		}
	}
}

// TestFoldMatchesNormalizedReduceOracle bounds the one-time rounding
// shift of folding every round: the fold sums raw-weighted deltas and
// scales by 1/W once, the replaced reduce normalized every weight
// first. After one aggregation step each shared coordinate must agree
// with the oracle within
//
//	|fold − oracle| ≤ 2(n+3)·ε·(|g| + Σᵢ (wᵢ/W)·fᵢ·|pᵢ − g|)
//
// for n uploads, weights wᵢ, clip factors fᵢ and ε = 2⁻⁵² — twice the
// textbook error bound of an n-term sum, plus a rounding each for the
// weight product, the 1/W scale and the final add. Routed private rows
// must be bit-identical. Covers FedAvg and norm-clip, with full and
// with partial (entry-skipping) payloads.
func TestFoldMatchesNormalizedReduceOracle(t *testing.T) {
	const n = 12
	for _, tc := range []struct {
		name    string
		agg     Aggregator
		partial bool
	}{
		{"fedavg/full", AggFedAvg, false},
		{"fedavg/partial", AggFedAvg, true},
		{"norm-clip/full", AggNormClip, false},
		{"norm-clip/partial", AggNormClip, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := robustTestSim(t, func(c *Config) {
				c.Aggregator = tc.agg
				c.ClipNorm = 1.2
			})
			before := s.global.Params().Clone()
			uploads := make([]upload, 0, n)
			for u := 0; u < n; u++ {
				p := before.Clone()
				p.AddNoise(mathx.NewStreamRand(4321, uint64(u)).NormFloat64, 0.02*float64(u%5+1))
				if tc.partial {
					switch u % 3 {
					case 1:
						p = p.Without(model.GMFUserEmb)
					case 2:
						p = p.Filter(model.GMFItemEmb)
					}
				}
				uploads = append(uploads, upload{from: u, payload: p})
			}

			// The oracle's inputs, taken before the fold recycles the
			// payloads: private copies, data-size weights and the clip
			// factors against the pre-step global model.
			oracleUploads := make([]upload, n)
			weights := make([]float64, n)
			factors := make([]float64, n)
			for i, up := range uploads {
				oracleUploads[i] = upload{from: up.from, payload: up.payload.Clone()}
				weights[i] = float64(len(s.cfg.Dataset.Train[up.from]))
				factors[i] = 1
				if tc.agg == AggNormClip {
					factors[i], _ = s.clipFactor(up.payload)
				}
			}
			want := before.Clone()
			oracleNormalizedReduce(want, s.privateSet, oracleUploads, weights, factors)

			foldUploads(s, uploads)
			got := s.global.Params()
			if tc.agg == AggNormClip {
				if c := s.Resilience().ClippedUploads; c == 0 || c == n {
					t.Fatalf("ClippedUploads = %d of %d; the case must clip some uploads, not all", c, n)
				}
			}

			var totalW float64
			for _, w := range weights {
				totalW += w
			}
			const eps = 0x1p-52
			var worst float64 // largest |fold − oracle| as a fraction of its bound
			for ei := 0; ei < got.Len(); ei++ {
				ge, we, be := got.At(ei), want.At(ei), before.At(ei)
				if _, isUserTable := s.privateSet[ge.Name]; isUserTable {
					for j := range ge.Data {
						if ge.Data[j] != we.Data[j] {
							t.Fatalf("%s[%d]: routed row %v != oracle %v", ge.Name, j, ge.Data[j], we.Data[j])
						}
					}
					continue
				}
				for j := range ge.Data {
					var mag float64
					for i, up := range oracleUploads {
						if up.payload.Has(ge.Name) {
							mag += weights[i] / totalW * factors[i] * math.Abs(up.payload.Get(ge.Name)[j]-be.Data[j])
						}
					}
					bound := 2 * (n + 3) * eps * (math.Abs(be.Data[j]) + mag)
					diff := math.Abs(ge.Data[j] - we.Data[j])
					if diff > bound {
						t.Fatalf("%s[%d]: fold %v, oracle %v: |diff| %g exceeds bound %g", ge.Name, j, ge.Data[j], we.Data[j], diff, bound)
					}
					if bound > 0 {
						worst = max(worst, diff/bound)
					}
				}
			}
			t.Logf("largest fold/oracle difference: %.3f of the bound", worst)
		})
	}
}
