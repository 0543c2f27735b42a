package experiments

import (
	"fmt"
	"strings"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
)

// This file implements the design-choice ablations (ablation-*) plus
// the Secure-Aggregation extension the paper discusses but does not
// evaluate (§IX). None of these correspond to a numbered table or
// figure; they probe *why* the headline results hold.

// SecureAggRow is one line of the Secure-Aggregation extension study.
type SecureAggRow struct {
	Setting string
	MaxAAC  float64
	Random  float64
}

// RunSecureAggAblation studies the §IX discussion: Secure Aggregation
// (SA) hides individual uploads, so the server only sees the round
// aggregate. The study evaluates three FL configurations on GMF /
// MovieLens-like data:
//
//  1. no SA — the paper's baseline threat model;
//  2. SA with full sharing — the adversary can no longer compare
//     individual models, but the *aggregate still embeds every user's
//     embedding row* (only its owner ever trains it), so scoring each
//     row of the aggregate remains a potent community attack: SA alone
//     does NOT fix FedRec leakage;
//  3. SA + Share-less — user embeddings never leave devices, the
//     aggregate carries no per-user signal, and the attack finally
//     collapses towards random.
func RunSecureAggAblation(spec Spec) ([]SecureAggRow, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	factory, err := MakeFactory("gmf", d, spec)
	if err != nil {
		return nil, err
	}
	k := spec.K(d.NumUsers)
	truths := evalx.TrueCommunities(d, k)
	random := evalx.RandomBound(k, d.NumUsers)
	var rows []SecureAggRow

	// (1) Baseline: ordinary server-side CIA.
	base, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: spec})
	if err != nil {
		return nil, err
	}
	rows = append(rows, SecureAggRow{Setting: "no SA (baseline CIA)", MaxAAC: base.Attack.MaxAAC, Random: random})

	// (2, 3) SA: the adversary only sees the aggregated global model.
	for _, withShareLess := range []bool{false, true} {
		var policy defense.Policy = defense.FullSharing{}
		setting := "SA, full sharing (row-scoring attack)"
		if withShareLess {
			policy = defense.ShareLess{Tau: DefaultShareLessTau}
			setting = "SA + share-less"
		}
		rec := evalx.NewRecorder()
		scratch := factory(0)
		sim, tr, err := newFed(spec, fed.Config{
			Dataset: d,
			Factory: factory,
			Policy:  policy,
			OnRound: func(round int, s *fed.Simulation) {
				// The adversary's whole view is the aggregate. Score
				// every user's row of the global model against every
				// target; under Share-less those rows never learn.
				scratch.Params().CopyFrom(s.Global().Params())
				accs := make([]float64, d.NumUsers)
				scores := make([]float64, d.NumUsers)
				for a := 0; a < d.NumUsers; a++ {
					for u := 0; u < d.NumUsers; u++ {
						scores[u] = scratch.Relevance(u, d.Train[a])
					}
					pred := mathx.TopK(scores, k)
					accs[a] = evalx.Accuracy(pred, truths[a])
				}
				rec.Record(accs)
			},
		})
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		sim.Run()
		aac, _ := rec.MaxAAC()
		rows = append(rows, SecureAggRow{Setting: setting, MaxAAC: aac, Random: random})
	}
	return rows, nil
}

// RenderSecureAggAblation formats the SA study.
func RenderSecureAggAblation(rows []SecureAggRow) string {
	var b strings.Builder
	b.WriteString("== Ablation: Secure Aggregation (extension of §IX; FL, GMF, MovieLens-like) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s MaxAAC=%5.1f%%  random=%4.1f%%\n", r.Setting, 100*r.MaxAAC, 100*r.Random)
	}
	return b.String()
}

// StaticGraphRow is one line of the graph-dynamics ablation.
type StaticGraphRow struct {
	Setting    string
	MaxAAC     float64
	UpperBound float64
	Random     float64
}

// RunStaticGraphAblation probes the related-work claim (§X) that
// gossip's inherent privacy "stems primarily from its randomness and
// dynamics": freezing the communication graph pins each adversary to a
// fixed neighbour set, capping its observation bound and therefore its
// accuracy, while the dynamic graph steadily widens coverage.
func RunStaticGraphAblation(spec Spec) ([]StaticGraphRow, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	var rows []StaticGraphRow
	for _, static := range []bool{false, true} {
		res, err := RunGLCIA(GLOpts{
			Data: d, Family: "gmf", Spec: spec,
			Variant: gossip.RandGossip, StaticGraph: static,
		})
		if err != nil {
			return nil, err
		}
		setting := "dynamic graph (Exp(0.1) view refresh)"
		if static {
			setting = "static graph (frozen views)"
		}
		rows = append(rows, StaticGraphRow{
			Setting:    setting,
			MaxAAC:     res.Attack.MaxAAC,
			UpperBound: res.Attack.UpperBound,
			Random:     res.Attack.RandomBound,
		})
	}
	return rows, nil
}

// RenderStaticGraphAblation formats the graph-dynamics study.
func RenderStaticGraphAblation(rows []StaticGraphRow) string {
	var b strings.Builder
	b.WriteString("== Ablation: gossip graph dynamics (Rand-Gossip, GMF, MovieLens-like) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s MaxAAC=%5.1f%%  upper=%5.1f%%  random=%4.1f%%\n",
			r.Setting, 100*r.MaxAAC, 100*r.UpperBound, 100*r.Random)
	}
	return b.String()
}

// FictiveRow is one line of the Share-less-adaptation ablation.
type FictiveRow struct {
	Setting string
	MaxAAC  float64
	Random  float64
}

// RunFictiveAblation ablates the §IV-C fictive-user embedding: under
// Share-less the adversary receives partial models and needs *some*
// user vector to score them. The fitted e_A is compared against a
// zero vector (no reference basis at all). The fitted embedding should
// preserve substantially more attack accuracy.
func RunFictiveAblation(spec Spec) ([]FictiveRow, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	factory, err := MakeFactory("gmf", d, spec)
	if err != nil {
		return nil, err
	}
	random := evalx.RandomBound(spec.K(d.NumUsers), d.NumUsers)

	run := func(zeroVector bool) (float64, error) {
		r, err := newFLRun(FLOpts{Data: d, Policy: defense.ShareLess{Tau: DefaultShareLessTau}, Spec: spec}, factory, nil, 0)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		if zeroVector {
			r.refit = func(int) { r.ev.SetFictive(make([]float64, spec.Dim)) }
		} else {
			r.refit = func(round int) {
				r.ev.RefreshFictive(r.fed.Global().Params(), fictiveEpochs, mathx.NewRand(uint64(round)^0xf17))
			}
		}
		r.run()
		aac, _ := r.rec.MaxAAC()
		return aac, nil
	}

	fitted, err := run(false)
	if err != nil {
		return nil, err
	}
	zero, err := run(true)
	if err != nil {
		return nil, err
	}
	return []FictiveRow{
		{Setting: "fitted fictive user e_A (§IV-C)", MaxAAC: fitted, Random: random},
		{Setting: "zero user vector (no reference)", MaxAAC: zero, Random: random},
	}, nil
}

// RenderFictiveAblation formats the fictive-user study.
func RenderFictiveAblation(rows []FictiveRow) string {
	var b strings.Builder
	b.WriteString("== Ablation: Share-less CIA reference basis (FL, GMF, MovieLens-like) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s MaxAAC=%5.1f%%  random=%4.1f%%\n", r.Setting, 100*r.MaxAAC, 100*r.Random)
	}
	return b.String()
}

// RelevanceRow is one line of the PRME relevance-metric ablation.
type RelevanceRow struct {
	Setting string
	MaxAAC  float64
	Random  float64
}

// RunRelevanceAblation (ablation-relevance) ablates PRME's
// cross-model relevance metric. The raw -‖P_u − L_i‖² score carries a
// target-independent ‖P_u‖² term that varies per model and swamps the
// community signal; the norm-adjusted 2·P_u·L_i − ‖L_i‖² removes it.
func RunRelevanceAblation(spec Spec) ([]RelevanceRow, error) {
	d, err := MakeDataset("foursquare", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("prme", d)
	random := evalx.RandomBound(spec.K(d.NumUsers), d.NumUsers)
	var rows []RelevanceRow
	for _, raw := range []bool{false, true} {
		factory := func(seed uint64) model.Recommender {
			m := model.NewPRME(d.NumUsers, d.NumItems, spec.Dim, seed)
			m.SetRawRelevance(raw)
			return m
		}
		r, err := newFLRun(FLOpts{Data: d, Spec: spec}, factory, nil, 0)
		if err != nil {
			return nil, err
		}
		res := r.runToEnd()
		setting := "norm-adjusted relevance (default)"
		if raw {
			setting = "raw squared-distance relevance"
		}
		rows = append(rows, RelevanceRow{Setting: setting, MaxAAC: res.Attack.MaxAAC, Random: random})
	}
	return rows, nil
}

// RenderRelevanceAblation formats the PRME relevance study.
func RenderRelevanceAblation(rows []RelevanceRow) string {
	var b strings.Builder
	b.WriteString("== Ablation: PRME cross-model relevance metric (FL, foursquare-like) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s MaxAAC=%5.1f%%  random=%4.1f%%\n", r.Setting, 100*r.MaxAAC, 100*r.Random)
	}
	return b.String()
}

// ParticipationRow is one line of the participation/coverage study.
type ParticipationRow struct {
	Setting    string
	MaxAAC     float64
	UpperBound float64
	Random     float64
}

// RunParticipationAblation studies the FL threat model's sensitivity
// to the server's view: the paper assumes the server "may contact all
// or part of the users each round". Sweeping the per-round client
// sampling fraction (and a crash-failure dropout arm) shows that CIA
// degrades gracefully — over enough rounds the server still accumulates
// full coverage, and per-round sparsity mostly slows the attack rather
// than stopping it.
func RunParticipationAblation(spec Spec) ([]ParticipationRow, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	var rows []ParticipationRow
	configs := []struct {
		label    string
		fraction float64
		dropout  float64
	}{
		{"full participation", 0, 0},
		{"50% sampled per round", 0.5, 0},
		{"20% sampled per round", 0.2, 0},
		{"full, 30% upload dropout", 0, 0.3},
	}
	for _, c := range configs {
		res, err := RunFLCIA(FLOpts{
			Data: d, Family: "gmf", Spec: spec,
			ClientFraction: c.fraction, DropoutProb: c.dropout,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ParticipationRow{
			Setting:    c.label,
			MaxAAC:     res.Attack.MaxAAC,
			UpperBound: res.Attack.UpperBound,
			Random:     res.Attack.RandomBound,
		})
	}
	return rows, nil
}

// RenderParticipationAblation formats the participation study.
func RenderParticipationAblation(rows []ParticipationRow) string {
	var b strings.Builder
	b.WriteString("== Ablation: FL participation & failures (GMF, MovieLens-like) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s MaxAAC=%5.1f%%  upper=%5.1f%%  random=%4.1f%%\n",
			r.Setting, 100*r.MaxAAC, 100*r.UpperBound, 100*r.Random)
	}
	return b.String()
}
