// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding result at
// the scaled bench size and prints the rendered table/series, so
//
//	go test -bench=. -benchmem
//
// produces the full reproduction report (EXPERIMENTS.md compares it
// against the paper). Run a single experiment with e.g.
//
//	go test -bench=BenchmarkTable2
//
// Paper-scale runs are available through cmd/ciabench -paper.
package ciarec

import (
	"fmt"
	"sync"
	"testing"

	"github.com/collablearn/ciarec/internal/experiments"
)

// printOnce deduplicates table output across -benchtime iterations.
var printOnce sync.Map

// benchExperiment runs catalogue experiment id at the bench spec and
// prints its rendered output once, however many iterations b.N asks
// for (the runners are deterministic in the seed, so every iteration
// measures the same work).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.BenchSpec())
		if err != nil {
			b.Fatal(err)
		}
		if _, dup := printOnce.LoadOrStore(id, true); !dup {
			fmt.Println(out)
		}
	}
}

func BenchmarkTable2_FedRecsCIA(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable3_GossipCIA(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkTable4_Collusion(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkTable5_CollusionShareLess(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6_Momentum(b *testing.B)           { benchExperiment(b, "table6") }
func BenchmarkTable7_KSweep(b *testing.B)             { benchExperiment(b, "table7") }
func BenchmarkTable8_MIAProxy(b *testing.B)           { benchExperiment(b, "table8") }
func BenchmarkTable9_Complexity(b *testing.B)         { benchExperiment(b, "table9") }
func BenchmarkFigure1_HealthCommunity(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFigure3_GMFTradeoff(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFigure4_PRMETradeoff(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFigure5_DPSGD(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkSection8E_Universality(b *testing.B)    { benchExperiment(b, "sec8e") }
func BenchmarkSection8C_AIAProxy(b *testing.B)        { benchExperiment(b, "sec8c2") }

// The remaining benchmarks cover the design-choice ablations
// (ablation-*) plus the Secure-Aggregation extension of §IX — not
// numbered results in the paper, but the studies that justify them.

func BenchmarkAblation_SecureAggregation(b *testing.B) { benchExperiment(b, "ablation-secureagg") }
func BenchmarkAblation_StaticGraph(b *testing.B)       { benchExperiment(b, "ablation-staticgraph") }
func BenchmarkAblation_FictiveUser(b *testing.B)       { benchExperiment(b, "ablation-fictive") }
func BenchmarkAblation_PRMERelevance(b *testing.B)     { benchExperiment(b, "ablation-relevance") }
func BenchmarkAblation_Participation(b *testing.B)     { benchExperiment(b, "ablation-participation") }
func BenchmarkExtension_ModelFamilies(b *testing.B)    { benchExperiment(b, "ext-modelfamily") }
func BenchmarkExtension_Sparsification(b *testing.B)   { benchExperiment(b, "ext-sparsify") }
