package experiments

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// catalogueTitles is the first line each catalogue experiment renders.
var catalogueTitles = map[string]string{
	"ablation-fictive":       "== Ablation: Share-less CIA reference basis (FL, GMF, MovieLens-like) ==",
	"ablation-participation": "== Ablation: FL participation & failures (GMF, MovieLens-like) ==",
	"ablation-relevance":     "== Ablation: PRME cross-model relevance metric (FL, foursquare-like) ==",
	"ablation-secureagg":     "== Ablation: Secure Aggregation (extension of §IX; FL, GMF, MovieLens-like) ==",
	"ablation-staticgraph":   "== Ablation: gossip graph dynamics (Rand-Gossip, GMF, MovieLens-like) ==",
	"compress-ratio":         "== Extension: wire compression × sparsification vs utility and all three attacks (FL, GMF, MovieLens-like) ==",
	"ext-modelfamily":        "== Extension: CIA across model families (FL, MovieLens-like) ==",
	"ext-sparsify":           "== Extension: top-k update sparsification vs CIA (FL, GMF, MovieLens-like) ==",
	"fig1":                   "== Figure 1: health-vulnerable community (Foursquare-like, FL, GMF) ==",
	"fig3":                   "== Figure 3: GMF privacy/utility trade-off ==",
	"fig4":                   "== Figure 4: PRME privacy/utility trade-off ==",
	"fig5":                   "== Figure 5: DP-SGD privacy/utility (MovieLens-like, GMF, delta=1e-6, C=2) ==",
	"sec8c2":                 "== Section VIII-C2: AIA as a community-inference proxy (FL, GMF, MovieLens-like) ==",
	"sec8e":                  "== Section VIII-E: universality (non-iid classification, FL, 1-hidden-layer MLP) ==",
	"table2":                 "== Table II: CIA on FedRecs ==",
	"table3":                 "== Table III: CIA on GossipRecs ==",
	"table4":                 "== Table IV: collusion in Rand-Gossip (GMF, MovieLens-like) ==",
	"table5":                 "== Table V: collusion under Share-less ==",
	"table6":                 "== Table VI: momentum ablation under collusion ==",
	"table7":                 "== Table VII: Max AAC vs community size K (FL, GMF, MovieLens-like) ==",
	"table8":                 "== Table VIII: entropy-MIA as a community-inference proxy (FL, GMF, MovieLens-like) ==",
	"table9":                 "== Table IX: temporal complexity of CIA vs proxy attacks ==",
}

// TestExperimentCatalogue: the catalogue lists the 22 experiments once,
// sorted by id, and each id runs its own runner through its own
// renderer, which the title of the rendered output checks.
// TestExperimentOutputsPinned checks the titles of the experiments it
// pins; the rest run here, at 2 rounds.
func TestExperimentCatalogue(t *testing.T) {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	if want := slices.Sorted(maps.Keys(catalogueTitles)); !slices.Equal(ids, want) {
		t.Fatalf("catalogue ids\n%v\nwant (sorted, unique)\n%v", ids, want)
	}
	if _, ok := ExperimentByID("table10"); ok {
		t.Fatal("ExperimentByID found an id the catalogue does not list")
	}
	for _, id := range ids {
		if e, ok := ExperimentByID(id); !ok || e.ID != id {
			t.Fatalf("ExperimentByID(%q) = %q, %v", id, e.ID, ok)
		}
	}

	pinned := map[string]bool{}
	for _, e := range slices.Concat(flExperiments, catalogueExperiments) {
		pinned[e.name] = true
	}
	spec := testSpec()
	spec.Rounds, spec.GLRounds = 2, 2
	for _, e := range exps {
		if pinned[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if first, _, _ := strings.Cut(out, "\n"); first != catalogueTitles[e.ID] {
				t.Fatalf("first line %q, want %q", first, catalogueTitles[e.ID])
			}
		})
	}
}
