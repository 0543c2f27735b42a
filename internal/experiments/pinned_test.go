package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/obs"
)

const pinnedPath = "testdata/pinned.json"

// pinnedExperiment is one experiment run at a spec and rendered as the
// text whose digest testdata/pinned.json holds.
type pinnedExperiment struct {
	name string
	run  func(Spec) (string, error)
}

// pinned renders run's result as its report text plus the typed result
// at full float precision, so a digest of the string pins every
// reported number.
func pinned[T any](run func(Spec) (T, error), render func(T) string) func(Spec) (string, error) {
	return func(s Spec) (string, error) {
		res, err := run(s)
		if err != nil {
			return "", err
		}
		return render(res) + fmt.Sprintf("%+v\n", res), nil
	}
}

// attackRows renders attack rows under title, as the catalogue does.
func attackRows(title string) func([]AttackRow) string {
	return func(r []AttackRow) string { return RenderRows(title, r) }
}

// flExperiments are the FedAvg experiments that do not run through
// RunTable2's cells.
var flExperiments = []pinnedExperiment{
	{"table8", pinned(RunTable8, RenderTable8)},
	{"fig1", pinned(RunFigure1, RenderFigure1)},
	{"sec8c2", pinned(RunAIAComparison, RenderAIAComparison)},
	{"ablation-secureagg", pinned(RunSecureAggAblation, RenderSecureAggAblation)},
	{"ablation-fictive", pinned(RunFictiveAblation, RenderFictiveAblation)},
	{"ablation-relevance", pinned(RunRelevanceAblation, RenderRelevanceAblation)},
	{"compress-ratio", pinned(func(s Spec) ([]CompressionRatioRow, error) {
		return RunCompressionRatio(s, []int{0, 8}, []float64{1})
	}, RenderCompressionRatio)},
	// Share-less is the only RunTargetedFL path that refits the
	// fictive user (its own Seed^0x7a9 stream).
	{"targeted-shareless", func(s Spec) (string, error) {
		d, err := MakeDataset("movielens", s)
		if err != nil {
			return "", err
		}
		SplitFor("gmf", d)
		members, err := RunTargetedFL(d, "gmf", s, d.Train[0], s.K(d.NumUsers),
			defense.ShareLess{Tau: DefaultShareLessTau})
		return fmt.Sprintf("%v\n", members), err
	}},
}

// catalogueExperiments are the catalogue's FedAvg and gossip tables,
// figures, extensions and ablations that no other tolerance-0 test
// covers.
var catalogueExperiments = []pinnedExperiment{
	{"table2", pinned(RunTable2, attackRows("Table II: CIA on FedRecs"))},
	{"table3", pinned(RunTable3, attackRows("Table III: CIA on GossipRecs"))},
	{"table4", pinned(RunTable4, attackRows("Table IV: collusion in Rand-Gossip (GMF, MovieLens-like)"))},
	{"table5", pinned(RunTable5, attackRows("Table V: collusion under Share-less"))},
	{"table6", pinned(RunTable6, attackRows("Table VI: momentum ablation under collusion"))},
	{"table7", pinned(RunTable7, RenderTable7)},
	{"fig3", pinned(RunFigure3, func(p []TradeoffPoint) string {
		return RenderTradeoff("Figure 3: GMF privacy/utility trade-off", "HR", p)
	})},
	{"fig4", pinned(RunFigure4, func(p []TradeoffPoint) string {
		return RenderTradeoff("Figure 4: PRME privacy/utility trade-off", "F1", p)
	})},
	{"fig5", pinned(RunFigure5, RenderFigure5)},
	{"ext-modelfamily", pinned(RunModelFamilyStudy, RenderModelFamilyStudy)},
	{"ext-sparsify", pinned(RunSparsifyStudy, RenderSparsifyStudy)},
	{"ablation-staticgraph", pinned(RunStaticGraphAblation, RenderStaticGraphAblation)},
	{"ablation-participation", pinned(RunParticipationAblation, RenderParticipationAblation)},
}

// TestExperimentOutputsPinned holds every experiment in flExperiments
// and catalogueExperiments byte-identical at the default deployment
// (testSpec at 4 FedAvg and 4 gossip rounds), and again at Workers = 1:
// neither the rounds nor the CIA scoring may depend on the worker
// count. The digests live apart from golden.json because
// TestGoldenDeterminism replays every golden.json cell on every
// backend. After an intentional change, regenerate with
//
//	go test ./internal/experiments/ -run TestExperimentOutputsPinned -update
func TestExperimentOutputsPinned(t *testing.T) {
	spec := testSpec()
	spec.Rounds, spec.GLRounds = 4, 4
	serial := spec
	serial.Workers = 1
	experiments := slices.Concat(flExperiments, catalogueExperiments)
	digest := func(t *testing.T, e pinnedExperiment, s Spec) string {
		text, err := e.run(s)
		if err != nil {
			t.Fatalf("%s at workers %d: %v", e.name, s.Workers, err)
		}
		if title, ok := catalogueTitles[e.name]; ok {
			if first, _, _ := strings.Cut(text, "\n"); first != title {
				t.Errorf("%s: first line %q, want the catalogue title %q", e.name, first, title)
			}
		}
		return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
	}
	// The experiments run as parallel subtests, so the pass at one
	// worker leaves no core idle.
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("run", func(t *testing.T) {
		for _, e := range experiments {
			t.Run(e.name, func(t *testing.T) {
				t.Parallel()
				h := digest(t, e, spec)
				if hs := digest(t, e, serial); hs != h {
					t.Errorf("output digest %s at workers 1 != %s at workers %d", hs, h, spec.Workers)
				}
				mu.Lock()
				got[e.name] = h
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	// A -run filter may select some experiments only: each one that ran
	// is still compared with its pinned digest, but the count check and
	// -update need them all.
	all := len(got) == len(experiments)
	if *updateGolden {
		if !all {
			t.Fatalf("-update rewrites %s whole, but -run selected %d of %d experiments; rerun without a filter", pinnedPath, len(got), len(experiments))
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", pinnedPath)
		return
	}
	blob, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if all && len(want) != len(got) {
		t.Errorf("%s has %d digests, the test produces %d", pinnedPath, len(want), len(got))
	}
	for _, e := range experiments {
		if h, ok := got[e.name]; ok && h != want[e.name] {
			t.Errorf("%s: output digest %s != pinned %s", e.name, h, want[e.name])
		}
	}
}

// TestFLExperimentsHonourKnobs checks that the deployment knobs reach
// every experiment in flExperiments: under a Byzantine population and
// the median rule each run must count poisoned uploads in the spec's
// registry and record trace spans.
//
// The Secure-Aggregation study's baseline row is a RunFLCIA run, which
// registers both anyway, so the study is checked per arm instead. The
// full-sharing SA row must move under the knobs. The Share-less SA
// row's Max AAC is its round-0 accuracy with or without the knobs (its
// user rows never train, so later rounds only fall below it); that arm
// is checked through the trace, which must hold the spans of all three
// equally long federations.
func TestFLExperimentsHonourKnobs(t *testing.T) {
	plain := testSpec()
	plain.Rounds = 2
	knobs := Knobs{Byzantine: "kind=sign-flip,frac=0.2,seed=1", Aggregator: "median"}
	spec := func() Spec {
		s, err := knobs.Apply(plain)
		if err != nil {
			t.Fatal(err)
		}
		s.Metrics = obs.NewRegistry()
		s.Trace = obs.NewTracer(obs.DefaultSpansPerRing)
		return s
	}
	for _, e := range flExperiments {
		if e.name == "ablation-secureagg" {
			continue
		}
		s := spec()
		if _, err := e.run(s); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if n := s.Metrics.Snapshot()["resilience_byzantine_uploads"]; n <= 0 {
			t.Errorf("%s: resilience_byzantine_uploads = %v, want > 0", e.name, n)
		}
		if n := s.Trace.Recorded(); n <= 0 {
			t.Errorf("%s: tracer recorded %d spans, want > 0", e.name, n)
		}
	}

	base, err := RunSecureAggAblation(plain)
	if err != nil {
		t.Fatal(err)
	}
	s := spec()
	poisoned, err := RunSecureAggAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if base[1] == poisoned[1] {
		t.Errorf("ablation-secureagg: row %q is unchanged under the knobs: %+v", base[1].Setting, base[1])
	}
	one := spec()
	d, err := MakeDataset("movielens", one)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	if _, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: one}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Trace.Recorded(), 3*one.Trace.Recorded(); got != want {
		t.Errorf("ablation-secureagg: tracer recorded %d spans, want %d (three federations of %d)",
			got, want, one.Trace.Recorded())
	}
}
