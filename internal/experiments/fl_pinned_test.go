package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/obs"
)

const flPinnedPath = "testdata/fl_pinned.json"

// flExperiments are the FedAvg experiments that do not run through
// RunTable2's cells: each renders its result (the table text plus the
// typed result at full float precision), so a digest of the string pins
// every reported number.
var flExperiments = []struct {
	name string
	run  func(Spec) (string, error)
}{
	{"table8", func(s Spec) (string, error) {
		res, err := RunTable8(s)
		return RenderTable8(res) + fmt.Sprintf("%+v\n", res), err
	}},
	{"fig1", func(s Spec) (string, error) {
		res, err := RunFigure1(s)
		return RenderFigure1(res) + fmt.Sprintf("%+v\n", res), err
	}},
	{"sec8c2", func(s Spec) (string, error) {
		res, err := RunAIAComparison(s)
		return RenderAIAComparison(res) + fmt.Sprintf("%+v\n", res), err
	}},
	{"ablation-secureagg", func(s Spec) (string, error) {
		rows, err := RunSecureAggAblation(s)
		return RenderSecureAggAblation(rows) + fmt.Sprintf("%+v\n", rows), err
	}},
	{"ablation-fictive", func(s Spec) (string, error) {
		rows, err := RunFictiveAblation(s)
		return RenderFictiveAblation(rows) + fmt.Sprintf("%+v\n", rows), err
	}},
	{"ablation-relevance", func(s Spec) (string, error) {
		rows, err := RunRelevanceAblation(s)
		return RenderRelevanceAblation(rows) + fmt.Sprintf("%+v\n", rows), err
	}},
	{"compress-ratio", func(s Spec) (string, error) {
		rows, err := RunCompressionRatio(s, []int{0, 8}, []float64{1})
		return RenderCompressionRatio(rows) + fmt.Sprintf("%+v\n", rows), err
	}},
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

// TestFLExperimentOutputsPinned holds every experiment in
// flExperiments byte-identical at the default deployment (testSpec at
// 4 rounds). The digests live apart from golden.json because
// TestGoldenDeterminism replays every golden.json cell on every
// backend. After an intentional change, regenerate with
//
//	go test ./internal/experiments/ -run TestFLExperimentOutputsPinned -update
func TestFLExperimentOutputsPinned(t *testing.T) {
	spec := testSpec()
	spec.Rounds = 4
	got := map[string]string{}
	for _, e := range flExperiments {
		out, err := e.run(spec)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got[e.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flPinnedPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", flPinnedPath)
		return
	}
	blob, err := os.ReadFile(flPinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the test produces %d", flPinnedPath, len(want), len(got))
	}
	for _, e := range flExperiments {
		if got[e.name] != want[e.name] {
			t.Errorf("%s: output digest %s != pinned %s", e.name, got[e.name], want[e.name])
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
