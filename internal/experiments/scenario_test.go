package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestScenarioRoundTrip: every preset survives Encode → DecodeScenario
// unchanged, so a checked-in scenario file reproduces the exact run.
func TestScenarioRoundTrip(t *testing.T) {
	for _, sc := range ScenarioPresets() {
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", sc.Name, err)
		}
		back, err := DecodeScenario(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("%s: round trip changed the scenario:\n  out %+v\n  in  %+v", sc.Name, sc, back)
		}
	}
}

// TestScenarioPresetsResolve: the presets validate and resolve into
// runnable specs with the resilience knobs actually threaded through.
func TestScenarioPresetsResolve(t *testing.T) {
	sc, ok := ScenarioPreset("churn-byz")
	if !ok {
		t.Fatal("churn-byz preset missing")
	}
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.ChurnPlan == nil || !spec.ChurnPlan.Enabled() {
		t.Fatal("churn-byz preset resolved without an enabled churn plan")
	}
	if spec.Byzantine == nil || !spec.Byzantine.Enabled() {
		t.Fatal("churn-byz preset resolved without an enabled Byzantine population")
	}
	if spec.Aggregator.String() != "trimmed-mean" {
		t.Fatalf("churn-byz aggregator = %v, want trimmed-mean", spec.Aggregator)
	}
	if _, ok := ScenarioPreset("no-such"); ok {
		t.Fatal("unknown preset resolved")
	}
}

// minimalScenario is the smallest valid scenario, cloned per test case.
func minimalScenario() Scenario {
	return Scenario{Protocol: "fed", Dataset: "movielens", Family: "gmf"}
}

// TestScenarioValidationNamesField: every rejection must name the
// offending JSON field, the contract `ciabench -scenario` relies on.
func TestScenarioValidationNamesField(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*Scenario)
	}{
		{"protocol", func(sc *Scenario) { sc.Protocol = "p2p" }},
		{"dataset", func(sc *Scenario) { sc.Dataset = "netflix" }},
		{"family", func(sc *Scenario) { sc.Family = "transformer" }},
		{"defense", func(sc *Scenario) { sc.Defense = "prayer" }},
		{"defense", func(sc *Scenario) { sc.Defense = "sparsify:1.5" }},
		{"variant", func(sc *Scenario) { sc.Protocol = "gossip"; sc.Variant = "ring" }},
		{"variant", func(sc *Scenario) { sc.Variant = "rand-gossip" }}, // fed-only misuse
		{"rounds", func(sc *Scenario) { sc.Rounds = -1 }},
		{"local_epochs", func(sc *Scenario) { sc.LocalEpochs = -1 }},
		{"workers", func(sc *Scenario) { sc.Workers = -2 }},
		{"client_fraction", func(sc *Scenario) { sc.ClientFraction = 1.5 }},
		{"dropout_prob", func(sc *Scenario) { sc.DropoutProb = -0.1 }},
		{"dropout_prob", func(sc *Scenario) { sc.DropoutProb = 1 }},
		{"aggregator", func(sc *Scenario) { sc.Aggregator = "krum" }},
		{"aggregator", func(sc *Scenario) { sc.Protocol = "gossip"; sc.Aggregator = "median" }},
		{"trim_fraction", func(sc *Scenario) { sc.TrimFraction = 0.5 }},
		{"clip_norm", func(sc *Scenario) { sc.ClipNorm = -1 }},
		{"clip_norm", func(sc *Scenario) { sc.Aggregator = "norm-clip" }},
		{"quorum", func(sc *Scenario) { sc.Quorum = 2 }},
		{"straggler_deadline", func(sc *Scenario) { sc.StragglerDeadline = "soon" }},
		{"transport", func(sc *Scenario) { sc.Transport = "carrier-pigeon" }},
		{"transport_addr", func(sc *Scenario) { sc.Transport = "inproc"; sc.TransportAddr = "/tmp/cia.sock" }},
		{"compression", func(sc *Scenario) { sc.Compression = "4bit" }},
		{"faults", func(sc *Scenario) { sc.Faults = "drop=2" }},
		{"retry", func(sc *Scenario) { sc.Retry = "attempts=maybe" }},
		{"churn", func(sc *Scenario) { sc.Churn = "leave=2" }},
		{"churn", func(sc *Scenario) { sc.Churn = "seed=1,vanish=0.5" }},
		{"byzantine", func(sc *Scenario) { sc.Byzantine = "kind=polite" }},
		{"users", func(sc *Scenario) { sc.Users = 50 }},
		{"users", func(sc *Scenario) { sc.Dataset = "powerlaw"; sc.Users = 1 }},
		{"items", func(sc *Scenario) { sc.Dataset = "powerlaw"; sc.Users = 10; sc.Items = 0 }},
		{"zipf", func(sc *Scenario) { sc.Zipf = 0.8 }},
		{"communities", func(sc *Scenario) { sc.Dataset = "powerlaw"; sc.Users = 10; sc.Items = 10; sc.Communities = 11 }},
		{"mean_items", func(sc *Scenario) { sc.Dataset = "powerlaw"; sc.Users = 10; sc.Items = 10; sc.MeanItems = -1 }},
	}
	for i, c := range cases {
		sc := minimalScenario()
		c.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("case %d: bad %s accepted: %+v", i, c.field, sc)
			continue
		}
		if want := fmt.Sprintf("field %q", c.field); !strings.Contains(err.Error(), want) {
			t.Errorf("case %d: error %q does not name %s", i, err, want)
		}
	}
	if err := minimalScenario().Validate(); err != nil {
		t.Fatalf("minimal scenario rejected: %v", err)
	}
}

// TestScenarioDecodeRejectsUnknownFields: a typo'd knob fails loudly
// and is named in the error instead of silently running the default.
func TestScenarioDecodeRejectsUnknownFields(t *testing.T) {
	blob := `{"protocol":"fed","dataset":"movielens","family":"gmf","agregator":"median"}`
	_, err := DecodeScenario(strings.NewReader(blob))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "agregator") {
		t.Fatalf("error %q does not name the unknown field", err)
	}
}

// TestScenarioRunsSmall executes tiny fed and gossip scenarios end to
// end through the declarative path, churn and Byzantine knobs active.
func TestScenarioRunsSmall(t *testing.T) {
	fedSC := ChurnByzScenario()
	fedSC.Rounds = 3
	fedSC.Workers = 2
	res, err := RunScenario(fedSC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience == "" {
		t.Fatal("churn-byz run reported no resilience counters")
	}
	if !strings.Contains(res.Resilience, "byzantine-uploads=") {
		t.Fatalf("resilience summary %q lacks byzantine uploads", res.Resilience)
	}
	if res.BestUtility() <= 0 {
		t.Fatal("churn-byz run recorded no utility")
	}

	gsc := Scenario{
		Name: "gossip-churn", Protocol: "gossip", Dataset: "gowalla", Family: "prme",
		Rounds: 4, Workers: 2,
		Knobs: Knobs{
			Churn:     "seed=5,initial=0.8,leave=0.3,join=0.3,stale-bound=2",
			Byzantine: "kind=collude,frac=0.2,seed=9",
		},
	}
	gres, err := RunScenario(gsc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gres.Resilience, "leaves=") {
		t.Fatalf("gossip resilience summary %q lacks churn counters", gres.Resilience)
	}
}

// FuzzScenarioDecode hammers the scenario decoder: any input that
// decodes cleanly must also survive an encode → decode round trip
// unchanged, its knobs must survive the same trip through the
// ciabench flags, and validation must never panic. The committed seed
// corpus covers the presets, a minimal scenario, every knob set at
// once and the documented rejection classes (unknown field, bad
// nested plan, truncation).
func FuzzScenarioDecode(f *testing.F) {
	for _, sc := range ScenarioPresets() {
		blob, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"protocol":"fed","dataset":"movielens","family":"gmf"}`))
	f.Add([]byte(`{"protocol":"gossip","dataset":"gowalla","family":"prme","variant":"pers-gossip","churn":"default","byzantine":"default"}`))
	f.Add([]byte(`{"protocol":"fed","dataset":"movielens","family":"gmf","transport":"faulty:socket","transport_addr":"/tmp/cia.sock","compression":"8bit","faults":"seed=7","retry":"attempts=6,backoff=5ms","aggregator":"norm-clip","clip_norm":2.5,"quorum":0.5,"straggler_deadline":"100ms"}`))
	f.Add([]byte(`{"protocol":"fed","dataset":"movielens","family":"gmf","typo":1}`))
	f.Add([]byte(`{"protocol":"fed","dataset":"movielens","family":"gmf","churn":"leave=2"}`))
	f.Add([]byte(`{"protocol":"fed"`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatalf("decoded scenario failed to encode: %v", err)
		}
		back, err := DecodeScenario(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of %q failed: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\n  first  %+v\n  second %+v", sc, back)
		}
		var flagged Knobs
		fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
		flagged.Flags(fs)
		if err := fs.Parse(knobArgs(sc.Knobs)); err != nil {
			t.Fatalf("flags %q rejected: %v", knobArgs(sc.Knobs), err)
		}
		if !reflect.DeepEqual(sc.Knobs, flagged) {
			t.Fatalf("flag round trip changed the knobs:\n  json  %+v\n  flags %+v", sc.Knobs, flagged)
		}
	})
}
