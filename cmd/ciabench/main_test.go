package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/experiments"
)

// deployment projects a Spec onto the fields the knobs set.
func deployment(s experiments.Spec) []any {
	return []any{
		s.Transport, s.TransportAddr, s.Compression, s.FaultPlan, s.Retry,
		s.ChurnPlan, s.Byzantine, s.Aggregator, s.TrimFraction, s.ClipNorm,
		s.Quorum, s.StragglerDeadline,
	}
}

// TestPresetAsFlags: the churn-byz preset written as ciabench flags
// resolves to the same deployment as the preset's own Spec.
func TestPresetAsFlags(t *testing.T) {
	sc, ok := experiments.ScenarioPreset("churn-byz")
	if !ok {
		t.Fatal("churn-byz preset missing")
	}
	want, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{
		"-exp", "table2",
		"-churn", sc.Churn,
		"-byz", sc.Byzantine,
		"-agg", sc.Aggregator,
		"-trim", "0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.spec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deployment(got), deployment(want)) {
		t.Fatalf("flags resolve to %+v, preset to %+v", deployment(got), deployment(want))
	}
}

// TestBadArgsNameField: bad values fail while the -exp spec resolves,
// before any run, naming what was rejected.
func TestBadArgsNameField(t *testing.T) {
	cases := map[string]string{
		"-exp table2 -compress 4":         `field "compression"`,
		"-exp table2 -addr /tmp/cia.sock": `field "transport_addr"`,
		"-exp table2 -rounds -1":          "-rounds",
	}
	for args, want := range cases {
		o, err := parseArgs(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		if _, err := o.spec(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v does not name %s", args, err, want)
		}
	}
}
