package experiments

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// knobArgs renders k as the ciabench flags that set it, one
// -name=value argument per knob.
func knobArgs(k Knobs) []string {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	k.Flags(fs)
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// TestKnobFlagsNameField: a bad value on any of the twelve flags fails
// in Apply with an error naming the knob's JSON field, not the flag.
func TestKnobFlagsNameField(t *testing.T) {
	cases := []struct {
		args  []string
		field string
	}{
		{[]string{"-transport", "carrier-pigeon"}, "transport"},
		{[]string{"-addr", "/tmp/cia.sock"}, "transport_addr"},
		{[]string{"-transport", "faulty:wire", "-addr", "/tmp/cia.sock"}, "transport_addr"},
		{[]string{"-compress", "4"}, "compression"},
		{[]string{"-faults", "drop=2"}, "faults"},
		{[]string{"-retry", "attempts=maybe"}, "retry"},
		{[]string{"-churn", "leave=2"}, "churn"},
		{[]string{"-byz", "kind=polite"}, "byzantine"},
		{[]string{"-agg", "krum"}, "aggregator"},
		{[]string{"-trim", "0.5"}, "trim_fraction"},
		{[]string{"-clip", "-1"}, "clip_norm"},
		{[]string{"-agg", "norm-clip"}, "clip_norm"},
		{[]string{"-quorum", "2"}, "quorum"},
		{[]string{"-straggler-deadline", "soon"}, "straggler_deadline"},
		{[]string{"-straggler-deadline", "-1s"}, "straggler_deadline"},
	}
	for _, c := range cases {
		var k Knobs
		fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
		k.Flags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: flag parse: %v", c.args, err)
		}
		_, err := k.Apply(BenchSpec())
		if err == nil {
			t.Errorf("%q accepted", c.args)
			continue
		}
		if want := fmt.Sprintf("field %q", c.field); !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not name %s", c.args, err, want)
		}
	}
}
