package planspec_test

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/planspec"
	"github.com/collablearn/ciarec/internal/transport"
)

// plan is what every deployment plan offers the grammar.
type plan interface {
	comparable
	planspec.Plan
	fmt.Stringer
}

// parsers are the four plans' Parse functions, reduced to their error.
var parsers = map[string]func(string) error{
	"fault":     errOf(transport.ParseFaultPlan),
	"churn":     errOf(transport.ParseChurnPlan),
	"byzantine": errOf(attack.ParseByzantine),
	"retry":     errOf(transport.ParseRetryPolicy),
}

func errOf[T any](parse func(string) (T, error)) func(string) error {
	return func(s string) error { _, err := parse(s); return err }
}

// Every plan rejects the same malformed shapes. "seed" is an unsigned
// key of all four; the extras exercise each plan's other value kinds.
func TestPlanSpecRejectsMalformed(t *testing.T) {
	common := []string{
		"seed",           // no "=" on a non-boolean key
		"warp=1",         // unknown key
		"seed=x",         // malformed number
		"seed=-1",        // negative unsigned
		"seed=1,,seed=2", // empty element
		"seed=1,",        // trailing empty element
		",",              // only empty elements
		"-seed=1",        // flag syntax is not spec syntax
		"--seed=1",
		"seed=1,-seed=2",
		"seed =1", // keys are not trimmed inside an element
	}
	extra := map[string][]string{
		"fault":     {"slow-latency=9", "base-latency=-1s", "drop=1.5", "drop=NaN", "from=-1", "from=1.5", "real-sleep=maybe"},
		"churn":     {"leave=NaN", "join=-0.5", "stale-bound=x", "to=-2"},
		"byzantine": {"kind=evil", "kind", "frac=x", "frac=NaN", "scale=NaN", "scale=-1", "scale=Inf", "scale=+Inf"},
		"retry":     {"timeout=9", "backoff=-1ms", "attempts=-1", "attempts=1.5"},
	}
	for name, parse := range parsers {
		for _, spec := range append(common, extra[name]...) {
			if err := parse(spec); err == nil {
				t.Errorf("%s: spec %q accepted", name, spec)
			}
		}
		for _, spec := range []string{"", " ", "default", " default "} {
			if err := parse(spec); err != nil {
				t.Errorf("%s: spec %q: %v", name, spec, err)
			}
		}
	}
}

// roundTrip checks that an accepted spec's plan is valid and that its
// String parses back to the same plan.
func roundTrip[T plan](t *testing.T, parse func(string) (T, error), spec string) {
	p, err := parse(spec)
	if err != nil {
		return
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("spec %q parsed to an invalid plan %+v: %v", spec, p, err)
	}
	q, err := parse(p.String())
	if err != nil || q != p {
		t.Fatalf("spec %q: String %q parses to %+v (%v), want %+v", spec, p.String(), q, err, p)
	}
}

func FuzzPlanSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"default",
		"seed=7,drop=0.05,send-loss=0.05,slow=0.1,slow-latency=500ms",
		"seed=1,bcast-fail=0.02,deliver-loss=0.1,base-latency=5ms,from=2,to=8,real-sleep",
		"seed=5,initial=0.8,leave=0.25,join=0.5,stale-bound=2",
		"kind=scaled-noise,frac=0.25,scale=0.5,seed=7",
		"attempts=6,backoff=5ms,max-backoff=1s,timeout=2s,seed=3",
		"seed=0x10,real-sleep=false",
		"seed=1,,drop=0.1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		roundTrip(t, transport.ParseFaultPlan, spec)
		roundTrip(t, transport.ParseChurnPlan, spec)
		roundTrip(t, attack.ParseByzantine, spec)
		roundTrip(t, transport.ParseRetryPolicy, spec)
	})
}
