// Package planspec is the one grammar of the deployment-plan specs:
// fault injection (transport.FaultPlan), participant churn
// (transport.ChurnPlan), Byzantine uploads (attack.Byzantine) and RPC
// retry (rpc.RetryPolicy). A spec is a comma-separated list of
// elements, each trimmed of surrounding space: "key=value", or a bare
// "key" for a boolean key, which sets it true. The spec "" is the
// plan's empty plan and "default" its default plan.
//
// A plan declares its keys once, as a Grammar whose Bind puts them on
// a flag.FlagSet bound to the plan's fields. That one declaration
// drives both Parse and String, and the flag package's typed values
// parse the numbers, durations and booleans. Range checks belong to
// the plan's Validate, which Parse runs on every result, so a
// spec-built and a struct-built plan pass the same checks.
package planspec

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"time"
)

// Plan is a deployment plan whose Validate range-checks its fields.
type Plan interface {
	Validate() error
}

// Grammar is one plan type's key declaration.
type Grammar[T Plan] struct {
	// Name prefixes every parse error, e.g. "transport: fault".
	Name string
	// Empty is the plan "" parses to and the base a spec's keys are
	// set on; String omits the keys whose value equals Empty's.
	Empty T
	// Default is the plan "default" parses to.
	Default T
	// Bind declares the plan's keys on fs, bound to p's fields and
	// defaulting to their current values.
	Bind func(fs *flag.FlagSet, p *T)
}

// flags binds a fresh flag set to *p.
func (g Grammar[T]) flags(p *T) *flag.FlagSet {
	fs := flag.NewFlagSet(g.Name, flag.ContinueOnError)
	g.Bind(fs, p)
	return fs
}

// isBool reports whether the flag takes no value, as flag's own
// boolean flags do.
func isBool(f *flag.Flag) bool {
	b, ok := f.Value.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
}

// Parse reads spec into a plan and validates it. An unknown key (an
// empty element or one starting with "-" included), a missing "=" on
// a non-boolean key and a malformed value are errors.
func (g Grammar[T]) Parse(spec string) (T, error) {
	p := g.Empty
	switch spec = strings.TrimSpace(spec); spec {
	case "":
		return p, nil
	case "default":
		return g.Default, nil
	}
	fs := g.flags(&p)
	for _, el := range strings.Split(spec, ",") {
		el = strings.TrimSpace(el)
		k, v, ok := strings.Cut(el, "=")
		f := fs.Lookup(k)
		switch {
		case f == nil:
			return p, fmt.Errorf("%s spec: unknown key %q", g.Name, k)
		case !ok && !isBool(f):
			return p, fmt.Errorf("%s spec %q: want key=value", g.Name, el)
		case !ok:
			v = "true"
		}
		if err := f.Value.Set(v); err != nil {
			return p, fmt.Errorf("%s spec %q: %w", g.Name, el, err)
		}
	}
	return p, p.Validate()
}

// String renders p in the form Parse reads back: the keys in lexical
// order, omitting those whose value equals Empty's, a true boolean
// key bare.
func (g Grammar[T]) String(p T) string {
	empty := g.Empty
	base := g.flags(&empty)
	var els []string
	g.flags(&p).VisitAll(func(f *flag.Flag) {
		switch v := f.Value.String(); {
		case v == base.Lookup(f.Name).Value.String():
		case v == "true" && isBool(f):
			els = append(els, f.Name)
		default:
			els = append(els, f.Name+"="+v)
		}
	})
	return strings.Join(els, ",")
}

// Prob is the range check of a probability key: v must lie in
// [0, 1] (NaN does not).
func Prob(key string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("%s %g outside [0, 1]", key, v)
	}
	return nil
}

// NonNegative is the range check of a count, round or duration key,
// and of a float one, which must also be finite (NaN and +Inf
// rejected).
func NonNegative[V int | time.Duration | float64](key string, v V) error {
	switch {
	case !(v >= 0):
		return fmt.Errorf("%s %v is negative", key, v)
	case float64(v) > math.MaxFloat64:
		return fmt.Errorf("%s %v is not finite", key, v)
	}
	return nil
}

// Check returns a plan's first failed range check under the plan's
// name; nil when all pass.
func Check(name string, errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
