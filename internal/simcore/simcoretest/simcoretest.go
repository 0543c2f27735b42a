// Package simcoretest is the replay harness the fed and gossip
// packages' TestReplay share, plus the check that holds a simulator's
// resilience_* registry views to its Resilience struct. Each simulator
// keeps its own case table and digest type; the driver, the
// first-difference report and the counter checks live here once.
package simcoretest

import (
	"bytes"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/simcore"
	"github.com/collablearn/ciarec/internal/transport"
)

// Case is one configuration a replay harness runs on every backend at
// every worker count.
type Case[Config any] struct {
	Name string
	// Rounds is the run's length; 0 keeps the simulator's replay default.
	Rounds int
	Config func(*Config) // applied on top of the simulator's base config
	Comp   param.Compression
	// SameAs names an earlier case whose digest this one must equal.
	SameAs string
}

// Digest is one run reduced to what the backend and the worker count
// must not change: a struct whose fields FirstDiff compares in order.
type Digest interface {
	// Counts returns the run's resilience counters.
	Counts() simcore.Counts
}

// Traffic is the backend-independent share of transport.Stats.
type Traffic struct {
	Messages, Bytes, RawBytes                            int64
	BroadcastMessages, BroadcastBytes, RawBroadcastBytes int64
	InjectedFaults                                       int64
}

// TrafficOf takes st's backend-independent share.
func TrafficOf(st transport.Stats) Traffic {
	return Traffic{
		st.Messages, st.Bytes, st.RawBytes,
		st.BroadcastMessages, st.BroadcastBytes, st.RawBroadcastBytes,
		st.InjectedFaults,
	}
}

// Sum is h's digest, shortened for failure messages.
func Sum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

// FirstDiff names the first field in which got departs from want and
// the two values, or returns "" when they are equal.
func FirstDiff[D any](got, want D) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if gi, wi := g.Field(i).Interface(), w.Field(i).Interface(); gi != wi {
			return fmt.Sprintf("%s = %+v, want %+v", g.Type().Field(i).Name, gi, wi)
		}
	}
	return ""
}

// Replay holds a simulator's determinism contract over cases: each
// case gives one digest on inproc, wire and socket at workers 1 and 3,
// and a case with SameAs gives the named case's digest (replayed on
// demand when -run filtered that case out). Each replay compared with
// the inproc, workers-1 reference is a subtest of its case
// (inproc/workers=3, ..., socket/workers=3), so one departing backend
// does not hide another. When every case ran, every counter p owns in
// simcore.Counters must be above zero in some case.
func Replay[Config any, D Digest](t *testing.T, p simcore.Protocol, cases []Case[Config],
	replay func(t *testing.T, c Case[Config], backend string, workers int) D) {
	t.Helper()
	digests := map[string]D{}
	var exercised simcore.Counts
	ran := 0
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			ran++
			ref := replay(t, c, "inproc", 1)
			for _, backend := range []string{"inproc", "wire", "socket"} {
				for _, workers := range []int{1, 3} {
					if backend == "inproc" && workers == 1 {
						continue
					}
					t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
						if diff := FirstDiff(replay(t, c, backend, workers), ref); diff != "" {
							t.Fatalf("%s on %s at workers %d departs from inproc at workers 1: %s", c.Name, backend, workers, diff)
						}
					})
				}
			}
			if c.SameAs != "" {
				want, ok := digests[c.SameAs]
				if !ok { // the named case was filtered out by -run
					i := slices.IndexFunc(cases, func(o Case[Config]) bool { return o.Name == c.SameAs })
					if i < 0 {
						t.Fatalf("%s: SameAs names no case %q", c.Name, c.SameAs)
					}
					want = replay(t, cases[i], "inproc", 1)
				}
				if diff := FirstDiff(ref, want); diff != "" {
					t.Fatalf("%s departs from %s: %s", c.Name, c.SameAs, diff)
				}
			}
			digests[c.Name] = ref
			for k, v := range ref.Counts() {
				exercised[k] += v
			}
		})
	}
	if ran < len(cases) {
		return // -run selected some cases only
	}
	for _, k := range p.Owned() {
		if exercised[k] == 0 {
			t.Errorf("no case drives %s above zero", simcore.Counters[k].Metric)
		}
	}
}

// MetricViews holds reg's resilience_* views to res, a simulator's
// Resilience struct, after an eventful run: res lists p's counters of
// simcore.Counters in table order, every one is non-zero (otherwise
// the run is too tame to tell the views apart), the registry holds
// exactly one view per counter, registered in table order, and each
// view equals its field.
func MetricViews(t *testing.T, p simcore.Protocol, reg *obs.Registry, res any) {
	t.Helper()
	owned, fields := p.Owned(), reflect.ValueOf(res)
	if fields.NumField() != len(owned) {
		t.Fatalf("%T has %d fields, simcore.Counters gives %s %d counters", res, fields.NumField(), p, len(owned))
	}
	want := map[string]int64{}
	var order []string
	for i, k := range owned {
		name := simcore.Counters[k].Metric
		want[name] = fields.Field(i).Int()
		order = append(order, name)
		if want[name] == 0 {
			t.Errorf("%s (%s) is 0: the run is too tame to tell the views apart (%+v)",
				name, fields.Type().Field(i).Name, res)
		}
	}
	got := map[string]int64{}
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "resilience_") {
			got[name] = int64(v)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resilience views %v, Resilience fields %v", got, want)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var registered []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "resilience_") {
			registered = append(registered, name)
		}
	}
	if !slices.Equal(registered, order) {
		t.Fatalf("resilience views registered as %v, want table order %v", registered, order)
	}
}
