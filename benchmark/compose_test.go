package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"

	"github.com/collablearn/ciarec/internal/experiments"
)

// TestComposeMatchesExperiments holds every workload cell's composition
// to the experiments runner it mirrors: untraced and with every timing
// decorator on, the attack result (AAC series included), the utility
// series and the transport traffic must equal
// experiments.RunFLCIA/RunGLCIA's for the same options. Cells run 3
// rounds, except Share-less cells: their fictive-user refits draw from
// a stream of their own, and a drifted stream first changes the
// accuracies after a few refits, so they run all 25.
func TestComposeMatchesExperiments(t *testing.T) {
	for _, w := range workloads {
		for i, cs := range w.Cells {
			t.Run(fmt.Sprintf("%s/%d-%s-%s", w.Name, i, cs.Dataset, cs.Family), func(t *testing.T) {
				s := cs.spec(referenceSeed)
				s.GLRounds = 3
				if !cs.ShareLess {
					s.Rounds = 3
				}
				want := reference(t, cs, s)
				for _, traced := range []bool{false, true} {
					var p *probes
					if traced {
						p = newProbes()
					}
					c, err := build(cs, s, p)
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < c.rounds; r++ {
						c.runRound()
					}
					got, stats := c.result(), c.tr.Stats()
					if err := c.close(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want.Attack) {
						t.Errorf("traced=%v: attack %+v, want %+v", traced, got, want.Attack)
					}
					if len(c.utility) != 0 || len(want.Utility) != 0 {
						if !reflect.DeepEqual(c.utility, want.Utility) {
							t.Errorf("traced=%v: utility %v, want %v", traced, c.utility, want.Utility)
						}
					}
					if stats != want.Traffic {
						t.Errorf("traced=%v: traffic %+v, want %+v", traced, stats, want.Traffic)
					}
					if traced && (p.train.calls.Load() == 0 || p.send.calls.Load() == 0 || p.scoreCalls() == 0) {
						t.Errorf("decorators saw no calls: train %d send %d score %d",
							p.train.calls.Load(), p.send.calls.Load(), p.scoreCalls())
					}
				}
			})
		}
	}
}

func reference(t *testing.T, cs cellSpec, s experiments.Spec) experiments.RunResult {
	t.Helper()
	d, err := experiments.MakeDataset(cs.Dataset, s)
	if err != nil {
		t.Fatal(err)
	}
	experiments.SplitFor(cs.Family, d)
	var res experiments.RunResult
	if cs.Variant == 0 {
		utility := experiments.UtilityNone
		if cs.Utility {
			utility = experiments.UtilityHR
		}
		res, err = experiments.RunFLCIA(experiments.FLOpts{Data: d, Family: cs.Family, Policy: cs.policy(), Spec: s, Utility: utility})
	} else {
		res, err = experiments.RunGLCIA(experiments.GLOpts{Data: d, Family: cs.Family, Policy: cs.policy(), Variant: cs.Variant, Spec: s})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracedPassAttributesRounds runs one traced pass of the socket
// workload (the streaming-fold path, observed off the coordinator) and
// checks the trace is complete: the reference digests reproduce, no
// span is dropped, and the adversary callback windows leave at most 10%
// of the median round unattributed.
func TestTracedPassAttributesRounds(t *testing.T) {
	w := workloadByName("fl-socket-c8")
	l := newLayerStats()
	p, err := runPass(w, referenceSeed, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
	m := l.metrics(0, []*pass{p})
	if d := m["obs.dropped_spans"]; d != 0 {
		t.Errorf("dropped %v spans", d)
	}
	if u, r := m["round.unattributed_ms"], median(p.roundMS); u > 0.1*r {
		t.Errorf("unattributed %.3f ms of a %.3f ms median round", u, r)
	}
	if m["transport.send_calls"] == 0 || m["fed.parallel_ms"] == 0 {
		t.Errorf("traced pass recorded no sends or windows: %v", m)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json in step with the
// workloads and metrics the program reports, and within the limits its
// format allows.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var maxBound, setupBound float64
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].Name || m.Unit != endToEndMetrics[i].Unit {
			t.Errorf("end_to_end %d: %s %s, program %v", i, m.Name, m.Unit, endToEndMetrics[i])
		}
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: malformed %+v", m.Name, m)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].Name || m.Unit != perLayerMetrics[i].Unit {
			t.Errorf("per_layer %d: %s %s, program %v", i, m.Name, m.Unit, perLayerMetrics[i])
		}
		if !name.MatchString(m.Name) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: malformed %+v", m.Name, m)
		}
	}
}
