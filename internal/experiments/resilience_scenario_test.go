package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/transport"
)

// TestResilienceScenarioTurnover: the churn-byz acceptance scenario
// really is heavy churn — at least 20% of the membership turns over
// (joins + leaves vs the previous round's population) per round on
// average, proven by replaying the pure membership fold.
func TestResilienceScenarioTurnover(t *testing.T) {
	sc := ChurnByzScenario()
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.makeDataset(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := transport.NewMembership(*spec.ChurnPlan, d.NumUsers)
	m.Advance(0)
	prevPresent := m.NumPresent()
	prevJoins, prevLeaves := m.Joins(), m.Leaves()
	var sum float64
	for round := 1; round < spec.Rounds; round++ {
		m.Advance(round)
		moved := (m.Joins() - prevJoins) + (m.Leaves() - prevLeaves)
		if prevPresent == 0 {
			t.Fatalf("round %d started with an empty membership", round)
		}
		sum += float64(moved) / float64(prevPresent)
		prevPresent = m.NumPresent()
		prevJoins, prevLeaves = m.Joins(), m.Leaves()
	}
	turnover := sum / float64(spec.Rounds-1)
	if turnover < 0.2 {
		t.Fatalf("mean round-over-round turnover %.1f%% < 20%% — the acceptance scenario is too tame", 100*turnover)
	}
}

// TestResilienceScenarioChurnByzEquivalence is the PR's acceptance
// check, driven through the declarative path: the churn-byz scenario
// (≥20% turnover, 10% sign-flip adversaries, trimmed-mean
// aggregation) completes with identical attack metrics, utility curve
// and resilience accounting on every transport backend and worker
// count.
func TestResilienceScenarioChurnByzEquivalence(t *testing.T) {
	run := func(backend string, workers int) RunResult {
		sc := ChurnByzScenario()
		sc.Transport = backend
		sc.Workers = workers
		res, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run("inproc", 1)
	refLine := resilienceLine(AttackRow{Metrics: ref.Metrics})
	for _, key := range []string{"joins=", "leaves=", "rejoins=", "byzantine-uploads="} {
		if !strings.Contains(refLine, key) {
			t.Fatalf("resilience summary %q lacks %q — the scenario exercised nothing", refLine, key)
		}
	}
	if len(ref.Utility) == 0 || ref.BestUtility() <= 0 {
		t.Fatal("the scenario recorded no utility")
	}
	for _, backend := range []string{"inproc", "wire", "socket"} {
		for _, workers := range []int{1, 3} {
			if backend == "inproc" && workers == 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				res := run(backend, workers)
				if !reflect.DeepEqual(res.Attack, ref.Attack) {
					t.Fatalf("attack metrics differ from the reference run:\n  got  %+v\n  want %+v", res.Attack, ref.Attack)
				}
				if len(res.Utility) != len(ref.Utility) {
					t.Fatalf("utility curve length %d != %d", len(res.Utility), len(ref.Utility))
				}
				for r := range ref.Utility {
					if res.Utility[r] != ref.Utility[r] {
						t.Fatalf("utility differs at round %d: %v != %v", r, res.Utility[r], ref.Utility[r])
					}
				}
				if line := resilienceLine(AttackRow{Metrics: res.Metrics}); line != refLine {
					t.Fatalf("resilience accounting %q != reference %q", line, refLine)
				}
			})
		}
	}
}

// TestResilienceScenarioRenderCounters: the rendered scenario table
// carries the resilience counters next to the attack numbers.
func TestResilienceScenarioRenderCounters(t *testing.T) {
	sc := ChurnByzScenario()
	sc.Rounds = 3
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderScenario(sc, res)
	if !strings.Contains(out, "resilience counters per run") {
		t.Fatalf("rendered scenario lacks the resilience table:\n%s", out)
	}
	if !strings.Contains(out, "byzantine-uploads=") {
		t.Fatalf("rendered scenario lacks the Byzantine accounting:\n%s", out)
	}
}
