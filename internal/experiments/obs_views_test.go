package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/collablearn/ciarec/internal/transport"
)

// TestRegistryViewsAgree pins the deduplicated counter plumbing: the
// obs registry is the rendering source of truth, and RunResult's other
// view, transport.Stats, must agree with it exactly. One eventful run
// (churn + Byzantine + trimmed mean) checks both surfaces at once:
//
//   - transport.StatsSnapshot of the Stats struct equals the
//     registry's transport_* values sample for sample;
//   - the scenario's metrics_out dump round-trips to the same
//     snapshot.
//
// The resilience_* views are held to the simulators' Resilience()
// accounting by the fed and gossip packages' own tests.
func TestRegistryViewsAgree(t *testing.T) {
	sc := ChurnByzScenario()
	sc.MetricsOut = filepath.Join(t.TempDir(), "metrics.json")
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("RunResult.Metrics not populated")
	}
	if resilienceLine(AttackRow{Metrics: res.Metrics}) == "" {
		t.Fatal("churn-byz scenario produced no resilience activity")
	}

	statsView := transport.StatsSnapshot(res.Traffic)
	if statsView["transport_messages_total"] == 0 {
		t.Fatalf("run recorded no transport traffic: %v", statsView)
	}
	for name, v := range statsView {
		if res.Metrics[name] != v {
			t.Errorf("%s: Stats view %v != registry %v", name, v, res.Metrics[name])
		}
	}

	blob, err := os.ReadFile(sc.MetricsOut)
	if err != nil {
		t.Fatalf("metrics_out dump not written: %v", err)
	}
	dumped := map[string]float64{}
	if err := json.Unmarshal(blob, &dumped); err != nil {
		t.Fatalf("metrics_out dump is not valid JSON: %v", err)
	}
	if len(dumped) != len(res.Metrics) {
		t.Errorf("dump has %d samples, snapshot %d", len(dumped), len(res.Metrics))
	}
	for name, v := range res.Metrics {
		if dumped[name] != v {
			t.Errorf("%s: dumped %v != snapshot %v", name, dumped[name], v)
		}
	}
}
