package simcore

import (
	"slices"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/transport"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 12, NumItems: 40, NumCommunities: 2,
		MeanItemsPerUser: 8, MinItemsPerUser: 4, Affinity: 0.9, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Dataset: d, Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 4), Rounds: 2}
}

// TestValidate covers every shared field once for both simulators: the
// error carries the caller's prefix and names the field.
func TestValidate(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"Dataset", func(c *Config) { c.Dataset = nil }},
		{"Factory", func(c *Config) { c.Factory = nil }},
		{"Rounds", func(c *Config) { c.Rounds = 0 }},
		{"FaultPlan", func(c *Config) { c.FaultPlan = &transport.FaultPlan{DropProb: 1.5} }},
		{"ChurnPlan", func(c *Config) { c.ChurnPlan = &transport.ChurnPlan{LeaveProb: 2} }},
		{"Byzantine", func(c *Config) { c.Byzantine = &attack.Byzantine{Fraction: -1} }},
	}
	for _, p := range []Protocol{Fed, Gossip} {
		for _, tc := range cases {
			cfg := testConfig(t)
			tc.mutate(&cfg)
			_, err := New(p, cfg)
			if err == nil || !strings.HasPrefix(err.Error(), p.String()+": Config."+tc.field) {
				t.Errorf("%s %s: New error %v, want %q", p, tc.field, err, p.String()+": Config."+tc.field+"…")
			}
		}
	}
}

// TestNewDefaults checks the shared defaults and the worker clamp.
func TestNewDefaults(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 64
	c, err := New(Fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Policy.(defense.FullSharing); !ok {
		t.Errorf("Policy defaults to %T, want defense.FullSharing", c.Policy)
	}
	if _, ok := c.Transport.(*transport.Inproc); !ok {
		t.Errorf("Transport defaults to %T, want *transport.Inproc", c.Transport)
	}
	if c.Workers != cfg.Dataset.NumUsers || c.Eval.Workers() != c.Workers {
		t.Errorf("workers %d (eval %d), want the user count %d", c.Workers, c.Eval.Workers(), cfg.Dataset.NumUsers)
	}
	if c.Membership != nil {
		t.Error("membership built without a ChurnPlan")
	}
}

// TestCounterTable pins each simulator's counters in the order they
// register: the Prometheus exposition and the rendered resilience
// tables follow it.
func TestCounterTable(t *testing.T) {
	names := func(p Protocol) []string {
		var out []string
		for _, k := range p.Owned() {
			out = append(out, strings.TrimPrefix(Counters[k].Metric, "resilience_"))
		}
		return out
	}
	fed := []string{"blackouts", "deliver_failures", "upload_failures", "stragglers", "quorum_misses",
		"joins", "leaves", "rejoins", "byzantine_uploads", "clipped_uploads"}
	gossip := []string{"lost_pushes", "skipped_peers", "absent_skips", "joins", "leaves", "rejoins",
		"stale_resets", "byzantine_pushes"}
	if got := names(Fed); !slices.Equal(got, fed) {
		t.Errorf("fed counters %v, want %v", got, fed)
	}
	if got := names(Gossip); !slices.Equal(got, gossip) {
		t.Errorf("gossip counters %v, want %v", got, gossip)
	}
	for k, c := range Counters {
		if !strings.HasPrefix(c.Metric, "resilience_") || c.Owners == 0 {
			t.Errorf("counter %d %+v: want a resilience_ name and an owner", k, c)
		}
	}
}

// TestCorruptCountsPerProtocol checks that a Byzantine corruption lands
// on the caller's counter and that an honest participant is left alone.
func TestCorruptCountsPerProtocol(t *testing.T) {
	for _, tc := range []struct {
		p    Protocol
		want Counter
	}{{Fed, ByzantineUploads}, {Gossip, ByzantinePushes}} {
		cfg := testConfig(t)
		cfg.Byzantine = &attack.Byzantine{Kind: attack.ByzSignFlip, Fraction: 0.5, Scale: 1, Seed: 3}
		c, err := New(tc.p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := cfg.Factory(1)
		for u := range cfg.Dataset.NumUsers {
			c.Corrupt(0, u, m.Params().Clone(), m.Params())
		}
		var adversaries int64
		for u := range cfg.Dataset.NumUsers {
			if cfg.Byzantine.IsAdversary(u) {
				adversaries++
			}
		}
		if got := c.Counts(); adversaries == 0 || got[tc.want] != adversaries || got[ByzantineUploads]+got[ByzantinePushes] != adversaries {
			t.Errorf("%s: counts %v after %d adversaries, want all on %s", tc.p, got, adversaries, Counters[tc.want].Metric)
		}
	}
}
