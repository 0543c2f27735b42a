package gossip

import (
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
)

func gossipTestDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 30, NumItems: 100, NumCommunities: 3,
		MeanItemsPerUser: 18, MinItemsPerUser: 6, Affinity: 0.9, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SplitLeaveOneOut(3)
	return d
}

func gossipConfig(d *dataset.Dataset) Config {
	return Config{
		Dataset: d,
		Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		Rounds:  5,
		Train:   model.TrainOptions{Epochs: 1},
		Seed:    1,
	}
}

// TestNewValidation covers the checks of gossip's own fields (simcore's
// TestValidate covers the shared ones): each rejected config's error
// carries the gossip: prefix and names what it rejects.
func TestNewValidation(t *testing.T) {
	d := gossipTestDataset(t)
	for _, tc := range []struct {
		want   string
		mutate func(*Config)
	}{
		{"Config.OutDegree", func(c *Config) { c.OutDegree = d.NumUsers }},
		{"Config.WakeProb", func(c *Config) { c.WakeProb = 1.5 }},
		{"Config.ExplorationRatio", func(c *Config) { c.ExplorationRatio = -0.5 }},
		{"model shape 31/100", func(c *Config) { c.Factory = model.NewGMFFactory(d.NumUsers+1, d.NumItems, 4) }},
	} {
		cfg := gossipConfig(d)
		tc.mutate(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "gossip: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New error %v, want a gossip: error naming it", tc.want, err)
		}
	}
}

func TestViewsArePOutRegular(t *testing.T) {
	d := gossipTestDataset(t)
	s, err := New(gossipConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < d.NumUsers; u++ {
		view := s.View(u)
		if len(view) != 3 {
			t.Fatalf("node %d view size %d, want 3 (default P)", u, len(view))
		}
		seen := map[int]struct{}{}
		for _, v := range view {
			if v == u {
				t.Fatalf("node %d has self-loop", u)
			}
			if v < 0 || v >= d.NumUsers {
				t.Fatalf("node %d view member %d out of range", u, v)
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("node %d duplicate view member %d", u, v)
			}
			seen[v] = struct{}{}
		}
	}
}

type recordingObserver struct {
	msgs   []Message
	rounds int
}

func (o *recordingObserver) OnReceive(msg Message) { o.msgs = append(o.msgs, msg) }
func (o *recordingObserver) OnRoundEnd(int)        { o.rounds++ }

func TestMessagesFlowAlongViews(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	obs := &recordingObserver{}
	cfg.Observer = obs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if obs.rounds != cfg.Rounds {
		t.Fatalf("rounds = %d", obs.rounds)
	}
	// With WakeProb 1 every node sends exactly once per round.
	if len(obs.msgs) != d.NumUsers*cfg.Rounds {
		t.Fatalf("messages = %d, want %d", len(obs.msgs), d.NumUsers*cfg.Rounds)
	}
	for _, msg := range obs.msgs {
		if msg.From == msg.To {
			t.Fatal("self-delivery")
		}
		if msg.Params == nil || msg.Params.Len() == 0 {
			t.Fatal("empty payload")
		}
	}
}

func TestWakeProbThrottlesTraffic(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.WakeProb = 0.3
	cfg.Rounds = 10
	obs := &recordingObserver{}
	cfg.Observer = obs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	expected := 0.3 * float64(d.NumUsers*cfg.Rounds)
	if got := float64(len(obs.msgs)); got < 0.5*expected || got > 1.5*expected {
		t.Fatalf("messages = %v, want ~%v", got, expected)
	}
}

func TestViewRefreshChangesNeighbours(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 40
	cfg.ViewRefreshRate = 0.5 // mean 2 rounds, fast churn
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.View(0)
	s.Run()
	after := s.View(0)
	same := len(before) == len(after)
	if same {
		for i := range before {
			if before[i] != after[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("views never refreshed over 40 fast-churn rounds")
	}
}

func TestStaticGraphKeepsViews(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.StaticGraph = true
	cfg.Rounds = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.View(0)
	s.Run()
	after := s.View(0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("static graph refreshed a view")
		}
	}
}

func TestGossipTrainingImprovesUtility(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 20
	cfg.Train.Epochs = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.UtilityHR(10, 30)
	s.Run()
	after := s.UtilityHR(10, 30)
	if after <= before {
		t.Fatalf("gossip training did not improve HR: %.3f -> %.3f", before, after)
	}
}

func TestPersGossipPrefersSimilarPeers(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Variant = PersGossip
	cfg.Rounds = 25
	cfg.ViewRefreshRate = 0.5
	cfg.ExplorationRatio = 0.2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// After training, views should over-represent same-community peers
	// relative to the population share.
	var sameView, totalView int
	for u := 0; u < d.NumUsers; u++ {
		for _, v := range s.View(u) {
			totalView++
			if d.PlantedCommunity[u] == d.PlantedCommunity[v] {
				sameView++
			}
		}
	}
	popShare := 1.0 / 3.0 // 3 balanced communities
	viewShare := float64(sameView) / float64(totalView)
	if viewShare < popShare {
		t.Fatalf("pers-gossip views not taste-biased: %.3f < population %.3f", viewShare, popShare)
	}
}

func TestShareLessGossipNeverLeaksUserEmbeddings(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Policy = defense.ShareLess{Tau: 0.5}
	obs := &recordingObserver{}
	cfg.Observer = obs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, msg := range obs.msgs {
		if msg.Params.Has(model.GMFUserEmb) {
			t.Fatal("share-less gossip payload contained user embeddings")
		}
	}
	if hr := s.UtilityHR(10, 30); hr < 0 || hr > 1 {
		t.Fatalf("utility out of range: %v", hr)
	}
}

func TestVariantString(t *testing.T) {
	if RandGossip.String() != "rand-gossip" || PersGossip.String() != "pers-gossip" {
		t.Fatal("variant names changed; experiment output depends on them")
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant must still stringify")
	}
}
