package fed

import (
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
)

func fedTestDataset(t *testing.T) *dataset.Dataset {
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

func fedConfig(d *dataset.Dataset) Config {
	return Config{
		Dataset: d,
		Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		Rounds:  5,
		Train:   model.TrainOptions{Epochs: 1},
		Seed:    1,
	}
}

func TestNewValidation(t *testing.T) {
	d := fedTestDataset(t)
	bad := []Config{
		{},
		{Dataset: d},
		{Dataset: d, Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 4)},
		{Dataset: d, Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 4), Rounds: 5, ClientFraction: 2},
		{Dataset: d, Factory: model.NewGMFFactory(d.NumUsers+1, d.NumItems, 4), Rounds: 5},
		{Dataset: d, Factory: model.NewGMFFactory(d.NumUsers, d.NumItems+1, 4), Rounds: 5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

type countingObserver struct {
	uploads   int
	rounds    int
	senders   map[int]int
	lastRound int
}

func (o *countingObserver) OnUpload(msg Message) {
	o.uploads++
	if o.senders == nil {
		o.senders = map[int]int{}
	}
	o.senders[msg.From]++
	o.lastRound = msg.Round
	if msg.Params == nil || msg.Params.Len() == 0 {
		panic("empty payload")
	}
}
func (o *countingObserver) OnRoundEnd(round int) { o.rounds++ }

func TestFullParticipationObservations(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	obs := &countingObserver{}
	cfg.Observer = obs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if obs.uploads != d.NumUsers*cfg.Rounds {
		t.Fatalf("uploads = %d, want %d", obs.uploads, d.NumUsers*cfg.Rounds)
	}
	if obs.rounds != cfg.Rounds {
		t.Fatalf("round-end callbacks = %d, want %d", obs.rounds, cfg.Rounds)
	}
	for u := 0; u < d.NumUsers; u++ {
		if obs.senders[u] != cfg.Rounds {
			t.Fatalf("user %d uploaded %d times", u, obs.senders[u])
		}
	}
	if s.Round() != cfg.Rounds {
		t.Fatalf("Round() = %d", s.Round())
	}
}

func TestClientFractionSampling(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.ClientFraction = 0.3
	obs := &countingObserver{}
	cfg.Observer = obs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := int(0.3*float64(d.NumUsers)) * cfg.Rounds
	if obs.uploads != want {
		t.Fatalf("uploads = %d, want %d", obs.uploads, want)
	}
}

func TestTrainingImprovesUtility(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 25
	cfg.Train.Epochs = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.UtilityHR(10, 30)
	s.Run()
	after := s.UtilityHR(10, 30)
	if after <= before {
		t.Fatalf("FedAvg did not improve HR: %.3f -> %.3f", before, after)
	}
	if after < 0.3 {
		t.Fatalf("HR@10 = %.3f after 25 rounds; training is broken", after)
	}
}

func TestShareLessNeverLeaksUserEmbeddings(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Policy = defense.ShareLess{Tau: 0.5}
	leak := false
	cfg.Observer = observerFunc(func(msg Message) {
		if msg.Params.Has(model.GMFUserEmb) {
			leak = true
		}
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if leak {
		t.Fatal("share-less payload contained user embeddings")
	}
	// Global user table must be untouched (stays at init).
	// Utility must still be computable via private rows.
	if hr := s.UtilityHR(10, 30); hr < 0 || hr > 1 {
		t.Fatalf("share-less utility out of range: %v", hr)
	}
}

type observerFunc func(Message)

func (f observerFunc) OnUpload(msg Message) { f(msg) }
func (observerFunc) OnRoundEnd(int)         {}

func TestShareLessPersistsPrivateRows(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 3
	cfg.Policy = defense.ShareLess{Tau: 0.5}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// After training, private rows must exist and differ from the
	// (never-updated) global user table.
	globalRow := s.Global().Params().Entry(model.GMFUserEmb)
	var differs bool
	for u := 0; u < d.NumUsers; u++ {
		row := s.clients[u].privateRows[model.GMFUserEmb]
		if row == nil {
			t.Fatalf("user %d has no persisted private row", u)
		}
		for k := range row {
			if row[k] != globalRow.Data[u*globalRow.Cols+k] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("private rows identical to global init; persistence broken")
	}
}

func TestDPSGDNoisePreservesShape(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 2
	cfg.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.5}
	var sawFull bool
	cfg.Observer = observerFunc(func(msg Message) {
		if msg.Params.Has(model.GMFUserEmb) && msg.Params.Has(model.GMFItemEmb) {
			sawFull = true
		}
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !sawFull {
		t.Fatal("DP-SGD payload missing entries")
	}
}

func TestOnRoundCallback(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	var rounds []int
	cfg.OnRound = func(round int, s *Simulation) {
		rounds = append(rounds, round)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(rounds) != cfg.Rounds || rounds[0] != 0 || rounds[len(rounds)-1] != cfg.Rounds-1 {
		t.Fatalf("OnRound rounds = %v", rounds)
	}
}

func TestUtilityF1RunsOnPRME(t *testing.T) {
	d := fedTestDataset(t)
	// Re-split for F1 (need multi-item test sets).
	d2, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 30, NumItems: 100, NumCommunities: 3,
		MeanItemsPerUser: 18, MinItemsPerUser: 6, Affinity: 0.9, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2.SplitFraction(0.2)
	_ = d
	cfg := Config{
		Dataset: d2,
		Factory: model.NewPRMEFactory(d2.NumUsers, d2.NumItems, 8),
		Rounds:  3,
		Train:   model.TrainOptions{Epochs: 1},
		Seed:    2,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if f1 := s.UtilityF1(10); f1 < 0 || f1 > 1 {
		t.Fatalf("F1 out of range: %v", f1)
	}
}
