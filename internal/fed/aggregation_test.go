package fed

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/model"
)

// foldUploads drives the server's real streaming folder over the given
// uploads as one fault-free round in which exactly these clients were
// sampled, in this order. Indices resolve in reverse, so the fold's
// cursor must hold every arrival until the earlier ones resolved.
// Weights come from the dataset (len(Train[u])), like in a live round,
// and the folder takes ownership of the payloads: it recycles them into
// the simulation's pool.
func foldUploads(s *Simulation, uploads []upload) {
	sampled := make([]int, len(uploads))
	s.payloads = s.payloads[:0]
	for i, up := range uploads {
		sampled[i] = up.from
		s.payloads = append(s.payloads, up.payload)
	}
	s.fold.start(s.round, sampled)
	for i := len(sampled) - 1; i >= 0; i-- {
		s.fold.resolve(i)
	}
	s.fold.finish()
}

// Hand-crafted aggregation check: with two uploads of known values and
// known weights, every shared entry must land exactly on the
// weighted-delta FedAvg result, while user-embedding rows route from
// their owners.
func TestAggregateWeightedDeltaMath(t *testing.T) {
	d, err := dataset.New("agg", 2, 4, [][]int{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dataset: d,
		Factory: model.NewGMFFactory(2, 4, 2),
		Rounds:  1,
		Seed:    1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	globalBefore := s.Global().Params().Clone()

	// Build two synthetic uploads: global + known per-entry shifts.
	up0 := globalBefore.Clone()
	up1 := globalBefore.Clone()
	for i := range up0.Get(model.GMFOutput) {
		up0.Get(model.GMFOutput)[i] += 1.0
		up1.Get(model.GMFOutput)[i] += 3.0
	}
	// Distinct user rows to verify routing.
	for i := range up0.Get(model.GMFUserEmb) {
		up0.Get(model.GMFUserEmb)[i] = 100
		up1.Get(model.GMFUserEmb)[i] = 200
	}

	foldUploads(s, []upload{
		{from: 0, payload: up0}, // user 0 has 2 items: weight 2
		{from: 1, payload: up1}, // user 1 has 1 item: weight 1
	})

	// h entry: delta = (2/3)*1 + (1/3)*3 = 5/3.
	after := s.Global().Params()
	for i, v := range after.Get(model.GMFOutput) {
		want := globalBefore.Get(model.GMFOutput)[i] + 5.0/3.0
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("h[%d] = %v, want %v", i, v, want)
		}
	}
	// User rows: row 0 from upload 0, row 1 from upload 1.
	ue := after.Entry(model.GMFUserEmb)
	for k := 0; k < ue.Cols; k++ {
		if ue.Data[0*ue.Cols+k] != 100 {
			t.Fatalf("user row 0 not routed from its owner: %v", ue.Data[0*ue.Cols+k])
		}
		if ue.Data[1*ue.Cols+k] != 200 {
			t.Fatalf("user row 1 not routed from its owner: %v", ue.Data[1*ue.Cols+k])
		}
	}
}

// Entries absent from every payload (Share-less user embeddings) must
// leave the global untouched.
func TestAggregateSkipsMissingEntries(t *testing.T) {
	d, err := dataset.New("agg2", 2, 4, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dataset: d,
		Factory: model.NewGMFFactory(2, 4, 2),
		Rounds:  1,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Global().Params().Clone()
	partial := before.Filter(model.GMFItemEmb) // only item embeddings
	for i := range partial.Get(model.GMFItemEmb) {
		partial.Get(model.GMFItemEmb)[i] += 2
	}
	foldUploads(s, []upload{{from: 0, payload: partial}})

	after := s.Global().Params()
	for i, v := range after.Get(model.GMFUserEmb) {
		if v != before.Get(model.GMFUserEmb)[i] {
			t.Fatal("user embeddings changed despite not being shared")
		}
	}
	for i, v := range after.Get(model.GMFItemEmb) {
		if math.Abs(v-(before.Get(model.GMFItemEmb)[i]+2)) > 1e-12 {
			t.Fatal("item embeddings not aggregated")
		}
	}
	for i, v := range after.Get(model.GMFOutput) {
		if v != before.Get(model.GMFOutput)[i] {
			t.Fatal("h changed despite not being shared")
		}
	}
}

// Aggregating zero uploads must be a no-op, not a crash.
func TestAggregateEmptyRound(t *testing.T) {
	d, err := dataset.New("agg3", 2, 4, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dataset: d,
		Factory: model.NewGMFFactory(2, 4, 2),
		Rounds:  1,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Global().Params().Clone()
	foldUploads(s, nil)
	if s.Global().Params().L2Norm() != before.L2Norm() {
		t.Fatal("empty aggregation modified the global model")
	}
}
