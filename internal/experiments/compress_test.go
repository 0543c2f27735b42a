package experiments

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// compressionOffFedRun is the reference federated workload run through
// the full Options plumbing with an explicitly zero Compression, at a
// caller-chosen worker count. Returns the digest plus the transport's
// traffic accounting so callers can assert the codec layer stayed cold.
func compressionOffFedRun(t *testing.T, backend string, workers int) (string, transport.Stats) {
	t.Helper()
	tr, err := transport.NewOptions(backend, transport.Options{Compression: param.Compression{}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spec := BenchSpec()
	spec.Workers = workers
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	var hr []float64
	sim, err := fed.New(fed.Config{
		Dataset:   d,
		Factory:   model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    4,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		OnRound: func(round int, s *fed.Simulation) {
			hr = append(hr, s.UtilityHR(spec.HRK, 20))
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return hashRun([]*param.Set{sim.Global().Params()}, hr), tr.Stats()
}

// TestCompressionOffByteIdentical pins the compression-off contract:
// threading a zero Compression through transport.Options must leave
// every run byte-identical to the dense codec's golden hash — on every
// backend, at every worker count — and must
// not engage the codec's raw-vs-moved accounting (RawBytes == Bytes).
func TestCompressionOffByteIdentical(t *testing.T) {
	type cell struct {
		backend string
		workers int
	}
	cells := []cell{
		{"inproc", 1}, {"inproc", 4},
		{"wire", 1}, {"wire", 4},
		{"socket", 1}, {"socket", 4},
	}
	hashes := make(map[cell]string, len(cells))
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/workers=%d", c.backend, c.workers), func(t *testing.T) {
			h, st := compressionOffFedRun(t, c.backend, c.workers)
			hashes[cell{c.backend, c.workers}] = h
			if st.RawBytes != st.Bytes || st.RawBroadcastBytes != st.BroadcastBytes {
				t.Errorf("compression off but raw accounting diverged: %+v", st)
			}
		})
	}
	ref := hashes[cells[0]]
	for _, c := range cells[1:] {
		if h := hashes[cell{c.backend, c.workers}]; h != ref {
			t.Errorf("%s/workers=%d hash %s != inproc/workers=1 %s", c.backend, c.workers, h, ref)
		}
	}

	// Compression off must land exactly on the golden file's dense fed
	// hash. Architecture-gated like TestGoldenDeterminism.
	want := readGolden(t)
	if ref != want["fed-gmf"] {
		t.Errorf("compression-off run hashes %s, golden fed-gmf is %s", ref, want["fed-gmf"])
	}
	// And the compressed cells must NOT collide with the dense hash —
	// otherwise the compressed goldens would be pinning a codec that
	// never engaged.
	for _, k := range []string{"fed-gmf-compressed8", "fed-gmf-compressed16"} {
		if want[k] == "" {
			t.Errorf("golden file is missing %s (regenerate with -update)", k)
		}
		if want[k] == ref {
			t.Errorf("%s equals the dense hash — quantization never engaged", k)
		}
	}
}
