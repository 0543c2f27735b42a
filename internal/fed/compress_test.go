package fed

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// The compressed round must actually save wire bytes: the 8-bit
// sparse+delta codec has to move at least 2× fewer upload bytes than
// the dense codec would have (RawBytes is the dense-equivalent
// accounting of the same traffic), and produce a finite model.
func TestCompressedRoundSavesBytes(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 3
	cfg.Workers = 2
	tr, err := transport.NewOptions("wire", transport.Options{Compression: param.Compression{Bits: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	params := s.Global().Params()
	st := tr.Stats()
	if st.RawBytes == 0 || st.Bytes == 0 {
		t.Fatalf("no traffic accounted: %+v", st)
	}
	if st.Bytes*2 > st.RawBytes {
		t.Errorf("compressed uploads moved %d bytes, dense-equivalent %d — want ≥2× saving",
			st.Bytes, st.RawBytes)
	}
	if st.BroadcastBytes*2 > st.RawBroadcastBytes {
		t.Errorf("compressed broadcasts moved %d bytes, dense-equivalent %d — want ≥2× saving",
			st.BroadcastBytes, st.RawBroadcastBytes)
	}
	for i := 0; i < params.Len(); i++ {
		for _, v := range params.At(i).Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("entry %s contains a non-finite value after a compressed run", params.At(i).Name)
			}
		}
	}
}
