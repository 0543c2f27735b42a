package gossip

import (
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// A compressed gossip run — every push quantized through the CPQ1
// codec, coded absolute — must move at least 2× fewer push bytes than
// the dense codec (gossip pushes whole models, so 8-bit quantization
// alone carries the saving).
func TestCompressedGossipSavesBytes(t *testing.T) {
	d := gossipTestDataset(t)
	tr, err := transport.NewOptions("inproc", transport.Options{Compression: param.Compression{Bits: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := gossipConfig(d)
	cfg.Rounds = 3
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := tr.Stats()
	if st.Messages == 0 {
		t.Fatal("no pushes delivered — the test is vacuous")
	}
	if st.Bytes*2 > st.RawBytes {
		t.Errorf("compressed pushes moved %d bytes, dense-equivalent %d — want ≥2× saving",
			st.Bytes, st.RawBytes)
	}
}
