package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// paramsDigest hashes every entry name and the bit pattern of every
// value of s, in entry order.
func paramsDigest(s *param.Set) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < s.Len(); i++ {
		e := s.At(i)
		h.Write([]byte(e.Name))
		for _, v := range e.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShareLessTrainLocalDigest pins Share-less local training of BPR-MF
// and NeuMF at tolerance 0: a few epochs of TrainLocal with the drift
// regularizer on, against a reference that is another model's
// parameters (so every item table is pulled somewhere it would not go
// on its own), must reproduce the recorded parameter digest. The
// directional ShareLessDrift tests only check that drift shrinks the
// distance; this one fails when a step drifts the wrong row or table.
func TestShareLessTrainLocalDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	d := tinyDataset(t)
	for _, c := range []struct {
		name       string
		m, ref     Recommender
		wantDigest string
	}{
		{"bprmf", NewBPRMF(d.NumUsers, d.NumItems, 8, 7), NewBPRMF(d.NumUsers, d.NumItems, 8, 9),
			"7775a2e92dd16ad4b205008b17e9d03f8cf4dc7b1737a3ff8b2f792d4c29d5bf"},
		{"neumf", NewNeuMF(d.NumUsers, d.NumItems, 8, 7), NewNeuMF(d.NumUsers, d.NumItems, 8, 9),
			"dd515ce013e533490700393fbdde23db1f66816a2a99ec6407c5f2c9148cb42b"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := c.ref.Params().Clone()
			r := mathx.NewRand(8)
			for e := 0; e < 4; e++ {
				for u := 0; u < 3; u++ {
					c.m.TrainLocal(d, u, TrainOptions{Rand: r, DriftTau: 2, DriftRef: ref})
				}
			}
			if got := paramsDigest(c.m.Params()); got != c.wantDigest {
				t.Fatalf("Share-less TrainLocal digest %s, want %s", got, c.wantDigest)
			}
		})
	}
}
