package experiments

import "testing"

// TestCompressionOffByteIdentical pins the compression-off contract:
// the fed-gmf cell with its compression knob explicitly "off" must
// land on the dense golden digest on every backend at every worker
// count, and must not engage the codec's raw-vs-moved accounting
// (RawBytes == Bytes).
func TestCompressionOffByteIdentical(t *testing.T) {
	c := goldenCell(t, "fed-gmf")
	c.knobs.Compression = "off"
	var ref cellDigest
	for i, p := range replays {
		got, res := runCell(t, c, p)
		if st := res.Traffic; st.RawBytes != st.Bytes || st.RawBroadcastBytes != st.BroadcastBytes {
			t.Errorf("%s: compression off but raw accounting diverged: %+v", p, st)
		}
		if i == 0 {
			ref = got
		} else if msg := firstDiff(got, ref); msg != "" {
			t.Errorf("%s vs %s: %s", p, replays[0], msg)
		}
	}

	// Compression off must land exactly on the dense fed-gmf cell, and
	// the compressed cells must not: otherwise they would pin a codec
	// that never engaged. Architecture-gated like TestGoldenDeterminism.
	want := readGolden(t)
	if msg := firstDiff(ref, want["fed-gmf"]); msg != "" {
		t.Errorf("compression-off run vs golden fed-gmf: %s", msg)
	}
	for _, k := range []string{"fed-gmf-compressed8", "fed-gmf-compressed16"} {
		if want[k].Chain == "" {
			t.Errorf("golden file is missing %s (regenerate with -update)", k)
		}
		if want[k].Chain == ref.Chain {
			t.Errorf("%s equals the dense chain — quantization never engaged", k)
		}
	}
}
