package attack

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
)

func byzPair() (payload, ref *param.Set) {
	payload = param.New()
	payload.Add("emb", 2, 3, []float64{1, 2, 3, 4, 5, 6})
	payload.Add("bias", 1, 2, []float64{0.5, -0.5})
	ref = param.New()
	ref.Add("emb", 2, 3, []float64{0, 1, 2, 3, 4, 5})
	ref.Add("bias", 1, 2, []float64{0, 0})
	return payload, ref
}

func TestByzantineRoundTrip(t *testing.T) {
	pops := []Byzantine{
		DefaultByzantine(),
		{Kind: ByzScaledNoise, Fraction: 0.25, Scale: 0.5, Seed: 7},
		{Kind: ByzCollude, Fraction: 1, Seed: 3},
	}
	for _, b := range pops {
		got, err := ParseByzantine(b.String())
		if err != nil {
			t.Fatalf("ParseByzantine(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("round trip of %q: got %+v want %+v", b.String(), got, b)
		}
	}
	if got, err := ParseByzantine(""); err != nil || got.Enabled() {
		t.Errorf("empty spec should be disabled, got %+v, %v", got, err)
	}
	if got, err := ParseByzantine("default"); err != nil || got != DefaultByzantine() {
		t.Errorf("ParseByzantine(default) = %+v, %v", got, err)
	}
}

func TestByzantineParseErrors(t *testing.T) {
	for _, spec := range []string{
		"kind=evil",    // unknown kind
		"frac=1.5",     // fraction out of range
		"scale=-1",     // negative scale
		"mystery=1",    // unknown key
		"frac",         // no value
		"seed=notanum", // bad uint
		"scale=Inf",    // non-finite scale
	} {
		if _, err := ParseByzantine(spec); err == nil {
			t.Errorf("ParseByzantine(%q): want error, got nil", spec)
		}
	}
	// A struct-built population passes the same checks: an infinite
	// scale would make every coordinate of a scaled-noise upload
	// non-finite.
	for _, scale := range []float64{math.Inf(1), math.NaN()} {
		b := Byzantine{Kind: ByzScaledNoise, Fraction: 0.25, Scale: scale}
		if err := b.Validate(); err == nil {
			t.Errorf("Validate accepted scale %v", scale)
		}
	}
}

func TestByzantineSelectionPure(t *testing.T) {
	b := Byzantine{Kind: ByzSignFlip, Fraction: 0.3, Seed: 5}
	var adversaries int
	for id := 0; id < 1000; id++ {
		first := b.IsAdversary(id)
		if first != b.IsAdversary(id) {
			t.Fatalf("IsAdversary(%d) not stable", id)
		}
		if first {
			adversaries++
		}
	}
	// ~30% of 1000 with generous slack.
	if adversaries < 200 || adversaries > 400 {
		t.Errorf("Fraction=0.3 selected %d/1000 adversaries", adversaries)
	}
	if (Byzantine{Fraction: 0}).IsAdversary(0) {
		t.Error("zero fraction must select nobody")
	}
	if !(Byzantine{Fraction: 1}).IsAdversary(42) {
		t.Error("fraction 1 must select everybody")
	}
}

func TestByzantineSignFlip(t *testing.T) {
	payload, ref := byzPair()
	b := Byzantine{Kind: ByzSignFlip, Fraction: 1, Scale: 2}
	b.Corrupt(0, 0, payload, ref)
	// want ref - 2*(orig - ref); orig emb[0]=1, ref emb[0]=0 → -2.
	wantEmb := []float64{-2, -1, 0, 1, 2, 3}
	for i, got := range payload.Get("emb") {
		if math.Abs(got-wantEmb[i]) > 1e-12 {
			t.Fatalf("emb[%d] = %g, want %g", i, got, wantEmb[i])
		}
	}
	wantBias := []float64{-1, 1}
	for i, got := range payload.Get("bias") {
		if math.Abs(got-wantBias[i]) > 1e-12 {
			t.Fatalf("bias[%d] = %g, want %g", i, got, wantBias[i])
		}
	}
}

func TestByzantineCollude(t *testing.T) {
	payload, ref := byzPair()
	b := Byzantine{Kind: ByzCollude, Fraction: 1}
	b.Corrupt(3, 1, payload, ref)
	for i, got := range payload.Get("emb") {
		if got != ref.Get("emb")[i] {
			t.Fatalf("collude emb[%d] = %g, want echo of ref %g", i, got, ref.Get("emb")[i])
		}
	}
}

func TestByzantineScaledNoiseDeterministic(t *testing.T) {
	b := Byzantine{Kind: ByzScaledNoise, Fraction: 1, Scale: 0.1, Seed: 9}
	p1, ref := byzPair()
	b.Corrupt(2, 4, p1, ref)
	p2, _ := byzPair()
	b.Corrupt(2, 4, p2, ref)
	for i, got := range p1.Get("emb") {
		if got != p2.Get("emb")[i] {
			t.Fatalf("noise not deterministic at emb[%d]: %g vs %g", i, got, p2.Get("emb")[i])
		}
	}
	p3, _ := byzPair()
	b.Corrupt(3, 4, p3, ref) // different round → different stream
	same := true
	for i, got := range p3.Get("emb") {
		if got != p1.Get("emb")[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("noise stream should differ across rounds")
	}
}
