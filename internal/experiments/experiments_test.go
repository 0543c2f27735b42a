package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/gossip"
)

// testSpec trims the bench spec so the whole package tests in ~1 min.
func testSpec() Spec {
	s := BenchSpec()
	s.Rounds = 12
	s.GLRounds = 50
	return s
}

func TestMakeDatasetKnownNames(t *testing.T) {
	spec := testSpec()
	for _, name := range DatasetNames() {
		d, err := MakeDataset(name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.NumUsers < 50 {
			t.Fatalf("%s: degenerate bench size %d", name, d.NumUsers)
		}
	}
	if _, err := MakeDataset("nope", spec); err == nil {
		t.Fatal("unknown dataset must error")
	}
	if _, err := MakeDataset("nope", PaperSpec()); err == nil {
		t.Fatal("unknown paper dataset must error")
	}
}

func TestMakeFactoryFamilies(t *testing.T) {
	spec := testSpec()
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range ModelNames() {
		f, err := MakeFactory(fam, d, spec)
		if err != nil {
			t.Fatal(err)
		}
		if m := f(1); m.Name() != fam {
			t.Fatalf("factory produced %s for %s", m.Name(), fam)
		}
	}
	if _, err := MakeFactory("nope", d, spec); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestSpecK(t *testing.T) {
	s := Spec{KFrac: 0.05}
	if got := s.K(1000); got != 50 {
		t.Fatalf("K(1000) = %d, want 50", got)
	}
	if got := s.K(10); got != 2 {
		t.Fatalf("K floor = %d, want 2", got)
	}
}

// Table II shape: FL CIA far above random on every configuration, and
// GMF more vulnerable than PRME on the same dataset.
func TestTable2Shape(t *testing.T) {
	rows, err := RunTable2(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		if r.Result.MaxAAC < 2*r.Result.RandomBound {
			t.Errorf("%s/%s: MaxAAC %.3f < 2x random %.3f",
				r.Dataset, r.Model, r.Result.MaxAAC, r.Result.RandomBound)
		}
		if r.Result.UpperBound != 1 {
			t.Errorf("%s/%s: FL upper bound %v, want 1", r.Dataset, r.Model, r.Result.UpperBound)
		}
		if r.Result.Best10AAC < r.Result.MaxAAC {
			t.Errorf("%s/%s: Best10 %.3f below MaxAAC %.3f",
				r.Dataset, r.Model, r.Result.Best10AAC, r.Result.MaxAAC)
		}
		byKey[r.Dataset+"/"+r.Model] = r.Result.MaxAAC
	}
	for _, ds := range []string{"foursquare", "gowalla"} {
		if byKey[ds+"/gmf"] <= byKey[ds+"/prme"] {
			t.Errorf("%s: GMF (%.3f) should be more vulnerable than PRME (%.3f)",
				ds, byKey[ds+"/gmf"], byKey[ds+"/prme"])
		}
	}
	if out := RenderRows("Table II", rows); !strings.Contains(out, "MaxAAC") {
		t.Fatal("render output malformed")
	}
}

// Tables II vs III: gossip leaks less than FL (the paper's central
// comparison), while still being attackable where coverage allows.
func TestGossipLeaksLessThanFL(t *testing.T) {
	spec := testSpec()
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	fl, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	gl, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Spec: spec, Variant: gossip.RandGossip})
	if err != nil {
		t.Fatal(err)
	}
	if gl.Attack.MaxAAC >= fl.Attack.MaxAAC {
		t.Fatalf("gossip (%.3f) should leak less than FL (%.3f)", gl.Attack.MaxAAC, fl.Attack.MaxAAC)
	}
	if gl.Attack.UpperBound >= 0.99 {
		t.Fatal("gossip upper bound should be < 1 (partial observation)")
	}
}

// Table IV shape: colluders strictly improve over a single adversary
// and accuracy grows with the coalition (paper: 14.6 → 24.8 → 31 → 45).
func TestCollusionImprovesAttack(t *testing.T) {
	spec := testSpec()
	rows, err := RunTable4(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	single := rows[0].Result.MaxAAC
	top := rows[3].Result.MaxAAC // 20% colluders
	if top <= single {
		t.Fatalf("20%% colluders (%.3f) should beat single adversary (%.3f)", top, single)
	}
	if rows[3].Result.UpperBound <= rows[1].Result.UpperBound {
		t.Fatal("coalition upper bound should grow with colluder count")
	}
}

// Table VI ablation: the momentum tracker must not destroy the
// colluding attack. NOTE (documented divergence, see EXPERIMENTS.md):
// the paper reports momentum *rescuing* collusion (45% vs 17.6%)
// because in its asynchronous gossip the colluders' scores are
// computed on models at wildly different training stages. This
// round-synchronous simulator has far less temporality and a
// deterministic relevance metric, so β = 0 is already strong and
// momentum only needs to stay within range of it.
func TestMomentumAblation(t *testing.T) {
	spec := testSpec()
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	with, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Spec: spec, ColluderFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Spec: spec, ColluderFrac: 0.2, MomentumOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Attack.MaxAAC < 0.6*without.Attack.MaxAAC {
		t.Fatalf("momentum (%.3f) degraded the colluding attack far below beta=0 (%.3f)",
			with.Attack.MaxAAC, without.Attack.MaxAAC)
	}
	random := with.Attack.RandomBound
	if with.Attack.MaxAAC < 2*random || without.Attack.MaxAAC < 2*random {
		t.Fatal("colluding attack should stay well above random in both ablation arms")
	}
}

// Table VII shape: random bound grows with K; attack accuracy stays
// comparatively flat for small K (the paper's point that small
// communities are as detectable).
func TestTable7Shape(t *testing.T) {
	rows, err := RunTable7(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].K < rows[i-1].K {
			t.Fatal("K not increasing")
		}
		if rows[i].RandomBound < rows[i-1].RandomBound {
			t.Fatal("random bound must increase with K")
		}
	}
	for _, r := range rows {
		if r.FullAAC < r.RandomBound {
			t.Errorf("K=%d: full-model AAC %.3f below random %.3f", r.K, r.FullAAC, r.RandomBound)
		}
	}
	if out := RenderTable7(rows); !strings.Contains(out, "Random guess") {
		t.Fatal("render output malformed")
	}
}

// Table VIII shape: CIA beats the paper's entropy-only MIA proxy at
// every threshold; the confidence-guarded extension dominates the
// plain variant.
func TestTable8Shape(t *testing.T) {
	res, err := RunTable8(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if res.CIAMaxAAC <= r.MIAMaxAAC {
			t.Errorf("rho=%.1f: CIA (%.3f) should beat plain MIA (%.3f)", r.Rho, res.CIAMaxAAC, r.MIAMaxAAC)
		}
		if r.GuardedMaxAAC < r.MIAMaxAAC {
			t.Errorf("rho=%.1f: guard should not weaken MIA (%.3f < %.3f)",
				r.Rho, r.GuardedMaxAAC, r.MIAMaxAAC)
		}
		if r.Precision < 0 || r.Precision > 1 || r.GuardedPrecision < 0 || r.GuardedPrecision > 1 {
			t.Errorf("rho=%.1f: precision out of range", r.Rho)
		}
	}
	if out := RenderTable8(res); !strings.Contains(out, "CIA Max AAC") {
		t.Fatal("render output malformed")
	}
}

// Table IX shape: the analytic ordering AIA >> CIA <= MIA holds, and
// the measured timings exist for all three attacks.
func TestTable9Shape(t *testing.T) {
	res, err := RunTable9(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Model
	if cm.AIACost() <= cm.CIACost() {
		t.Fatal("AIA must be analytically costlier than CIA")
	}
	if cm.CIACost() > cm.MIACost() {
		t.Fatal("CIA must not exceed MIA cost when |Vtarget| <= Dmax")
	}
	for _, name := range []string{"cia", "mia", "aia"} {
		if res.Measured[name] <= 0 {
			t.Fatalf("missing measured time for %s", name)
		}
	}
	if res.Measured["aia"] <= res.Measured["cia"] {
		t.Fatal("AIA should measure slower than CIA (it trains N+M models)")
	}
	if out := RenderTable9(res); !strings.Contains(out, "measured") {
		t.Fatal("render output malformed")
	}
}

// Figures 3/4 harness (single dataset to keep tests fast): Share-less
// reduces FL attack accuracy.
func TestTradeoffShareLessHelpsFL(t *testing.T) {
	points, err := runTradeoff(testSpec(), "gmf", []string{"movielens"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6 (3 protocols x 2 policies)", len(points))
	}
	var flFull, flSL *TradeoffPoint
	for i := range points {
		p := &points[i]
		if p.Protocol == "FL" && p.Policy == "full" {
			flFull = p
		}
		if p.Protocol == "FL" && p.Policy == "share-less" {
			flSL = p
		}
	}
	if flFull == nil || flSL == nil {
		t.Fatal("missing FL points")
	}
	if flSL.MaxAAC >= flFull.MaxAAC {
		t.Fatalf("share-less (%.3f) should reduce FL attack accuracy (%.3f)", flSL.MaxAAC, flFull.MaxAAC)
	}
	if out := RenderTradeoff("fig", "HR", points); !strings.Contains(out, "MaxAAC") {
		t.Fatal("render output malformed")
	}
}

// Figure 5 shape: utility collapses as epsilon shrinks; strong noise
// also caps the attack.
func TestFigure5Shape(t *testing.T) {
	spec := testSpec()
	spec.GLRounds = 30 // DP gossip runs are slow; the shape needs few rounds
	points, err := RunFigure5(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(Figure5Epsilons) {
		t.Fatalf("got %d points", len(points))
	}
	var flInf, flOne *DPPoint
	for i := range points {
		p := &points[i]
		if p.Protocol != "FL" {
			continue
		}
		if math.IsInf(p.Epsilon, 1) {
			flInf = p
		}
		if p.Epsilon == 1 {
			flOne = p
		}
	}
	if flInf == nil || flOne == nil {
		t.Fatal("missing FL epsilon endpoints")
	}
	if flOne.Utility >= flInf.Utility {
		t.Fatalf("eps=1 utility (%.3f) should be below eps=inf (%.3f)", flOne.Utility, flInf.Utility)
	}
	if flOne.Noise <= flInf.Noise {
		t.Fatal("smaller epsilon must calibrate more noise")
	}
	if out := RenderFigure5(points); !strings.Contains(out, "eps=inf") {
		t.Fatal("render output malformed")
	}
}

// Figure 1 shape: the inferred 3-community is overwhelmingly
// health-focused relative to the population baseline.
func TestFigure1HealthCommunity(t *testing.T) {
	res, err := RunFigure1(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.CommunitySize != 3 {
		t.Fatalf("community size %d, want 3", res.CommunitySize)
	}
	if res.MemberHealthShare < 3*res.GlobalHealthShare {
		t.Fatalf("member health share %.3f not >> baseline %.3f",
			res.MemberHealthShare, res.GlobalHealthShare)
	}
	if !strings.Contains(RenderFigure1(res), "health") {
		t.Fatal("render output malformed")
	}
}

// §VIII-E shape: near-perfect community recovery on the non-iid
// classification federation.
func TestUniversalityShape(t *testing.T) {
	res, err := RunUniversality(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.CIAAccuracy < 0.9 {
		t.Fatalf("universality CIA accuracy %.3f, want ~1", res.CIAAccuracy)
	}
	if res.GlobalAccuracy < 0.75 {
		t.Fatalf("global accuracy %.3f too low", res.GlobalAccuracy)
	}
	if !strings.Contains(RenderUniversality(res), "universality") {
		t.Fatal("render output malformed")
	}
}

// §VIII-C2 shape: CIA beats the AIA proxy.
func TestAIAComparisonShape(t *testing.T) {
	res, err := RunAIAComparison(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.CIAMaxAAC <= res.AIAMaxAAC {
		t.Fatalf("CIA (%.3f) should beat AIA (%.3f)", res.CIAMaxAAC, res.AIAMaxAAC)
	}
	if !strings.Contains(RenderAIAComparison(res), "AIA") {
		t.Fatal("render output malformed")
	}
}

// §VIII-C2 splits its rounds into a warm-up and an observed half, so
// one round is rejected up front rather than by the federation.
func TestAIAComparisonNeedsTwoRounds(t *testing.T) {
	spec := testSpec()
	spec.Rounds = 1
	if _, err := RunAIAComparison(spec); err == nil || !strings.Contains(err.Error(), "at least 2 rounds") {
		t.Fatalf("Rounds 1: error %v, want one naming at least 2 rounds", err)
	}
}
