package experiments

import (
	"math"
	"slices"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/gossip"
)

// Worker-count invariance at the harness level: the same spec run with
// serial and parallel simulators must produce identical per-round CIA
// accuracy series and identical rendered table rows. This is the
// user-visible face of the simulators' byte-identical guarantee.
func TestWorkersInvariance(t *testing.T) {
	base := BenchSpec()
	base.Rounds = 5
	base.GLRounds = 8

	d, err := MakeDataset("movielens", base)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)

	runFL := func(workers int) (RunResult, string) {
		s := base
		s.Workers = workers
		res, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: s, Utility: UtilityNone})
		if err != nil {
			t.Fatal(err)
		}
		row := AttackRow{Dataset: "movielens", Model: "gmf", Setting: "FL", Result: res.Attack}
		return res, row.String()
	}
	runGL := func(workers int) (RunResult, string) {
		s := base
		s.Workers = workers
		res, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Variant: gossip.RandGossip, Spec: s})
		if err != nil {
			t.Fatal(err)
		}
		row := AttackRow{Dataset: "movielens", Model: "gmf", Setting: "rand-gossip", Result: res.Attack}
		return res, row.String()
	}
	shareLess := defense.ShareLess{Tau: DefaultShareLessTau}
	runFLShareLess := func(workers int) (RunResult, string) {
		s := base
		s.Workers = workers
		res, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Policy: shareLess, Spec: s, Utility: UtilityNone})
		if err != nil {
			t.Fatal(err)
		}
		row := AttackRow{Dataset: "movielens", Model: "gmf", Setting: "FL share-less", Result: res.Attack}
		return res, row.String()
	}
	runCoalition := func(workers int) (RunResult, string) {
		s := base
		s.Workers = workers
		res, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Variant: gossip.RandGossip, Spec: s,
			Policy: shareLess, ColluderFrac: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		row := AttackRow{Dataset: "movielens", Model: "gmf", Setting: "20% colluders share-less", Result: res.Attack}
		return res, row.String()
	}

	for name, run := range map[string]func(int) (RunResult, string){
		"fl": runFL, "gl": runGL, "fl-shareless": runFLShareLess, "gl-coalition-shareless": runCoalition,
	} {
		t.Run(name, func(t *testing.T) {
			serial, serialRow := run(-1) // forced serial
			parallel, parallelRow := run(4)
			if len(serial.Attack.Series) != len(parallel.Attack.Series) {
				t.Fatalf("series lengths differ: %d vs %d",
					len(serial.Attack.Series), len(parallel.Attack.Series))
			}
			for i := range serial.Attack.Series {
				if serial.Attack.Series[i] != parallel.Attack.Series[i] {
					t.Fatalf("round %d AAC differs: %v vs %v",
						i, serial.Attack.Series[i], parallel.Attack.Series[i])
				}
			}
			if serial.Attack.MaxAAC != parallel.Attack.MaxAAC {
				t.Fatalf("MaxAAC differs: %v vs %v", serial.Attack.MaxAAC, parallel.Attack.MaxAAC)
			}
			if serialRow != parallelRow {
				t.Fatalf("rendered rows differ:\n%s\n%s", serialRow, parallelRow)
			}
		})
	}
}

// TestShareLessCoalitionRepeatable pins the Share-less coalition to one
// outcome: the coalition refits every target against the lowest-id
// colluder, so repeated identical runs give byte-identical AAC series.
func TestShareLessCoalitionRepeatable(t *testing.T) {
	spec := BenchSpec()
	spec.Rounds = 5
	spec.GLRounds = 6
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	var first []float64
	for i := 0; i < 4; i++ {
		res, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Variant: gossip.RandGossip, Spec: spec,
			Policy: defense.ShareLess{Tau: DefaultShareLessTau}, ColluderFrac: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Attack.Series
			continue
		}
		if !slices.EqualFunc(res.Attack.Series, first, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("run %d AAC series %v != first run %v", i, res.Attack.Series, first)
		}
	}
}
