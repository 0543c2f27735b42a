package experiments

import (
	"fmt"
	"strings"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// CompressionRatioRow is one cell of the compression-ratio study:
// a quantization width × sparsification level, with the measured wire
// ratio and what the run cost in utility and leaked to each attack.
type CompressionRatioRow struct {
	// Bits is the wire quantization width (0: lossless dense codec).
	Bits int
	// Keep is the top-k sparsification kept fraction (1: full updates).
	Keep float64
	// Ratio is the measured dense-equivalent ÷ moved bytes on the wire.
	Ratio float64
	// Utility is the run's best HR@K.
	Utility float64
	// CIAMaxAAC, MIAMaxAAC and AIAMaxAAC are each attack's best
	// community accuracy on the same uploads; Random is the guessing
	// bound they all share.
	CIAMaxAAC float64
	MIAMaxAAC float64
	AIAMaxAAC float64
	Random    float64
}

// DefaultCompressionBits and DefaultCompressionKeeps are the study's
// default grid: the codec widths the wire supports × the
// sparsification levels of the top-k defense study.
var (
	DefaultCompressionBits  = []int{0, 16, 8}
	DefaultCompressionKeeps = []float64{1, 0.5, 0.1}
)

// RunCompressionRatio sweeps wire compression (bits) × top-k update
// sparsification (keeps) over the reference federation (GMF,
// MovieLens-like) and reports, per cell, the measured compression
// ratio next to utility and the leakage of all three attacks — CIA,
// the entropy-MIA proxy and the gradient-classifier AIA — on the same
// uploads. Nil grids select the defaults. The question the table
// answers: does shrinking the wire also shrink the leak, or is
// bandwidth saving privacy-neutral (the sparsify study's finding,
// now measured against the real codec and all three attacks)?
//
// Cells are independent and run concurrently on the table-cell pool;
// runs default to the "wire" transport so the ratio is measured on
// real encoded bytes even when the caller's spec leaves Transport
// empty.
func RunCompressionRatio(spec Spec, bits []int, keeps []float64) ([]CompressionRatioRow, error) {
	if bits == nil {
		bits = DefaultCompressionBits
	}
	if keeps == nil {
		keeps = DefaultCompressionKeeps
	}
	type cell struct {
		bits int
		keep float64
	}
	var cells []cell
	for _, b := range bits {
		for _, k := range keeps {
			cells = append(cells, cell{b, k})
		}
	}
	rows := make([]CompressionRatioRow, len(cells))
	err := forEachCell(len(cells), func(i int) error {
		row, err := runCompressionRatioCell(spec, cells[i].bits, cells[i].keep)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runCompressionRatioCell executes one bits × keep federation with all
// three attacks observing the same uploads. The AIA needs a trained
// global model for its shadow training, so it is fitted at the run's
// halfway round and observes the second half (the continuation
// pattern of RunAIAComparison, without a second simulation).
func runCompressionRatioCell(spec Spec, bits int, keep float64) (CompressionRatioRow, error) {
	s := spec
	s.Compression = param.Compression{Bits: bits}
	if s.Transport == "" {
		s.Transport = "wire"
	}
	d, err := MakeDataset("movielens", s)
	if err != nil {
		return CompressionRatioRow{}, err
	}
	SplitFor("gmf", d)
	factory, err := MakeFactory("gmf", d, s)
	if err != nil {
		return CompressionRatioRow{}, err
	}
	k := s.K(d.NumUsers)
	targets := d.Train
	truths := evalx.TrueCommunities(d, k)
	var policy defense.Policy
	if keep < 1 {
		policy = defense.TopKSparsify{Fraction: keep}
	}

	rng := mathx.NewRand(s.Seed ^ 0xc0a1)
	targetUser := rng.IntN(d.NumUsers)
	target := d.Train[targetUser]
	truth := evalx.TrueCommunity(d, target, k)

	obs := &ratioObserver{
		cia: attack.New(attack.Config{
			Beta: s.Beta, K: k, NumUsers: d.NumUsers,
			Eval: attack.NewRecommenderEval(factory(0), targets),
		}),
		mia:    attack.NewMIA(0.6, k, factory(0), targets, d),
		truths: truths,
		truth:  truth,
		ciaRec: evalx.NewRecorder(),
		miaRec: evalx.NewRecorder(),
	}
	var utility []float64
	aiaRound := s.Rounds / 2
	sim, tr, err := newFed(s, fed.Config{
		Dataset:  d,
		Factory:  factory,
		Policy:   policy,
		Observer: obs,
		OnRound: func(round int, fs *fed.Simulation) {
			utility = append(utility, fs.UtilityHR(s.HRK, s.NumNeg))
			if round == aiaRound && obs.aia == nil && obs.aiaErr == nil {
				// OnRound runs between rounds on the driving goroutine;
				// the next round's uploads (and so OnUpload calls) start
				// strictly after it returns.
				obs.aia, obs.aiaErr = attack.TrainAIA(fs.Global(), d, attack.AIAConfig{
					Target: target, K: k, Rand: rng,
				})
			}
		},
	})
	if err != nil {
		return CompressionRatioRow{}, err
	}
	defer tr.Close()
	sim.Run()
	if obs.aiaErr != nil {
		return CompressionRatioRow{}, obs.aiaErr
	}

	st := tr.Stats()
	raw := st.RawBytes + st.RawBroadcastBytes
	moved := st.Bytes + st.BroadcastBytes
	ratio := 1.0
	if moved > 0 && raw > 0 {
		ratio = float64(raw) / float64(moved)
	}
	ciaAAC, _ := obs.ciaRec.MaxAAC()
	miaAAC, _ := obs.miaRec.MaxAAC()
	return CompressionRatioRow{
		Bits:      bits,
		Keep:      keep,
		Ratio:     ratio,
		Utility:   mathx.Max(utility),
		CIAMaxAAC: ciaAAC,
		MIAMaxAAC: miaAAC,
		AIAMaxAAC: obs.bestAIA,
		Random:    evalx.RandomBound(k, d.NumUsers),
	}, nil
}

// ratioObserver feeds one federation's uploads to CIA, MIA and (once
// trained) AIA simultaneously.
type ratioObserver struct {
	cia    *attack.CIA
	mia    *attack.MIA
	aia    *attack.AIA
	aiaErr error

	truths  []map[int]struct{}
	truth   map[int]struct{}
	ciaRec  *evalx.Recorder
	miaRec  *evalx.Recorder
	bestAIA float64
}

func (o *ratioObserver) OnUpload(msg fed.Message) {
	o.cia.Observe(msg.From, msg.Params)
	o.mia.Observe(msg.From, msg.Params)
	if o.aia != nil {
		o.aia.Observe(msg.From, msg.Params)
	}
}

func (o *ratioObserver) OnRoundEnd(round int) {
	o.cia.EndRound()
	o.ciaRec.Record(o.cia.Accuracies(o.truths))
	o.miaRec.Record(o.mia.Accuracies(o.truths))
	if o.aia != nil {
		if acc := o.aia.Accuracy(o.truth); acc > o.bestAIA {
			o.bestAIA = acc
		}
	}
}

// RenderCompressionRatio formats the sweep, one line per cell.
func RenderCompressionRatio(rows []CompressionRatioRow) string {
	var b strings.Builder
	b.WriteString("== Extension: wire compression × sparsification vs utility and all three attacks (FL, GMF, MovieLens-like) ==\n")
	fmt.Fprintf(&b, "%-6s %-6s %7s %7s %7s %7s %7s %7s\n",
		"bits", "keep", "ratio", "HR", "CIA%", "MIA%", "AIA%", "rand%")
	for _, r := range rows {
		width := "off"
		if r.Bits != 0 {
			width = fmt.Sprintf("%dbit", r.Bits)
		}
		fmt.Fprintf(&b, "%-6s %-6s %6.1fx %7.3f %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
			width, fmt.Sprintf("%.0f%%", 100*r.Keep), r.Ratio, r.Utility,
			100*r.CIAMaxAAC, 100*r.MIAMaxAAC, 100*r.AIAMaxAAC, 100*r.Random)
	}
	return b.String()
}
