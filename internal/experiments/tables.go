package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
)

// AttackRow is one table line of attack metrics, optionally annotated
// with the transport traffic its run generated.
type AttackRow struct {
	Dataset string
	Model   string
	Setting string // protocol / colluder / defense label
	Result  evalx.Result

	// Transport names the run's round-transport backend when the runner
	// recorded it (RunTable2, RunTable3); RenderRows then appends a
	// per-row traffic table so wire vs socket cost is visible next to
	// the attack numbers.
	Transport string
	// Metrics is the run's end-of-run registry snapshot
	// (RunResult.Metrics), the one source the traffic and resilience
	// tables render from.
	Metrics obs.Snapshot
}

func (r AttackRow) String() string {
	return fmt.Sprintf("%-12s %-6s %-22s MaxAAC=%5.1f%%  Best10%%=%5.1f%%  random=%4.1f%%  upper=%5.1f%%",
		r.Dataset, r.Model, r.Setting,
		100*r.Result.MaxAAC, 100*r.Result.Best10AAC,
		100*r.Result.RandomBound, 100*r.Result.UpperBound)
}

// RenderRows formats rows under a title, one per line, followed by a
// transport-traffic table when the rows carry one.
func RenderRows(title string, rows []AttackRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, r := range rows {
		fmt.Fprintln(&b, r.String())
	}
	b.WriteString(renderTraffic(rows))
	b.WriteString(renderResilience(rows))
	return b.String()
}

// resilienceKeys is the merged fed+gossip resilience counter order:
// each protocol's Resilience.String declaration order is preserved (a
// run only ever populates one protocol's keys), mapped to the
// resilience_* metric names the simulations register.
var resilienceKeys = []struct{ key, metric string }{
	{"blackouts", "resilience_blackouts"},
	{"deliver-failures", "resilience_deliver_failures"},
	{"upload-failures", "resilience_upload_failures"},
	{"stragglers", "resilience_stragglers"},
	{"quorum-misses", "resilience_quorum_misses"},
	{"lost-pushes", "resilience_lost_pushes"},
	{"skipped-peers", "resilience_skipped_peers"},
	{"absent-skips", "resilience_absent_skips"},
	{"joins", "resilience_joins"},
	{"leaves", "resilience_leaves"},
	{"rejoins", "resilience_rejoins"},
	{"stale-resets", "resilience_stale_resets"},
	{"byzantine-uploads", "resilience_byzantine_uploads"},
	{"byzantine-pushes", "resilience_byzantine_pushes"},
	{"clipped-uploads", "resilience_clipped_uploads"},
}

// resilienceLine renders a row's non-zero resilience counters as
// key=value pairs from its registry snapshot, matching the protocols'
// Resilience.String output exactly ("" for a row without a snapshot).
func resilienceLine(r AttackRow) string {
	var b strings.Builder
	for _, k := range resilienceKeys {
		v := r.Metrics[k.metric]
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k.key, int64(v))
	}
	return b.String()
}

// renderResilience formats the per-run fault, churn and Byzantine
// accounting of rows that recorded a non-zero counter: one line per
// eventful run, the counters as key=value pairs read from the row's
// registry snapshot. Uneventful runs (and tables without any
// resilience activity) print nothing.
func renderResilience(rows []AttackRow) string {
	lines := make([]string, len(rows))
	any := false
	for i, r := range rows {
		lines[i] = resilienceLine(r)
		if lines[i] != "" {
			any = true
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("-- resilience counters per run --\n")
	for i, r := range rows {
		if lines[i] == "" {
			continue
		}
		fmt.Fprintf(&b, "%-12s %-6s %-22s %s\n", r.Dataset, r.Model, r.Setting, lines[i])
	}
	return b.String()
}

// renderTraffic formats the per-run transport accounting of rows that
// recorded it: point-to-point and broadcast volume, frame counts, the
// socket backends' RPC round-trip/reconnect/retry counters, and —
// when any run used the retry or fault layers — the timeout, give-up
// and injected-fault columns. Runs carried by a compressing transport
// additionally get the dense-equivalent volume and the compression
// ratio, so the codec's saving is visible next to what actually moved.
// All cells read from the rows' registry snapshots, making the obs
// registry the rendering source of truth.
func renderTraffic(rows []AttackRow) string {
	any, resil, comp := false, false, false
	for _, r := range rows {
		if r.Transport != "" {
			any = true
		}
		st := r.Metrics
		if st["transport_retries_total"] > 0 || st["transport_timeouts_total"] > 0 ||
			st["transport_gave_up_total"] > 0 || st["transport_injected_faults_total"] > 0 {
			resil = true
		}
		if st["transport_raw_bytes_total"] != st["transport_bytes_total"] ||
			st["transport_raw_broadcast_bytes_total"] != st["transport_broadcast_bytes_total"] {
			comp = true
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("-- transport traffic per run --\n")
	fmt.Fprintf(&b, "%-12s %-6s %-22s %-11s %8s %9s %8s %9s %7s %6s",
		"dataset", "model", "setting", "backend",
		"msgs", "MB", "bcasts", "bcastMB", "rtrips", "reconn")
	if comp {
		fmt.Fprintf(&b, " %9s %6s", "rawMB", "ratio")
	}
	if resil {
		fmt.Fprintf(&b, " %7s %8s %6s %6s", "retries", "timeouts", "gaveup", "faults")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		if r.Transport == "" {
			continue
		}
		st := r.Metrics
		count := func(name string) int64 { return int64(st[name]) }
		fmt.Fprintf(&b, "%-12s %-6s %-22s %-11s %8d %9.2f %8d %9.2f %7d %6d",
			r.Dataset, r.Model, r.Setting, r.Transport,
			count("transport_messages_total"), st["transport_bytes_total"]/(1<<20),
			count("transport_broadcast_messages_total"), st["transport_broadcast_bytes_total"]/(1<<20),
			count("transport_round_trips_total"), count("transport_reconnects_total"))
		if comp {
			raw := st["transport_raw_bytes_total"] + st["transport_raw_broadcast_bytes_total"]
			moved := st["transport_bytes_total"] + st["transport_broadcast_bytes_total"]
			ratio := 1.0
			if moved > 0 {
				ratio = raw / moved
			}
			fmt.Fprintf(&b, " %9.2f %5.1fx", raw/(1<<20), ratio)
		}
		if resil {
			fmt.Fprintf(&b, " %7d %8d %6d %6d",
				count("transport_retries_total"), count("transport_timeouts_total"),
				count("transport_gave_up_total"), count("transport_injected_faults_total"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// table2Configs are the dataset × model pairs of Table II (the paper
// reports no PRME row for MovieLens).
var table2Configs = []struct{ dataset, family string }{
	{"foursquare", "gmf"},
	{"foursquare", "prme"},
	{"gowalla", "gmf"},
	{"gowalla", "prme"},
	{"movielens", "gmf"},
}

// RunTable2 reproduces Table II: CIA on FedRecs, every user playing
// the adversary, full model sharing. Cells are independent (each
// builds its own dataset and simulation from the spec seed) and run
// concurrently on the table-cell worker pool; row order and values are
// identical to a serial sweep.
func RunTable2(spec Spec) ([]AttackRow, error) {
	rows := make([]AttackRow, len(table2Configs))
	err := forEachCell(len(table2Configs), func(i int) error {
		c := table2Configs[i]
		d, err := MakeDataset(c.dataset, spec)
		if err != nil {
			return err
		}
		SplitFor(c.family, d)
		res, err := RunFLCIA(FLOpts{Data: d, Family: c.family, Spec: spec, Utility: UtilityNone})
		if err != nil {
			return err
		}
		rows[i] = AttackRow{
			Dataset: c.dataset, Model: c.family, Setting: "FL", Result: res.Attack,
			Transport: res.TransportName, Metrics: res.Metrics,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunTable3 reproduces Table III: CIA on GossipRecs under Rand-Gossip
// and Pers-Gossip, single adversary at every placement.
func RunTable3(spec Spec) ([]AttackRow, error) {
	configs := []struct {
		variant gossip.Variant
		dataset string
		family  string
	}{
		{gossip.RandGossip, "movielens", "gmf"},
		{gossip.RandGossip, "foursquare", "gmf"},
		{gossip.RandGossip, "foursquare", "prme"},
		{gossip.RandGossip, "gowalla", "gmf"},
		{gossip.RandGossip, "gowalla", "prme"},
		{gossip.PersGossip, "movielens", "gmf"},
		{gossip.PersGossip, "foursquare", "gmf"},
		{gossip.PersGossip, "foursquare", "prme"},
		{gossip.PersGossip, "gowalla", "gmf"},
		{gossip.PersGossip, "gowalla", "prme"},
	}
	rows := make([]AttackRow, len(configs))
	err := forEachCell(len(configs), func(i int) error {
		c := configs[i]
		d, err := MakeDataset(c.dataset, spec)
		if err != nil {
			return err
		}
		SplitFor(c.family, d)
		res, err := RunGLCIA(GLOpts{Data: d, Family: c.family, Variant: c.variant, Spec: spec})
		if err != nil {
			return err
		}
		rows[i] = AttackRow{
			Dataset: c.dataset, Model: c.family, Setting: c.variant.String(), Result: res.Attack,
			Transport: res.TransportName, Metrics: res.Metrics,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ColluderFracs are the coalition sizes of Tables IV–VI.
var ColluderFracs = []float64{0.05, 0.10, 0.20}

// RunTable4 reproduces Table IV: collusion in Rand-Gossip with GMF on
// the MovieLens-like dataset (single adversary + 5/10/20% colluders).
func RunTable4(spec Spec) ([]AttackRow, error) {
	return runCollusion(spec, nil)
}

// RunTable5 reproduces Table V: the same collusion sweep under the
// Share-less strategy, where the colluding advantage largely vanishes.
func RunTable5(spec Spec) ([]AttackRow, error) {
	return runCollusion(spec, defense.ShareLess{Tau: DefaultShareLessTau})
}

func runCollusion(spec Spec, policy defense.Policy) ([]AttackRow, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	// Cell 0 is the single adversary; cells 1.. are the colluder
	// fractions. All share the (read-only) dataset and run concurrently.
	rows := make([]AttackRow, 1+len(ColluderFracs))
	err = forEachCell(len(rows), func(i int) error {
		if i == 0 {
			single, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Spec: spec, Policy: policy})
			if err != nil {
				return err
			}
			rows[0] = AttackRow{Dataset: "movielens", Model: "gmf", Setting: "single adversary", Result: single.Attack}
			return nil
		}
		f := ColluderFracs[i-1]
		res, err := RunGLCIA(GLOpts{Data: d, Family: "gmf", Spec: spec, Policy: policy, ColluderFrac: f})
		if err != nil {
			return err
		}
		rows[i] = AttackRow{
			Dataset: "movielens", Model: "gmf",
			Setting: fmt.Sprintf("%.0f%% colluders", 100*f),
			Result:  res.Attack,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunTable6 reproduces Table VI: the momentum ablation (β = 0 vs the
// configured β) across colluder ratios.
func RunTable6(spec Spec) ([]AttackRow, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	type cell struct {
		momentumOff bool
		frac        float64
	}
	var cells []cell
	for _, momentumOff := range []bool{true, false} {
		for _, f := range ColluderFracs {
			cells = append(cells, cell{momentumOff, f})
		}
	}
	rows := make([]AttackRow, len(cells))
	err = forEachCell(len(cells), func(i int) error {
		c := cells[i]
		res, err := RunGLCIA(GLOpts{
			Data: d, Family: "gmf", Spec: spec,
			ColluderFrac: c.frac, MomentumOff: c.momentumOff,
		})
		if err != nil {
			return err
		}
		beta := spec.Beta
		if c.momentumOff {
			beta = 0
		}
		rows[i] = AttackRow{
			Dataset: "movielens", Model: "gmf",
			Setting: fmt.Sprintf("beta=%.2f %.0f%% colluders", beta, 100*c.frac),
			Result:  res.Attack,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table7Row is one K-sensitivity line.
type Table7Row struct {
	K           int
	FullAAC     float64
	ShareLess   float64
	RandomBound float64
}

// RunTable7 reproduces Table VII: Max AAC across community sizes K in
// FL, for full sharing and Share-less. The paper's K values
// (10/20/40/50/100 of ~943 users) are expressed as user fractions so
// scaled runs keep the same relative sizes.
func RunTable7(spec Spec) ([]Table7Row, error) {
	fracs := []float64{0.01, 0.02, 0.04, 0.05, 0.10}
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return nil, err
	}
	SplitFor("gmf", d)
	rows := make([]Table7Row, len(fracs))
	err = forEachCell(len(fracs), func(i int) error {
		s := spec
		s.KFrac = fracs[i]
		full, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: s, Utility: UtilityNone})
		if err != nil {
			return err
		}
		sl, err := RunFLCIA(FLOpts{Data: d, Family: "gmf", Spec: s, Utility: UtilityNone,
			Policy: defense.ShareLess{Tau: DefaultShareLessTau}})
		if err != nil {
			return err
		}
		rows[i] = Table7Row{
			K:           s.K(d.NumUsers),
			FullAAC:     full.Attack.MaxAAC,
			ShareLess:   sl.Attack.MaxAAC,
			RandomBound: full.Attack.RandomBound,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable7 formats the K-sensitivity sweep like Table VII.
func RenderTable7(rows []Table7Row) string {
	var b strings.Builder
	b.WriteString("== Table VII: Max AAC vs community size K (FL, GMF, MovieLens-like) ==\n")
	fmt.Fprintf(&b, "%-14s", "Setting")
	for _, r := range rows {
		fmt.Fprintf(&b, "  K=%-5d", r.K)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "Full models")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5.1f%%", 100*r.FullAAC)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "Share less")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5.1f%%", 100*r.ShareLess)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "Random guess")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5.1f%%", 100*r.RandomBound)
	}
	b.WriteString("\n")
	return b.String()
}

// Table8Row is one MIA-threshold line of Table VIII, reporting both
// the paper-faithful entropy-only threshold and the confidence-guarded
// repair (an extension of this reproduction; see attack.MIA.Guarded).
type Table8Row struct {
	Rho              float64
	Precision        float64
	MIAMaxAAC        float64
	GuardedPrecision float64
	GuardedMaxAAC    float64
}

// Table8Result bundles the MIA sweep with the CIA reference row.
type Table8Result struct {
	Rows      []Table8Row
	CIAMaxAAC float64
}

// RunTable8 reproduces Table VIII: the entropy-MIA used as a community
// detector across thresholds ρ, against CIA on the same observations
// (FL, GMF, MovieLens-like).
func RunTable8(spec Spec) (Table8Result, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return Table8Result{}, err
	}
	SplitFor("gmf", d)
	factory, err := MakeFactory("gmf", d, spec)
	if err != nil {
		return Table8Result{}, err
	}
	k := spec.K(d.NumUsers)
	targets := d.Train
	truths := evalx.TrueCommunities(d, k)
	rhos := []float64{0.2, 0.4, 0.6, 0.8, 1.0}

	// One federation run, all attacks observing the same uploads.
	cia := attack.New(attack.Config{
		Beta: spec.Beta, K: k, NumUsers: d.NumUsers,
		Eval: attack.NewRecommenderEval(factory(0), targets),
	})
	plain := make([]*attack.MIA, len(rhos))
	guarded := make([]*attack.MIA, len(rhos))
	for i, rho := range rhos {
		plain[i] = attack.NewMIA(rho, k, factory(0), targets, d)
		guarded[i] = attack.NewMIA(rho, k, factory(0), targets, d)
		guarded[i].Guarded = true
	}
	rec := evalx.NewRecorder()
	newRecs := func() []*evalx.Recorder {
		out := make([]*evalx.Recorder, len(rhos))
		for i := range out {
			out[i] = evalx.NewRecorder()
		}
		return out
	}
	obs := &table8Observer{
		cia: cia, plain: plain, guarded: guarded,
		truths: truths, rec: rec,
		plainRecs: newRecs(), guardedRecs: newRecs(),
	}
	sim, tr, err := newFed(spec, fed.Config{Dataset: d, Factory: factory, Observer: obs})
	if err != nil {
		return Table8Result{}, err
	}
	defer tr.Close()
	sim.Run()

	out := Table8Result{}
	ciaAAC, _ := rec.MaxAAC()
	out.CIAMaxAAC = ciaAAC
	for i, rho := range rhos {
		pAAC, _ := obs.plainRecs[i].MaxAAC()
		gAAC, _ := obs.guardedRecs[i].MaxAAC()
		out.Rows = append(out.Rows, Table8Row{
			Rho:              rho,
			Precision:        plain[i].Precision(),
			MIAMaxAAC:        pAAC,
			GuardedPrecision: guarded[i].Precision(),
			GuardedMaxAAC:    gAAC,
		})
	}
	return out, nil
}

type table8Observer struct {
	cia         *attack.CIA
	plain       []*attack.MIA
	guarded     []*attack.MIA
	truths      []map[int]struct{}
	rec         *evalx.Recorder
	plainRecs   []*evalx.Recorder
	guardedRecs []*evalx.Recorder
}

func (o *table8Observer) OnUpload(msg fed.Message) {
	o.cia.Observe(msg.From, msg.Params)
	for i := range o.plain {
		o.plain[i].Observe(msg.From, msg.Params)
		o.guarded[i].Observe(msg.From, msg.Params)
	}
}

func (o *table8Observer) OnRoundEnd(round int) {
	o.cia.EndRound()
	o.rec.Record(o.cia.Accuracies(o.truths))
	for i := range o.plain {
		o.plainRecs[i].Record(o.plain[i].Accuracies(o.truths))
		o.guardedRecs[i].Record(o.guarded[i].Accuracies(o.truths))
	}
}

// RenderTable8 formats the MIA-vs-CIA comparison like Table VIII, with
// the guarded-MIA extension rows appended.
func RenderTable8(res Table8Result) string {
	var b strings.Builder
	b.WriteString("== Table VIII: entropy-MIA as a community-inference proxy (FL, GMF, MovieLens-like) ==\n")
	row := func(label string, f func(Table8Row) float64) {
		fmt.Fprintf(&b, "%-22s", label)
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "  %6.1f ", 100*f(r))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-22s", "Attack")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "  rho=%-4.1f", r.Rho)
	}
	b.WriteString("\n")
	row("MIA precision %", func(r Table8Row) float64 { return r.Precision })
	row("MIA Max AAC %", func(r Table8Row) float64 { return r.MIAMaxAAC })
	row("MIA+guard precision %", func(r Table8Row) float64 { return r.GuardedPrecision })
	row("MIA+guard Max AAC %", func(r Table8Row) float64 { return r.GuardedMaxAAC })
	fmt.Fprintf(&b, "%-22s%.1f\n", "CIA Max AAC %", 100*res.CIAMaxAAC)
	return b.String()
}

// Table9Result carries the measured per-attack costs plus the symbolic
// cost model.
type Table9Result struct {
	Model    attack.CostModel
	Measured map[string]float64 // attack → seconds for one full pass
}

// RunTable9 reproduces Table IX: the temporal-complexity comparison.
// The symbolic rows come from attack.CostModel; the measured column
// times one full observation pass of each attack over the same set of
// client uploads from a warmed-up federation.
func RunTable9(spec Spec) (Table9Result, error) {
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		return Table9Result{}, err
	}
	SplitFor("gmf", d)
	factory, err := MakeFactory("gmf", d, spec)
	if err != nil {
		return Table9Result{}, err
	}
	k := spec.K(d.NumUsers)
	rng := mathx.NewRand(spec.Seed)

	// Warm global model + one round of per-client uploads.
	global := factory(rng.Uint64())
	for e := 0; e < 4; e++ {
		for u := 0; u < d.NumUsers; u++ {
			global.TrainLocal(d, u, model.TrainOptions{Epochs: 1, Rand: rng})
		}
	}
	uploads := make([]*param.Set, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		local := global.Clone()
		local.TrainLocal(d, u, model.TrainOptions{Epochs: 1, Rand: rng})
		uploads[u] = local.Params().Clone()
	}
	target := d.Train[0]
	targets := [][]int{target}

	measured := make(map[string]float64)

	start := time.Now() //lint:ignore detrand wall-clock timing is reporting-only; it never enters table values or golden hashes
	// Workers: -1 keeps CIA single-threaded like the MIA and AIA it is
	// compared against.
	cia := attack.New(attack.Config{
		Beta: spec.Beta, K: k, NumUsers: d.NumUsers,
		Eval:    attack.NewRecommenderEval(factory(0), targets),
		Workers: -1,
	})
	for u, p := range uploads {
		cia.Observe(u, p)
	}
	cia.EndRound()
	cia.Predict(0)
	measured["cia"] = time.Since(start).Seconds()

	start = time.Now() //lint:ignore detrand wall-clock timing is reporting-only; it never enters table values or golden hashes
	mia := attack.NewMIA(0.6, k, factory(0), targets, d)
	for u, p := range uploads {
		mia.Observe(u, p)
	}
	mia.Predict(0)
	measured["mia"] = time.Since(start).Seconds()

	start = time.Now() //lint:ignore detrand wall-clock timing is reporting-only; it never enters table values or golden hashes
	aia, err := attack.TrainAIA(global, d, attack.AIAConfig{
		Target: target, K: k, Rand: mathx.NewRand(spec.Seed ^ 0xa1a),
	})
	if err != nil {
		return Table9Result{}, err
	}
	for u, p := range uploads {
		aia.Observe(u, p)
	}
	aia.Predict()
	measured["aia"] = time.Since(start).Seconds()

	dmax := 0
	for u := 0; u < d.NumUsers; u++ {
		if len(d.Train[u]) > dmax {
			dmax = len(d.Train[u])
		}
	}
	cm := attack.CostModel{
		Users:      d.NumUsers,
		TargetSize: len(target),
		DMax:       dmax,
		// Unit costs in "embedding ops": one inference touches ~dim
		// multiplies; training touches every interaction several times.
		TrainModel:      float64(d.NumInteractions() * 5 * spec.Dim),
		InferModel:      float64(spec.Dim),
		TrainClassifier: float64(40 * 60 * d.NumItems * spec.Dim), // samples × epochs × input dim
		InferClassifier: float64(d.NumItems * spec.Dim),
		FictiveUsers:    40,
	}
	return Table9Result{Model: cm, Measured: measured}, nil
}

// RenderTable9 formats the complexity comparison like Table IX.
func RenderTable9(res Table9Result) string {
	var b strings.Builder
	b.WriteString("== Table IX: temporal complexity of CIA vs proxy attacks ==\n")
	b.WriteString(res.Model.Table())
	fmt.Fprintf(&b, "measured (one observation pass): CIA %.4fs  MIA %.4fs  AIA %.4fs\n",
		res.Measured["cia"], res.Measured["mia"], res.Measured["aia"])
	return b.String()
}
