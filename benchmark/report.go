package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/collablearn/ciarec/internal/mathx"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same metrics with their direction and bound
// (TestBenchmarkJSONMatchesProgram keeps the two in step).
type metricDef struct{ Name, Unit string }

// endToEndMetrics come from untraced passes.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
	{"wire_bytes_per_round", "B"},
	{"alloc_mb_per_round", "MB"},
	{"transfer_ok_ratio", "ratio"},
}

// perLayerMetrics come from traced passes (see README.md for each
// definition and the end-to-end metric it should move).
var perLayerMetrics = []metricDef{
	{"attack.observe_calls", "count"},
	{"attack.observe_ms", "ms"},
	{"attack.endround_ms", "ms"},
	{"attack.accuracy_ms", "ms"},
	{"attack.refit_ms", "ms"},
	{"model.train_calls", "count"},
	{"model.train_busy_ms", "ms"},
	{"model.train_p50_us", "us"},
	{"model.train_p99_us", "us"},
	{"model.relevance_calls", "count"},
	{"model.score_busy_ms", "ms"},
	{"model.utility_ms", "ms"},
	{"defense.outgoing_calls", "count"},
	{"defense.outgoing_busy_ms", "ms"},
	{"transport.send_calls", "count"},
	{"transport.send_busy_ms", "ms"},
	{"transport.send_p50_us", "us"},
	{"transport.send_p99_us", "us"},
	{"transport.send_errors", "count"},
	{"transport.deliver_calls", "count"},
	{"transport.deliver_busy_ms", "ms"},
	{"transport.deliver_p50_us", "us"},
	{"transport.deliver_p99_us", "us"},
	{"transport.deliver_errors", "count"},
	{"transport.bcast_open_ms", "ms"},
	{"transport.raw_bytes_per_round", "B"},
	{"transport.compression_ratio", "ratio"},
	{"transport.rpc_round_trips_per_round", "count"},
	{"transport.retries", "count"},
	{"transport.injected_faults", "count"},
	{"fed.parallel_ms", "ms"},
	{"fed.observe_window_ms", "ms"},
	{"fed.aggregate_ms", "ms"},
	{"fed.parallel_idle_share", "ratio"},
	{"fed.stragglers", "count"},
	{"fed.quorum_misses", "count"},
	{"gossip.push_ms", "ms"},
	{"gossip.deliver_ms", "ms"},
	{"gossip.train_ms", "ms"},
	{"param.pool_hit_ratio", "ratio"},
	{"obs.train_p50_ms", "ms"},
	{"obs.train_p99_ms", "ms"},
	{"obs.encode_p50_ms", "ms"},
	{"obs.encode_p99_ms", "ms"},
	{"obs.send_p50_ms", "ms"},
	{"obs.send_p99_ms", "ms"},
	{"obs.aggregate_p50_ms", "ms"},
	{"obs.aggregate_p99_ms", "ms"},
	{"obs.broadcast_p50_ms", "ms"},
	{"obs.broadcast_p99_ms", "ms"},
	{"obs.eval_p50_ms", "ms"},
	{"obs.eval_p99_ms", "ms"},
	{"obs.dropped_spans", "count"},
	{"round.unattributed_ms", "ms"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"machine.slowdown", "ratio"},
	{"trace_overhead_pct", "%"},
}

func (r *run) defs() []metricDef {
	if r.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printRun writes every metric of r by name, with its unit.
func printRun(w io.Writer, r *run) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d passes=%d %s correct=%v ==\n", r.Workload, r.Seed, r.Passes, mode, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	for _, d := range r.defs() {
		fmt.Fprintf(w, "   %-38s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summarize folds runs into the result line. One run reports its
// metrics by name; several (all workloads, or -repeat) report each
// workload's median under "<workload>/<metric>".
func summarize(runs []*run) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	if len(runs) == 1 {
		for _, d := range runs[0].defs() {
			out.Metrics[d.Name] = value{runs[0].Metrics[d.Name], d.Unit}
		}
		return out
	}
	for _, g := range groupRuns(runs) {
		for _, d := range g[0].defs() {
			out.Metrics[g[0].Workload+"/"+d.Name] = value{median(metricValues(g, d.Name)), d.Unit}
		}
	}
	return out
}

// groupRuns groups one invocation's runs by workload, in first-seen
// order.
func groupRuns(runs []*run) [][]*run {
	var groups [][]*run
	index := map[string]int{}
	for _, r := range runs {
		i, ok := index[r.Workload]
		if !ok {
			i = len(groups)
			index[r.Workload] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

func metricValues(runs []*run, name string) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[name])
	}
	return v
}

// printSpread writes, per workload and metric, the median, quartiles
// and spread (interquartile range over median) of repeated runs — the
// numbers the bounds in BENCHMARK.json are calibrated from.
func printSpread(w io.Writer, runs []*run) {
	for _, g := range groupRuns(runs) {
		fmt.Fprintf(w, "== %s: %d runs ==\n", g[0].Workload, len(g))
		fmt.Fprintf(w, "   %-38s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, d := range g[0].defs() {
			v := metricValues(g, d.Name)
			med, q1, q3 := quartiles(v)
			fmt.Fprintf(w, "   %-38s %14.4f %14.4f %14.4f %7.2f%%\n", d.Name+" ("+d.Unit+")", med, q1, q3, 100*ratio(q3-q1, med))
		}
	}
}

func quartiles(v []float64) (med, q1, q3 float64) {
	return quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)
}

// machine identifies where a result was measured.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The go command stamps the commit when it builds inside a git
	// checkout; "-dirty" marks uncommitted changes.
	if info, ok := debug.ReadBuildInfo(); ok {
		var dirty bool
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.Commit += "-dirty"
		}
	}
	return m
}

// resultFile is the JSON a benchmark invocation writes.
type resultFile struct {
	Machine machine `json:"machine"`
	Seconds int     `json:"seconds"`
	Runs    []*run  `json:"runs"`
}

func writeResult(path string, f resultFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compare prints one row per workload × end-to-end metric of two result
// files (parent first), with each side's median and quartiles, and a
// verdict against the metric's bound: "worse" beyond the bound,
// "better" beyond it the other way, "unresolved" where the parent's own
// spread exceeds the bound (unless every new run beats every old one),
// "same" otherwise. It reports whether any metric got worse.
func compare(w io.Writer, spec benchSpec, old, cur resultFile) bool {
	oldRuns, curRuns := untraced(old.Runs), untraced(cur.Runs)
	fmt.Fprintf(w, "old: %s (%s, %d cpu)\nnew: %s (%s, %d cpu)\n",
		old.Machine.Commit, old.Machine.CPUModel, old.Machine.NumCPU,
		cur.Machine.Commit, cur.Machine.CPUModel, cur.Machine.NumCPU)
	fmt.Fprintf(w, "%-20s %-22s %30s %30s %8s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	worse := false
	for _, wl := range workloads {
		ov, nv := oldRuns[wl.Name], curRuns[wl.Name]
		if len(ov) == 0 || len(nv) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			a, b := metricValues(ov, m.Name), metricValues(nv, m.Name)
			am, aq1, aq3 := quartiles(a)
			bm, bq1, bq3 := quartiles(b)
			higher := m.Better == "higher"
			change := ratio(bm-am, am) // positive = worse
			if higher {
				change = -change
			}
			verdict := "same"
			switch {
			case ratio(aq3-aq1, am) > m.Bound && !allBetter(a, b, higher):
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-20s %-22s %30s %30s %+7.2f%%  %s\n", wl.Name, m.Name+" ("+m.Unit+")",
				fmt.Sprintf("%.4g [%.4g, %.4g]", am, aq1, aq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", bm, bq1, bq3),
				100*change, verdict)
		}
	}
	return worse
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, higherBetter bool) bool {
	if higherBetter {
		return mathx.Min(cur) > mathx.Max(old)
	}
	return mathx.Max(cur) < mathx.Min(old)
}

func untraced(runs []*run) map[string][]*run {
	out := map[string][]*run{}
	for _, r := range runs {
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}
