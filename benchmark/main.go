// Command benchmark measures ciarec on four workloads drawn from the
// paper's evaluation: the end-to-end cost of a paper table or protocol
// deployment from an untraced run, and where that time goes, layer by
// layer, from a traced run. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                                    # all workloads, untraced
//	bash benchmark/run.sh -workload fl-table2 -seed 3 -seconds 20 -trace 1
//	bash benchmark/run.sh -repeat 10 -out .bench_build/old.json
//	bash benchmark/run.sh -compare .bench_build/old.json .bench_build/new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// traceFlag is a boolean flag that takes its value as a separate
// argument, so "-trace 1" and "-trace 0" both parse.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := fs.Uint64("seed", 1, "workload seed: pass i of a run uses seed+i, and repeat r starts at seed+r")
	// 12 s per workload keeps the default run of all four near a minute.
	seconds := fs.Int("seconds", 12, "measured seconds per workload run")
	var trace traceFlag
	fs.Var(&trace, "trace", "1 for the traced run (per-layer metrics), 0 for the untraced run (end-to-end metrics)")
	repeat := fs.Int("repeat", 1, "runs per workload, alternating the workload order; prints each metric's median, quartiles and spread")
	cmp := fs.Bool("compare", false, "compare two result files given as arguments: -compare old.json new.json")
	out := fs.String("out", ".bench_build/result.json", "result JSON to write")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds, read by -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files: old.json new.json")
			return 2
		}
		spec, err := readSpec(*specPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		old, err := readResult(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		cur, err := readResult(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if compare(stdout, spec, old, cur) {
			return 1
		}
		return 0
	}

	if fs.NArg() > 0 || *seconds < 1 || *repeat < 1 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []*workload{w}
	}
	// The loopback socket backend creates its Unix socket under TMPDIR;
	// keep it next to the result file so the benchmark writes only
	// there. A relative path keeps the socket path short.
	tmp := filepath.Join(filepath.Dir(*out), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	os.Setenv("TMPDIR", tmp)

	var runs []*run
	for r := 0; r < *repeat; r++ {
		order := slices.Clone(selected)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := measure(w, *seed+uint64(r), time.Duration(*seconds)*time.Second, bool(trace), stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRun(stdout, res)
			runs = append(runs, res)
		}
	}
	if *repeat > 1 {
		printSpread(stdout, runs)
	}
	if err := writeResult(*out, resultFile{Machine: thisMachine(), Seconds: *seconds, Runs: runs}); err != nil {
		fmt.Fprintln(stderr, "benchmark: write result:", err)
		return 1
	}
	fmt.Fprintln(stderr, "benchmark: wrote", *out)
	line := summarize(runs)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
