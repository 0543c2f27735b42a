// Command ciabench reproduces the paper's tables and figures from the
// command line.
//
// Usage:
//
//	ciabench -exp table2            # one experiment
//	ciabench -exp all               # every table and figure
//	ciabench -exp fig5 -seed 7      # different seed
//	ciabench -exp table2 -paper     # full paper-scale sizes (slow)
//	ciabench -scenario churn-byz    # run a declarative scenario preset
//	ciabench -scenario run.json     # ... or one decoded from a JSON file
//	ciabench -list                  # enumerate experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/obs"
)

// runScenarioFile loads a scenario — a preset name or a JSON file —
// and executes it with the process's observability sinks attached
// (both may be nil). Decode/validation errors name the offending
// field.
func runScenarioFile(path string, tr *obs.Tracer, reg *obs.Registry) (string, error) {
	sc, ok := experiments.ScenarioPreset(path)
	if !ok {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		defer f.Close()
		sc, err = experiments.DecodeScenario(f)
		if err != nil {
			return "", err
		}
	}
	spec, err := sc.Spec()
	if err != nil {
		return "", err
	}
	spec.Trace = tr
	spec.Metrics = reg
	res, err := experiments.RunScenarioWith(sc, spec)
	if err != nil {
		return "", err
	}
	return experiments.RenderScenario(sc, res), nil
}

// writeTrace flushes the recorded spans to the -trace file (no-op
// without one): Chrome trace_event JSON, or JSON lines for a .jsonl
// extension.
func writeTrace(tr *obs.Tracer, path string) {
	if tr == nil {
		return
	}
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "ciabench: -trace: %v\n", err)
		os.Exit(1)
	}
}

// scenarioNames lists the built-in scenario presets for -scenario's
// usage string.
func scenarioNames() string {
	presets := experiments.ScenarioPresets()
	names := make([]string, len(presets))
	for i, sc := range presets {
		names[i] = sc.Name
	}
	return strings.Join(names, " | ")
}

// experimentIDs lists the catalogue's ids in order.
func experimentIDs(exps []experiments.Experiment) []string {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// options is ciabench's decoded command line.
type options struct {
	exp, scenario                    string
	paper, list                      bool
	seed                             uint64
	rounds                           int
	knobs                            experiments.Knobs
	traceOut, metricsAddr, pprofAddr string
}

// parseArgs decodes the command line (without the program name). Flag
// syntax errors are reported on stderr by the flag set itself; knob
// values are checked by options.spec.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ciabench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment id (see -list) or 'all'. FedAvg ids (table2, table7, table8, fig1, sec8c2, ablation-secureagg/-fictive/-relevance/-participation, ext-*, compress-ratio, the FL halves of fig3-5) take every knob flag; gossip ids (table3-6, ablation-staticgraph, the gossip halves of fig3-5) take -transport, -addr, -compress, -faults, -retry, -churn and -byz and ignore the fed-only -agg, -quorum, -straggler-deadline, -trim and -clip; table9 and sec8e take none")
	fs.BoolVar(&o.paper, "paper", false, "paper-scale datasets and rounds (slow, memory-hungry)")
	fs.Uint64Var(&o.seed, "seed", 1, "master seed")
	fs.IntVar(&o.rounds, "rounds", 0, "override FL round count (0 keeps the default)")
	o.knobs.Flags(fs)
	fs.StringVar(&o.scenario, "scenario", "", "run one declarative scenario instead of -exp: a JSON file or a preset name ("+scenarioNames()+"); all other knob flags except the observability ones are ignored")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&o.traceOut, "trace", "", "write a per-round phase trace of the run(s) to this file at exit: Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev), or JSON lines with a .jsonl extension")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve the live metrics registry over HTTP at this address (host:port; port 0 picks one): /metrics Prometheus text exposition, /metrics.json, /debug/vars expvar")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof at this address (host:port; port 0 picks one)")
	return o, fs.Parse(args)
}

// spec resolves the Spec the -exp experiments run under: sizing from
// -paper, -seed and -rounds, the deployment from the knob flags.
func (o options) spec() (experiments.Spec, error) {
	spec := experiments.BenchSpec()
	if o.paper {
		spec = experiments.PaperSpec()
	}
	spec.Seed = o.seed
	if o.rounds < 0 {
		return spec, fmt.Errorf("-rounds %d must not be negative (0 keeps the default)", o.rounds)
	}
	if o.rounds > 0 {
		spec.Rounds = o.rounds
	}
	return o.knobs.Apply(spec)
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	exps := experiments.Experiments()
	if o.list {
		fmt.Println(strings.Join(experimentIDs(exps), "\n"))
		return
	}
	var spec experiments.Spec
	if o.scenario == "" {
		if spec, err = o.spec(); err != nil {
			fmt.Fprintf(os.Stderr, "ciabench: %v\n", err)
			os.Exit(2)
		}
		if o.exp != "all" {
			e, ok := experiments.ExperimentByID(o.exp)
			if !ok {
				fmt.Fprintf(os.Stderr, "ciabench: unknown experiment %q; available: %s\n",
					o.exp, strings.Join(experimentIDs(exps), ", "))
				os.Exit(2)
			}
			exps = []experiments.Experiment{e}
		}
	}

	// Observability sinks: a tracer when a trace file was asked for, a
	// shared registry when it is being served. Neither influences
	// results (see OBSERVABILITY.md); runners fall back to private
	// registries when reg stays nil.
	var tracer *obs.Tracer
	if o.traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultSpansPerRing)
	}
	var reg *obs.Registry
	if o.metricsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.ServeMetrics(o.metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciabench: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("ciabench: metrics at http://%s/metrics\n", srv.Addr())
	}
	if o.pprofAddr != "" {
		srv, err := obs.ServePprof(o.pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciabench: -pprof-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("ciabench: pprof at http://%s/debug/pprof/\n", srv.Addr())
	}

	if o.scenario != "" {
		start := time.Now()
		out, err := runScenarioFile(o.scenario, tracer, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciabench: -scenario: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(out)
		fmt.Printf("[scenario completed in %.1fs]\n", time.Since(start).Seconds())
		writeTrace(tracer, o.traceOut)
		return
	}
	spec.Trace = tracer
	spec.Metrics = reg
	for _, e := range exps {
		start := time.Now()
		out, err := e.Run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciabench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}
	writeTrace(tracer, o.traceOut)
}
