package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/gossip"
)

// Scenario is a declarative, JSON-able description of one complete
// protocol run: workload sizing, transport, compression, fault
// injection, participant churn, Byzantine adversaries and the
// aggregation rule, all in one struct. It is the single artifact a
// run is reproduced from — `ciabench -scenario run.json` executes it,
// and the same JSON checked into a repository pins the run forever
// (every knob is deterministic, so a Scenario is a golden cell).
// DecodeScenario rejects unknown fields, and every validation error
// names the offending field.
type Scenario struct {
	// Name labels the run in rendered output.
	Name string `json:"name,omitempty"`
	// Protocol is "fed" (FedAvg federation, CIA at the server) or
	// "gossip" (decentralized, CIA at every placement).
	Protocol string `json:"protocol"`
	// Dataset is one of the named workloads (foursquare, gowalla,
	// movielens) or "powerlaw" for a synthetic power-law population
	// sized by the users/items/zipf/communities fields.
	Dataset string `json:"dataset"`
	// Family is the model family: gmf, prme, bprmf or neumf.
	Family string `json:"family"`
	// Defense is "" or "full" (full sharing), "share-less", or
	// "sparsify:<keep>" for top-k update sparsification keeping the
	// given coordinate fraction.
	Defense string `json:"defense,omitempty"`
	// Variant selects the gossip peer sampling: "" or "rand-gossip"
	// (uniform) or "pers-gossip" (performance-biased). Fed runs must
	// leave it empty.
	Variant string `json:"variant,omitempty"`

	// Paper switches the named datasets to full paper scale.
	Paper bool `json:"paper,omitempty"`
	// Rounds overrides the protocol round count (fed and gossip).
	Rounds int `json:"rounds,omitempty"`
	// LocalEpochs overrides the per-round local-training length.
	LocalEpochs int `json:"local_epochs,omitempty"`
	// Workers bounds per-run parallelism (0: runtime.NumCPU()).
	// Results are independent of the value.
	Workers int `json:"workers,omitempty"`
	// Seed drives all generation and training (0 keeps the default).
	Seed uint64 `json:"seed,omitempty"`
	// ClientFraction samples that fraction of the present clients per
	// fed round (0: full participation). Fed only.
	ClientFraction float64 `json:"client_fraction,omitempty"`
	// DropoutProb injects client upload failures. Fed only.
	DropoutProb float64 `json:"dropout_prob,omitempty"`

	// Knobs is the deployment: transport, compression, faults, retry,
	// churn, Byzantine population and the fed aggregation rule. Its
	// fields are promoted, so the JSON keys stay flat.
	Knobs

	// MetricsOut, when non-empty, writes the run's end-of-run registry
	// snapshot (RunResult.Metrics) as JSON to this path after the run
	// completes. Observability only: the dump never feeds back into the
	// run, and results stay byte-identical with or without it.
	MetricsOut string `json:"metrics_out,omitempty"`

	// Power-law sizing, only meaningful with dataset "powerlaw":
	// Users × Items drawn from Zipf(zipf)-skewed topics across
	// Communities communities, MeanItems interactions per user.
	Users       int     `json:"users,omitempty"`
	Items       int     `json:"items,omitempty"`
	Zipf        float64 `json:"zipf,omitempty"`
	Communities int     `json:"communities,omitempty"`
	MeanItems   int     `json:"mean_items,omitempty"`
}

// fieldErr wraps a validation failure with the JSON field it came
// from, so `ciabench -scenario bad.json` points at the exact knob.
func fieldErr(field string, err error) error {
	return fmt.Errorf("scenario: field %q: %v", field, err)
}

// DecodeScenario reads one JSON scenario, rejecting unknown fields
// (a typo'd knob fails loudly, naming itself, instead of silently
// running the default) and validating every field.
func DecodeScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("scenario: %v", err)
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Encode renders the scenario as indented JSON, the round-trip
// counterpart of DecodeScenario.
func (sc Scenario) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// parseDefense resolves the defense token ("", "full", "share-less",
// "sparsify:<keep>") into a policy (nil for full sharing).
func parseDefense(s string) (defense.Policy, error) {
	switch {
	case s == "" || s == "full":
		return nil, nil
	case s == "share-less":
		return defense.ShareLess{Tau: DefaultShareLessTau}, nil
	case strings.HasPrefix(s, "sparsify:"):
		keep, err := strconv.ParseFloat(strings.TrimPrefix(s, "sparsify:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sparsify fraction: %v", err)
		}
		if keep <= 0 || keep > 1 {
			return nil, fmt.Errorf("sparsify fraction %g outside (0, 1]", keep)
		}
		return defense.TopKSparsify{Fraction: keep}, nil
	}
	return nil, fmt.Errorf("unknown defense %q (want full, share-less or sparsify:<keep>)", s)
}

// parseVariant resolves the gossip peer-sampling token.
func parseVariant(s string) (gossip.Variant, error) {
	switch s {
	case "", "rand-gossip":
		return gossip.RandGossip, nil
	case "pers-gossip":
		return gossip.PersGossip, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want rand-gossip or pers-gossip)", s)
}

// Validate checks every field and reports the first offender by its
// JSON name.
func (sc Scenario) Validate() error {
	if err := sc.check(); err != nil {
		return err
	}
	_, err := sc.Knobs.Apply(Spec{})
	return err
}

// check holds the protocol- and dataset-aware checks; Knobs.Apply
// validates the deployment.
func (sc Scenario) check() error {
	switch sc.Protocol {
	case "fed", "gossip":
	default:
		return fieldErr("protocol", fmt.Errorf("unknown protocol %q (want fed or gossip)", sc.Protocol))
	}
	switch sc.Dataset {
	case "foursquare", "gowalla", "movielens", "powerlaw":
	default:
		return fieldErr("dataset", fmt.Errorf("unknown dataset %q (want foursquare, gowalla, movielens or powerlaw)", sc.Dataset))
	}
	switch sc.Family {
	case "gmf", "prme", "bprmf", "neumf":
	default:
		return fieldErr("family", fmt.Errorf("unknown family %q (want gmf, prme, bprmf or neumf)", sc.Family))
	}
	if _, err := parseDefense(sc.Defense); err != nil {
		return fieldErr("defense", err)
	}
	if _, err := parseVariant(sc.Variant); err != nil {
		return fieldErr("variant", err)
	}
	if sc.Protocol == "fed" && sc.Variant != "" {
		return fieldErr("variant", fmt.Errorf("only meaningful with protocol gossip"))
	}
	if sc.Rounds < 0 {
		return fieldErr("rounds", fmt.Errorf("negative round count %d", sc.Rounds))
	}
	if sc.LocalEpochs < 0 {
		return fieldErr("local_epochs", fmt.Errorf("negative epoch count %d", sc.LocalEpochs))
	}
	if sc.Workers < 0 {
		return fieldErr("workers", fmt.Errorf("negative worker count %d", sc.Workers))
	}
	if sc.ClientFraction < 0 || sc.ClientFraction > 1 {
		return fieldErr("client_fraction", fmt.Errorf("%g outside [0, 1]", sc.ClientFraction))
	}
	if sc.DropoutProb < 0 || sc.DropoutProb >= 1 {
		return fieldErr("dropout_prob", fmt.Errorf("%g outside [0, 1)", sc.DropoutProb))
	}
	if sc.Protocol == "gossip" {
		fedOnly := []struct {
			field string
			set   bool
		}{
			{"client_fraction", sc.ClientFraction != 0},
			{"dropout_prob", sc.DropoutProb != 0},
			{"aggregator", sc.Aggregator != ""},
			{"trim_fraction", sc.TrimFraction != 0},
			{"clip_norm", sc.ClipNorm != 0},
			{"quorum", sc.Quorum != 0},
			{"straggler_deadline", sc.StragglerDeadline != ""},
		}
		for _, f := range fedOnly {
			if f.set {
				return fieldErr(f.field, fmt.Errorf("only meaningful with protocol fed"))
			}
		}
	}
	if sc.Dataset != "powerlaw" {
		powerlawOnly := []struct {
			field string
			set   bool
		}{
			{"users", sc.Users != 0},
			{"items", sc.Items != 0},
			{"zipf", sc.Zipf != 0},
			{"communities", sc.Communities != 0},
			{"mean_items", sc.MeanItems != 0},
		}
		for _, f := range powerlawOnly {
			if f.set {
				return fieldErr(f.field, fmt.Errorf("only meaningful with dataset powerlaw"))
			}
		}
		return nil
	}
	if sc.Users < 2 {
		return fieldErr("users", fmt.Errorf("powerlaw needs at least 2 users, got %d", sc.Users))
	}
	if sc.Items < 2 {
		return fieldErr("items", fmt.Errorf("powerlaw needs at least 2 items, got %d", sc.Items))
	}
	if sc.Zipf < 0 {
		return fieldErr("zipf", fmt.Errorf("negative exponent %g", sc.Zipf))
	}
	if sc.Communities < 0 || sc.Communities > sc.Users {
		return fieldErr("communities", fmt.Errorf("%d outside [0, users]", sc.Communities))
	}
	if sc.MeanItems < 0 {
		return fieldErr("mean_items", fmt.Errorf("negative history size %d", sc.MeanItems))
	}
	return nil
}

// Spec resolves the scenario's sizing and deployment knobs into the
// runner Spec (BenchSpec defaults, PaperSpec with paper=true).
func (sc Scenario) Spec() (Spec, error) {
	if err := sc.check(); err != nil {
		return Spec{}, err
	}
	spec := BenchSpec()
	if sc.Paper {
		spec = PaperSpec()
	}
	if sc.Rounds > 0 {
		spec.Rounds = sc.Rounds
		spec.GLRounds = sc.Rounds
	}
	if sc.LocalEpochs > 0 {
		spec.LocalEpochs = sc.LocalEpochs
	}
	if sc.Workers > 0 {
		spec.Workers = sc.Workers
	}
	if sc.Seed != 0 {
		spec.Seed = sc.Seed
	}
	return sc.Knobs.Apply(spec)
}

// makeDataset builds the scenario's dataset: a named workload at the
// spec scale, or the power-law synthetic population.
func (sc Scenario) makeDataset(spec Spec) (*dataset.Dataset, error) {
	if sc.Dataset != "powerlaw" {
		return MakeDataset(sc.Dataset, spec)
	}
	communities := sc.Communities
	if communities == 0 {
		communities = sc.Users / 1000
		if communities < 2 {
			communities = 2
		}
	}
	mean := sc.MeanItems
	if mean == 0 {
		mean = 30
	}
	zipf := sc.Zipf
	if zipf == 0 {
		zipf = 1.1
	}
	return dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name:             "powerlaw",
		NumUsers:         sc.Users,
		NumItems:         sc.Items,
		NumCommunities:   communities,
		MeanItemsPerUser: mean,
		MinItemsPerUser:  2,
		Affinity:         0.85,
		ZipfExponent:     zipf,
		Seed:             spec.Seed,
	})
}

// RunScenario executes one declarative scenario end to end and
// returns the run's attack, utility, traffic and resilience outcome.
// Everything in the scenario is deterministic, so two executions of
// the same JSON produce byte-identical results on every backend and
// worker count.
func RunScenario(sc Scenario) (RunResult, error) {
	spec, err := sc.Spec()
	if err != nil {
		return RunResult{}, err
	}
	return RunScenarioWith(sc, spec)
}

// RunScenarioWith executes the scenario against an already-resolved
// spec, letting callers decorate the spec with run-scoped observers
// (Spec.Trace, Spec.Metrics — this is how `ciabench -trace` and
// `-metrics-addr` attach to a scenario run) before handing it back.
// The spec must come from sc.Spec(); only the observability fields are
// meant to differ.
func RunScenarioWith(sc Scenario, spec Spec) (RunResult, error) {
	d, err := sc.makeDataset(spec)
	if err != nil {
		return RunResult{}, err
	}
	SplitFor(sc.Family, d)
	policy, err := parseDefense(sc.Defense)
	if err != nil {
		return RunResult{}, fieldErr("defense", err)
	}
	res := RunResult{}
	if sc.Protocol == "gossip" {
		variant, verr := parseVariant(sc.Variant)
		if verr != nil {
			return RunResult{}, fieldErr("variant", verr)
		}
		res, err = RunGLCIA(GLOpts{
			Data: d, Family: sc.Family, Policy: policy, Variant: variant,
			Spec: spec, Utility: utilityFor(sc.Family),
		})
	} else {
		res, err = RunFLCIA(FLOpts{
			Data: d, Family: sc.Family, Policy: policy,
			Spec: spec, Utility: utilityFor(sc.Family),
			ClientFraction: sc.ClientFraction,
			DropoutProb:    sc.DropoutProb,
		})
	}
	if err != nil {
		return res, err
	}
	if werr := sc.writeMetricsDump(res); werr != nil {
		return res, werr
	}
	return res, nil
}

// writeMetricsDump writes the run's end-of-run registry snapshot as
// JSON to sc.MetricsOut (no-op when the field is empty). The dump is
// write-only observability output: nothing read back, nothing fed
// into round state.
func (sc Scenario) writeMetricsDump(res RunResult) error {
	if sc.MetricsOut == "" {
		return nil
	}
	f, err := os.Create(sc.MetricsOut)
	if err != nil {
		return fmt.Errorf("scenario: metrics_out: %v", err)
	}
	if err := res.Metrics.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("scenario: metrics_out: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("scenario: metrics_out: %v", err)
	}
	return nil
}

// RenderScenario formats one scenario run like the experiment tables.
func RenderScenario(sc Scenario, res RunResult) string {
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	rows := []AttackRow{{
		Dataset: sc.Dataset, Model: sc.Family, Setting: sc.Protocol,
		Result:    res.Attack,
		Transport: res.TransportName, Metrics: res.Metrics,
	}}
	out := RenderRows("Scenario: "+name, rows)
	if u := res.BestUtility(); u > 0 {
		out += fmt.Sprintf("best utility %.3f over %d rounds\n", u, len(res.Utility))
	}
	return out
}

// ChurnByzScenario is the robustness acceptance scenario: an FL run
// with heavy deterministic churn (≥20% round-over-round membership
// turnover), a 10% sign-flip Byzantine population and trimmed-mean
// aggregation. It completes, learns and hashes identically across
// inproc/wire/socket × worker counts (see the resilience golden
// tests).
func ChurnByzScenario() Scenario {
	return Scenario{
		Name:     "churn-byz",
		Protocol: "fed",
		Dataset:  "movielens",
		Family:   "gmf",
		Rounds:   6,
		Seed:     7,
		Knobs: Knobs{
			Churn:        "seed=5,initial=0.8,leave=0.25,join=0.5,stale-bound=2",
			Byzantine:    "kind=sign-flip,frac=0.1,seed=1",
			Aggregator:   "trimmed-mean",
			TrimFraction: 0.2,
		},
	}
}

// ScenarioPresets lists the named scenarios `ciabench -scenario` can
// run without a file.
func ScenarioPresets() []Scenario {
	return []Scenario{ChurnByzScenario()}
}

// ScenarioPreset returns the named preset, if any.
func ScenarioPreset(name string) (Scenario, bool) {
	for _, sc := range ScenarioPresets() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
