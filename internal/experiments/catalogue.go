package experiments

// Experiment is one result of the reproduction — a table, figure,
// section, ablation or extension — run by id and rendered as text.
type Experiment struct {
	ID  string
	Run func(Spec) (string, error)
}

// Experiments lists every experiment once, sorted by id. It is built
// on each call rather than held in a package variable, so programs
// that only call the runners do not link it.
func Experiments() []Experiment {
	rows := func(title string) func([]AttackRow) string {
		return func(r []AttackRow) string { return RenderRows(title, r) }
	}
	tradeoff := func(title, utility string) func([]TradeoffPoint) string {
		return func(p []TradeoffPoint) string { return RenderTradeoff(title, utility, p) }
	}
	return []Experiment{
		entry("ablation-fictive", RunFictiveAblation, RenderFictiveAblation),
		entry("ablation-participation", RunParticipationAblation, RenderParticipationAblation),
		entry("ablation-relevance", RunRelevanceAblation, RenderRelevanceAblation),
		entry("ablation-secureagg", RunSecureAggAblation, RenderSecureAggAblation),
		entry("ablation-staticgraph", RunStaticGraphAblation, RenderStaticGraphAblation),
		entry("compress-ratio", func(s Spec) ([]CompressionRatioRow, error) {
			return RunCompressionRatio(s, nil, nil)
		}, RenderCompressionRatio),
		entry("ext-modelfamily", RunModelFamilyStudy, RenderModelFamilyStudy),
		entry("ext-sparsify", RunSparsifyStudy, RenderSparsifyStudy),
		entry("fig1", RunFigure1, RenderFigure1),
		entry("fig3", RunFigure3, tradeoff("Figure 3: GMF privacy/utility trade-off", "HR")),
		entry("fig4", RunFigure4, tradeoff("Figure 4: PRME privacy/utility trade-off", "F1")),
		entry("fig5", RunFigure5, RenderFigure5),
		entry("sec8c2", RunAIAComparison, RenderAIAComparison),
		entry("sec8e", RunUniversality, RenderUniversality),
		entry("table2", RunTable2, rows("Table II: CIA on FedRecs")),
		entry("table3", RunTable3, rows("Table III: CIA on GossipRecs")),
		entry("table4", RunTable4, rows("Table IV: collusion in Rand-Gossip (GMF, MovieLens-like)")),
		entry("table5", RunTable5, rows("Table V: collusion under Share-less")),
		entry("table6", RunTable6, rows("Table VI: momentum ablation under collusion")),
		entry("table7", RunTable7, RenderTable7),
		entry("table8", RunTable8, RenderTable8),
		entry("table9", RunTable9, RenderTable9),
	}
}

// ExperimentByID returns the catalogue entry with the given id.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// entry joins a runner to the renderer of its result.
func entry[T any](id string, run func(Spec) (T, error), render func(T) string) Experiment {
	return Experiment{ID: id, Run: func(spec Spec) (string, error) {
		res, err := run(spec)
		if err != nil {
			return "", err
		}
		return render(res), nil
	}}
}
