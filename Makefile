GO ?= go
# benchstat needs several samples per benchmark to compute intervals.
BENCH_COUNT ?= 6

.PHONY: all build vet lint test race fuzz chaos bench bench-tables bench-compare

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full static-analysis gate: standard vet, then the in-repo cialint
# suite (detrand, mapiter, poolleak, mathxseam — see ANALYSIS.md) as a
# -vettool plus the Makefile/chaos-suite sync check, then the pinned
# external tools when they are installed (tools/tools.go documents the
# pinned install; offline checkouts get a skip notice, not a failure).
lint: vet
	$(GO) build -o bin/cialint ./cmd/cialint
	$(GO) vet -vettool=$(abspath bin/cialint) ./...
	bin/cialint -chaos-sync
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH; skipping (see tools/tools.go for the pinned install)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not on PATH; skipping (see tools/tools.go for the pinned install)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout=40m ./...

# Short coverage-guided fuzz of the wire codecs (dense CPS1 and the
# sparse+quantized CPQ1 decoder), the RPC frame decoder, the
# declarative scenario decoder and the deployment-plan spec grammar
# (the committed seed corpora under */testdata/fuzz always run as part
# of `make test`).
fuzz:
	$(GO) test -fuzz='^FuzzParamSetReadFrom$$' -fuzztime=30s -run='^$$' ./internal/param/
	$(GO) test -fuzz='^FuzzSparseCodecDecode$$' -fuzztime=30s -run='^$$' ./internal/param/
	$(GO) test -fuzz='^FuzzFrameRead$$' -fuzztime=30s -run='^$$' ./internal/transport/rpc/
	$(GO) test -fuzz='^FuzzScenarioDecode$$' -fuzztime=30s -run='^$$' ./internal/experiments/
	$(GO) test -fuzz='^FuzzPlanSpec$$' -fuzztime=30s -run='^$$' ./internal/planspec/

# Fault-injection suite under the race detector: the fed and gossip
# replay harnesses (TestReplay: every case, its fault, churn and
# Byzantine cases included, gives one digest on every backend and
# worker count), the RPC lifecycle/retry races
# (concurrent Close vs in-flight round-trips, server Close mid-
# broadcast, graceful drain), and the golden chaos + relay-restart
# acceptance checks. See RESILIENCE.md.
chaos:
	$(GO) test -race -timeout=20m \
		-run='Faulty|Fault|Resilience|Straggler|Quorum|Blackout|DeliverFailure|UploadLoss|Replay|Retry|Backoff|Reconnect|Timeout|Shutdown|Close|Eviction|Idle|Unreachable|GivesUp|SilentServer|RelayRestart' \
		./internal/transport/ ./internal/transport/rpc/ ./internal/fed/ ./internal/gossip/ ./internal/experiments/

# Microbenchmarks of the round engine, the parameter pipeline and the
# batched scoring kernels (AVX2 and scalar sub-benchmarks),
# emitted in benchstat-comparable form. Compare two trees with e.g.
#
#	make bench > old.txt   # on the baseline checkout
#	make bench > new.txt   # on the candidate
#	benchstat old.txt new.txt
bench:
	$(GO) test -run='^$$' -count=$(BENCH_COUNT) -benchmem \
		-bench='BenchmarkFedRound|BenchmarkObsOverhead|BenchmarkGossipCycle|BenchmarkParamClone|BenchmarkUtilityHR|BenchmarkUtilityF1|BenchmarkFedAggregate|BenchmarkWireRound|BenchmarkSocketRound|BenchmarkScoreItems|BenchmarkCIAEndRound|BenchmarkRefreshFictive|BenchmarkTrainLocal|BenchmarkCodecThroughput|BenchmarkTrueCommunities|BenchmarkSigmoidInto|BenchmarkGemvRows|BenchmarkDotNormRows' \
		./internal/fed/ ./internal/gossip/ ./internal/param/ ./internal/model/ ./internal/attack/ ./internal/evalx/ ./internal/mathx/

# Full paper-table reproduction pass (one iteration per table).
bench-tables:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

# One-command regression check for perf PRs: compare two `make bench`
# captures with benchstat when it is installed, falling back to the
# bundled averaging script otherwise.
#
#	make bench > old.txt   # on the baseline checkout
#	make bench > new.txt   # on the candidate
#	make bench-compare OLD=old.txt NEW=new.txt
bench-compare:
	@test -n "$(OLD)" && test -n "$(NEW)" || \
		{ echo "usage: make bench-compare OLD=old.txt NEW=new.txt"; exit 2; }
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$(OLD)" "$(NEW)"; \
	else \
		echo "benchstat not found (go install golang.org/x/perf/cmd/benchstat@latest); using scripts/benchdiff.awk"; \
		awk -f scripts/benchdiff.awk "$(OLD)" "$(NEW)"; \
	fi
