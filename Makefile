# Development entry points. The bench target records the repository's
# performance trajectory: every run emits BENCH_$(N).json (benchmark ->
# iterations + ns/op, B/op, allocs/op and custom metrics) via cmd/benchjson,
# so successive PRs leave comparable perf snapshots behind.

GO ?= go
# N tags the benchmark snapshot; defaults to the commit count so successive
# snapshots sort naturally.
N ?= $(shell git rev-list --count HEAD 2>/dev/null || echo 0)
BENCH ?= .
BENCHTIME ?= 2s
# The benchmarks CI smokes on every push: the headline number of each
# subsystem, the compiled-vs-reference pairs, and AssessLargeModel, the whole
# design pipeline (model to rendered report) on the largest benchmark model.
SMOKE_BENCH = LTSGeneration|AssessLargeModel|MonitorThroughput|ValueRiskPipeline|EngineAssessCached|AnalyzeCompiled|AnalyzeReference|MinimizeCompiled|MinimizeReference|ModelStoreLoad|ClusterIngest|ExploreIncremental
# BASELINE is the perf-gate reference. It must be a like-for-like snapshot:
# per-op numbers from a 1-iteration smoke run include un-amortised setup, so
# they can only be compared against another 1-iteration run — never against
# the full-benchtime BENCH_<n>.json trajectory records. The committed smoke
# baseline is BENCH_smoke.json (re-record with `make bench-smoke N=smoke`
# when benchmark behaviour changes deliberately); if it is absent the newest
# BENCH_<n>.json is used as a best effort.
BASELINE ?= $(shell test -f BENCH_smoke.json && echo BENCH_smoke.json \
	|| ls BENCH_*.json 2>/dev/null | grep -v '^BENCH_ci\.json$$' | sort -t_ -k2 -n | tail -n 1)
# Gated metrics for bench-compare: allocation counts are deterministic and
# gate tightly; ns/op from a 1-iteration smoke run is noisy, so it only
# catches order-of-magnitude blowups.
COMPARE_METRICS ?= allocs/op,ns/op=300
THRESHOLD_PCT ?= 25
# Packages holding property tests; only their test binaries register the
# -proptest.* flags, so soak runs must enumerate them instead of using ./...
PROP_PACKAGES = . ./internal/proptest ./internal/proptest/scenario ./internal/synth \
	./internal/core ./internal/lts ./internal/risk ./internal/anonymize \
	./internal/pseudorisk ./internal/runtime ./internal/modelstore ./internal/cluster \
	./internal/explore
ROUNDS ?= 64
FUZZTIME ?= 30s

.PHONY: build test vet bench bench-smoke bench-compare explore-bench test-props fuzz cache-clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench runs the selected benchmarks (-benchmem) across every package and
# writes BENCH_$(N).json. Override BENCH / BENCHTIME / N as needed, e.g.:
#   make bench BENCH='Analyze' BENCHTIME=5s N=pr5
# The go-test run and the JSON conversion are separate steps (not a pipe) so
# a failing or non-compiling benchmark fails the target instead of being
# masked by benchjson's exit status.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchmem -benchtime=$(BENCHTIME) ./... > .bench_$(N).txt \
		|| (rm -f .bench_$(N).txt; exit 1)
	$(GO) run ./cmd/benchjson < .bench_$(N).txt > BENCH_$(N).json
	@rm -f .bench_$(N).txt
	@echo "wrote BENCH_$(N).json"

# bench-smoke is the CI variant: one iteration of the headline benchmarks,
# still recorded as BENCH_$(N).json so every CI run leaves a perf record.
bench-smoke:
	$(MAKE) bench BENCH='$(SMOKE_BENCH)' BENCHTIME=1x

# bench-compare is the perf-regression gate: re-run the smoke benchmarks as
# BENCH_ci.json and diff them against the newest committed snapshot with
# cmd/benchjson -compare; a gated metric regressing past its threshold exits
# nonzero and fails the build. Tune with e.g.:
#   make bench-compare THRESHOLD_PCT=10 COMPARE_METRICS='allocs/op,B/op,ns/op=300'
bench-compare:
	@test -n "$(BASELINE)" || { echo "bench-compare: no committed BENCH_*.json baseline found"; exit 1; }
	$(MAKE) bench-smoke N=ci
	@echo "comparing against $(BASELINE)"
	$(GO) run ./cmd/benchjson -compare -threshold-pct $(THRESHOLD_PCT) -metrics '$(COMPARE_METRICS)' $(BASELINE) BENCH_ci.json

# explore-bench runs just the regeneration benchmark (cold generation vs the
# metadata relabel) with allocation stats — the quick loop for tuning the
# internal/explore subsystem.
explore-bench:
	$(GO) test -run='^$$' -bench='ExploreIncremental' -benchmem -benchtime=$(BENCHTIME) .

# test-props soaks the property suites with more rounds per property than the
# bounded default that plain `go test ./...` runs (ROUNDS=64, override at
# will). A failure prints the exact `-proptest.seed=N` one-liner to replay it.
test-props:
	$(GO) test -count=1 $(PROP_PACKAGES) -proptest.rounds=$(ROUNDS)

# fuzz runs every native fuzz target for FUZZTIME each (go test accepts one
# -fuzz pattern per package invocation, hence the separate lines). New
# crashers land in the package's testdata/fuzz/<Target>/ corpus; commit them.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzObserve -fuzztime=$(FUZZTIME) ./internal/runtime
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/anonymize
	$(GO) test -run='^$$' -fuzz=FuzzModelUnmarshal -fuzztime=$(FUZZTIME) ./internal/dataflow
	$(GO) test -run='^$$' -fuzz=FuzzPolicyConstruction -fuzztime=$(FUZZTIME) ./internal/accesscontrol
	$(GO) test -run='^$$' -fuzz=FuzzStoreDecode -fuzztime=$(FUZZTIME) ./internal/modelstore
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzHandoffDecode -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzModelDelta -fuzztime=$(FUZZTIME) ./internal/explore

# cache-clean removes local persistent model-cache directories (the -model-cache
# registries the CLIs and examples write next to the repo).
cache-clean:
	rm -rf .model-cache
	find . -name '*.psm' -not -path './.git/*' -delete
