# The CI jobs in .github/workflows/ci.yml run these targets, so each gate
# is written once, here, and a green `make ci` locally means a green CI run.

GO ?= go

# Pinned staticcheck release.
STATICCHECK_VERSION ?= 2025.1.1

# Pinned govulncheck release.
GOVULNCHECK_VERSION ?= v1.1.4

# The tag-gated smoke suites (load-smoke, scale-smoke) live in _test.go
# files behind these build tags; every static gate below runs once per tag
# set so gated code faces the same checks as the default build.
BUILD_TAGS := loadsmoke scalesmoke

.PHONY: all build vet fmt staticcheck iotml-lint govulncheck lint test contracts fallback fuzz shuffle short race bench bench-smoke bench-json serve-smoke fit-smoke artifact-matrix dist-smoke load-smoke scale-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@for t in $(BUILD_TAGS); do \
		echo "vet -tags $$t"; \
		$(GO) vet -tags $$t ./... || exit 1; \
	done

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# staticcheck prefers an installed binary (any dev box with one) and falls
# back to running the pinned release through the module cache, as on a CI
# runner. Runs once per tag set so the tag-gated smoke tests are checked
# too.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		sc="staticcheck"; \
	else \
		sc="$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi; \
	$$sc ./... || exit 1; \
	for t in $(BUILD_TAGS); do \
		echo "staticcheck -tags $$t"; \
		$$sc -tags $$t ./... || exit 1; \
	done

# iotml-lint runs the repo's own determinism analyzers (internal/analyzers:
# seededrand, walltime, maporder, hotpathalloc) over every package, once per
# tag set so the tag-gated smoke tests face the same determinism contracts.
iotml-lint:
	$(GO) run ./cmd/iotml-lint ./...
	@for t in $(BUILD_TAGS); do \
		echo "iotml-lint -tags $$t"; \
		$(GO) run ./cmd/iotml-lint -tags $$t ./... || exit 1; \
	done

# govulncheck scans the module against the Go vulnerability database. Same
# pinned-version pattern as staticcheck: prefer an installed binary, fall
# back to the pinned release. Needs network for the vuln DB, so it
# is a CI step and an on-demand local target, not part of `lint`.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	fi

lint: vet fmt iotml-lint

test:
	$(GO) test ./...

# contracts asserts the repository's contracts, one group per comment.
# scripts/contract.sh fails a check when any |-alternative of its -run
# pattern matches no test: plain go test passes such a check as "[no tests
# to run]", so a renamed test would silently void its contract.
CONTRACT := bash scripts/contract.sh

contracts:
# Assert vectorized and pairwise Gram paths agree (fixed-seed workload).
	$(CONTRACT) 'TestBlockGram' ./internal/kernel
	$(CONTRACT) 'TestScoreVectorizedVsExact' ./internal/mkl
	$(CONTRACT) 'TestVectorizedAndPairwiseSelectSamePartition' ./internal/core
# Assert CV fast path is bit-identical to the reference path.
	$(CONTRACT) 'TestFoldPlanMatchesKFold' ./internal/stats
	$(CONTRACT) 'TestFastPathMatchesReference|TestCVRidgePairsMatchSequentialFolds' ./internal/mkl
# Assert model artifacts round-trip bit-identically (golden file +
# learner/combiner/seed matrix).
	$(CONTRACT) 'TestGoldenArtifactLoadsAndReproducesScores|TestSaveLoadRoundTripIsBitIdentical' ./internal/model
	$(CONTRACT) 'TestArtifactRoundTripIsBitIdentical' ./internal/core
	$(CONTRACT) 'TestPredictMatchesInMemoryScoresBitIdentically' ./internal/serve
# Assert Fit selection contract (identical to the sequential fit across
# strategies x workers; CSV round-trip selection; CLI flags select the same
# with and without a fleet).
	$(CONTRACT) 'TestFitSelectionIdenticalAcrossWorkers' ./internal/core
	$(CONTRACT) 'TestFitCSVRoundTripReproducesSelection' .
	$(CONTRACT) 'TestFitGammaZeroSameWithDistWorkers' ./cmd/iotml
# Assert cancellation semantics (parsearch + search partial results, no
# leaked goroutines).
	$(CONTRACT) 'TestDoCancellation|TestDoPreCancelled' ./internal/parsearch -race
	$(CONTRACT) 'TestSearchCancellationReturnsPartialResult|TestScoreCancelledMidEvaluation' ./internal/mkl -race
# Assert search-core contract (strategies x {P=1, P=2, P=8, loopback
# fleet} bit-identical, sequential evaluation counts, cancellation
# partials, fault matrix).
	$(CONTRACT) 'TestSearchCoreDeterminism|TestSearchCancellationReturnsPartialResult' ./internal/mkl -race
	$(CONTRACT) 'TestFitCancellationReturnsPartialResult|TestFitGreedyCancelledBeforeSearchReturnsEmptyPartial|TestFitPreCancelled' ./internal/core
	$(CONTRACT) 'TestFaultMatrixSelectionBitIdentical' ./internal/distsearch
# Assert approximate Gram and block-cache contract (full-rank == exact,
# seeded determinism across workers, one cache contract for f64/f32/
# low-rank blocks with its single-use and clear rows, a scan keeping only
# the blocks two of its candidates share, a budgeted search's factors
# released before the re-score).
	$(CONTRACT) 'TestNystromFactorFullRankExact|TestRFFMapApproximatesRBF|TestPrimalDualRidgeEquivalence' ./internal/linalg
	$(CONTRACT) 'TestApprox|TestBlockGramCache' ./internal/kernel -race
	$(CONTRACT) 'TestApprox|TestBudgetedSearchAgreesWithExact|TestBudgetedSearchRescoresLikeFloat64|TestBudgetedSearchReleasesFactors|TestScanRetainsOnlyReusedBlocks' ./internal/mkl
# Assert buffer recycling keeps every bit and stays bounded (a refit in
# the same process selects, scores and saves identically and allocates
# under a third of the first fit; every length maps into a fixed table of
# size-class pools, and a class reuses storage across its lengths).
	$(CONTRACT) 'TestRefitIsBitIdenticalAndRecycles' ./internal/core
	$(CONTRACT) 'TestRecycler' ./internal/linalg -race
# Assert numeric backend contract (f64 bit-identical, f32 tolerance +
# worker determinism, spelling equivalence, budgeted fit over a fleet).
	$(CONTRACT) '.' ./internal/engine
	$(CONTRACT) 'TestBackend' ./internal/mkl
	$(CONTRACT) 'TestSpecBackendSpellings' ./internal/distsearch
	$(CONTRACT) 'TestFitDistributedBudgetedMatchesLocal' ./internal/core
	$(CONTRACT) 'TestWithBackend|TestAutoBackendFacade' .
# Assert dense kernels and the exp lanes match their scalar references bit
# for bit (AVX-512, AVX2 and Go-loop dispatch of Cholesky, SyrkT, the
# Syrk and pairwise-distance dot lanes, the accumulate steps and
# ExpScaled, the gathered fold scoring, both widths, every column-block
# and row tail, every feature count to 17, ±Inf and NaN through the
# distance clamp and the gathered product, failing pivots,
# stale factor and block buffers; exp lanes off under GODEBUG=cpu.fma=off;
# one CPU probe and fused ops only in the exp lanes).
	$(CONTRACT) 'MatchesScalarReference|TestExpLanesMatchesMathExp|TestExpLanesFollowMathExpBranch|TestAsmAudit' ./internal/linalg
# Assert partition Gram assembly, bound cross-Gram fills and the RBF blocks
# match their scalar chains bit for bit (every factory and combiner at
# every retention limit; every kernel shape, changing batch sizes on one
# bound value; the detected exp dispatch).
	$(CONTRACT) 'MatchesScalarReference' ./internal/kernel
# Assert serving contract (queued requests coalesce, drain answers every
# admitted request).
	$(CONTRACT) 'TestConcurrentRequestsAreCoalesced|TestShutdownDrainsAdmittedRequests' ./internal/serve -race

# fallback keeps the Go loops and the scalar math.Exp behind linalg's SIMD
# kernels compiled and tested: the purego tag runs them on this host, in
# linalg's own tests and in kernel's RBF tests (which run whichever exp
# path the build dispatches to), and an arm64 vet checks the build without
# assembly (the amd64 vet in `vet` runs asmdecl over the .s frame
# declarations).
fallback:
	$(GO) test -tags purego ./internal/linalg
	GOARCH=arm64 $(GO) vet ./internal/linalg
	$(GO) test -tags purego ./internal/kernel
	GOARCH=arm64 $(GO) vet ./internal/kernel

# fuzz gives each untrusted-input decoder — the partition parser, the
# CSV and JSONL ingesters, the search-worker boundaries, the artifact
# kernel-spec decoder, the serving predict route and the artifact loader —
# a short run, one go test -fuzz invocation per target (the fuzz engine
# takes one target at a time).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/partition
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzJobInstall$$' -fuzztime 10s ./internal/distsearch
	$(GO) test -run '^$$' -fuzz '^FuzzScoreRequest$$' -fuzztime 10s ./internal/distsearch
	$(GO) test -run '^$$' -fuzz '^FuzzKernelSpec$$' -fuzztime 10s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzPredictBody$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzLoadArtifact$$' -fuzztime 10s ./internal/model

# shuffle re-runs the suite with randomized test and subtest order, so
# inter-test state dependencies fail loudly instead of hiding behind
# declaration order.
shuffle:
	$(GO) test -shuffle=on -short ./...

short:
	$(GO) test -short ./...

# The deterministic core packages get a full (not -short) race run: their
# suites pin the bit-identity contracts under concurrency, which is exactly
# where the race detector earns its keep. The rest of the tree stays on
# -short so the target finishes in CI time.
RACE_FULL_PKGS := ./internal/mkl ./internal/parsearch ./internal/distsearch ./internal/engine ./internal/serve

race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 $(RACE_FULL_PKGS)

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# serve-smoke drives the model lifecycle end to end: fit a tiny model,
# start `iotml serve`, assert /v1/healthz plus golden /v1 predict responses
# (batched == single == committed fixture), then SIGTERM the server and
# assert a clean drain (exit 0). Mirrors the CI serve-smoke job.
serve-smoke:
	bash scripts/serve_smoke.sh

# fit-smoke drives the real-data fit path end to end: `iotml fit -data` on
# the committed tiny CSV, progress-JSONL capture, and a golden check on the
# selected partition. Mirrors the CI fit-smoke job.
fit-smoke:
	bash scripts/fit_smoke.sh

# artifact-matrix prints `config seed sha256` for 30 `iotml fit` artifacts
# (ten configurations, seeds 1-3). It gates nothing by itself: a change
# meant to keep every bit diffs its output against the parent tree's.
artifact-matrix:
	bash scripts/artifact_matrix.sh

# dist-smoke drives the fault-tolerant distributed search end to end: two
# real search-worker processes, a fit sharded across them with one worker
# SIGKILLed mid-sweep, then a fit against an all-dead fleet — both must
# reproduce the committed fit-smoke selection exactly (worker loss costs
# re-dispatches, never correctness) — and a budgeted fit over the fleet
# must select what the same budgeted fit selects in-process. Mirrors the
# CI dist-smoke job.
dist-smoke:
	bash scripts/dist_smoke.sh

# load-smoke saturates the multi-model server across a live hot-swap: a
# 16-client fleet hammers a throttled model, the artifact is replaced on
# disk mid-run, and the test asserts zero dropped admitted requests (every
# 200 is bit-identical to one model generation), well-formed 429/503
# shedding with Retry-After, and a p99 latency bound. Tag-gated out of the
# regular suite because it deliberately burns CPU. Mirrors the CI
# load-smoke job.
load-smoke:
	$(GO) test -tags loadsmoke -run TestLoadSmoke -count=1 -v ./internal/serve/

# scale-smoke exercises the approximate Gram engine at real scale: a
# synthetic n=10k fit under the nystrom:256 backend must finish inside a
# wall-clock and RSS budget, its top-K exact re-score must select the
# committed golden partition, and the budgeted search at n=1k must beat the
# exact exhaustive cone by the promised factor. Tag-gated like load-smoke
# because it deliberately allocates hundreds of MB and burns CPU. Mirrors
# the CI scale-smoke job.
scale-smoke:
	$(GO) test -tags scalesmoke -run TestScaleSmoke -count=1 -v -timeout 15m .

# BENCHTIME tunes the machine-readable benchmark run: the 1x default keeps
# the CI capture step fast; override with e.g. BENCHTIME=1s for stable
# numbers worth comparing across commits (the nightly workflow does).
# BENCHJSON_FLAGS passes extra flags to cmd/benchjson: pull-request CI sets
# -fail-on-regress so baseline regressions block the merge, while
# push-to-main and local runs stay warn-only.
BENCHTIME ?= 1x
BENCHJSON_FLAGS ?=

# bench-json runs the Gram-engine, parallel-search, and candidate-scoring
# suites and captures ns/op + allocs/op per benchmark in BENCH_gram.json,
# so the perf trajectory is tracked from PR 2 onward (CI uploads it as an
# artifact). Before the snapshot is replaced, cmd/benchjson diffs the fresh
# numbers against the committed baseline and warn-annotates any benchmark
# whose ns/op or allocs/op regressed by more than 20% (warnings only —
# 1x captures are noisy). The bench output lands in a temp file first so a
# benchmark failure fails the target instead of being masked by the final
# pipe stage, and the new JSON lands in a temp file so the baseline is
# still readable during the comparison and is only touched on success.
# Deliberately not part of `ci`: it would overwrite the committed
# BENCH_gram.json snapshot with single-iteration noise on every local run
# (CI runs it as its own step).
bench-json:
	@out=$$(mktemp); \
	if ! $(GO) test -bench='^(BenchmarkGram_|BenchmarkGramApprox_|BenchmarkBackend_|BenchmarkParallel_|BenchmarkScore_|BenchmarkFit_|BenchmarkServe_)' -benchmem -benchtime=$(BENCHTIME) -run='^$$' . > $$out; then \
		cat $$out; rm -f $$out; exit 1; \
	fi; \
	$(GO) run ./cmd/benchjson -baseline BENCH_gram.json -threshold 0.20 $(BENCHJSON_FLAGS) < $$out > BENCH_gram.json.tmp \
		&& mv BENCH_gram.json.tmp BENCH_gram.json && rm -f $$out
	@echo "wrote BENCH_gram.json"

ci: build lint test contracts fallback fuzz shuffle race bench-smoke serve-smoke fit-smoke dist-smoke load-smoke scale-smoke
