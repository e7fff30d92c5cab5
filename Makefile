GO ?= go

# Shared knobs for the bench trajectory: the gate compares like against
# like, so the head collection must use the same roster subset and
# repeat count as the committed BENCH_seed.json baseline.
BENCH_MAX_ATOMS ?= 2000
BENCH_REPEATS ?= 3

.PHONY: build test lint lint-json lint-self check check-race chaos-smoke trace-smoke serve-smoke soak soak-short bench-json bench-gate perfbench-selftest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the project static-analysis suite (internal/analysis), eight
# analyzers: per-function SPMD collective symmetry, simmpi/fault error
# handling, kernel determinism, panic-freedom in libraries, float
# equality, plus the interprocedural trio — collectivesym (cross-function
# collective divergence over the call graph), ctxflow (cancellation
# propagation), and hotalloc (per-iteration allocation in hot loops).
# Nonzero exit on findings. `make lint-json` emits the same findings as
# deterministic JSON for tooling.
lint:
	$(GO) run ./cmd/gblint ./...

lint-json:
	$(GO) run ./cmd/gblint -json ./...

# lint-self runs the analyzers over their own golden corpora in both
# polarities (must-find positives, must-not-find negative twins) plus
# the call-graph and loader unit tests: a silently broken analyzer
# fails here instead of passing vacuously over a clean module.
lint-self:
	$(GO) test -count=1 -run 'TestGolden|TestMalformedIgnore|TestCallGraph|TestLoad' ./internal/analysis/

# chaos-smoke replays seeded chaos schedules against the runtime and the
# self-healing drivers under a short deadline: any deadlock fails fast.
chaos-smoke:
	$(GO) test -timeout 120s -count=1 \
		-run 'TestChaosPlanNoDeadlock|TestChaosRecoverNeverDeadlocksOrLies|TestDistDataChaosNeverDeadlocks' \
		./internal/simmpi/ ./internal/gb/

# trace-smoke runs a small fault-free layout sweep with -trace-out and
# -metrics-out and asserts the Chrome trace parses with every rank
# timeline carrying all four algorithm phases, and the metrics file's
# histograms satisfy the exporter invariants. It then runs the
# cross-rank critical-path analyzer (gbtrace -json) over the same trace
# and validates the report schema: per-rank compute+comm+idle summing
# exactly to the wall, sorted keys, a contiguous monotone path.
trace-smoke:
	$(GO) run ./cmd/clustersim -atoms 2000 -nodes 1,2 -rpn 2 \
		-trace-out /tmp/gbpolar-trace.json \
		-metrics-out /tmp/gbpolar-metrics.json >/dev/null
	$(GO) run ./cmd/tracecheck \
		-phases octree-build,approx-integrals,push-integrals-to-atoms,approx-epol \
		-metrics /tmp/gbpolar-metrics.json \
		/tmp/gbpolar-trace.json
	$(GO) run ./cmd/gbtrace -json -out /tmp/gbpolar-critpath.json /tmp/gbpolar-trace.json
	$(GO) run ./cmd/tracecheck -critpath /tmp/gbpolar-critpath.json

# serve-smoke drives the real gbd binary end to end: good / malformed /
# over-quota requests, then SIGTERM with a job in flight, restart, and
# a byte-for-byte comparison of the resumed result against the
# uninterrupted run (the drain-checkpoint contract, at process level).
serve-smoke:
	$(GO) test -timeout 300s -count=1 -run TestServeSmoke ./cmd/gbd/

# soak runs the storage/resource fault-domain soak (cmd/gbsoak): the
# daemon core in-process over a seeded fault-injecting filesystem —
# ENOSPC, short/torn writes, fsync errors and lies, corrupt reads —
# combined with network chaos, mid-run kills, and power loss after
# drain, asserting no acked job is lost and disk-fault-only jobs finish
# bit-identical to a clean oracle. soak-short is the CI-sized plan
# (< 90s); a red run writes its report into soak-failure/ for artifact
# upload. Override the universe with SOAK_SEED.
SOAK_SEED ?= 1

soak:
	$(GO) run ./cmd/gbsoak -seed $(SOAK_SEED) -v -bundle soak-failure

soak-short:
	$(GO) run ./cmd/gbsoak -short -seed $(SOAK_SEED) -v -bundle soak-failure

# bench-json collects the head bench trajectory (roster × driver
# layouts) as schema-versioned JSON. BENCH_seed.json was produced the
# same way; see EXPERIMENTS.md for regenerating it after an intended
# performance or workload change.
bench-json:
	$(GO) run ./cmd/benchjson -label head -out BENCH_head.json \
		-max-atoms $(BENCH_MAX_ATOMS) -repeats $(BENCH_REPEATS)

# bench-gate is the perf regression gate: collect a fresh head
# trajectory and diff it against the committed seed baseline. Nonzero
# exit on any host-normalized kernel slowdown past the gate ratio or on
# deterministic ops/model/histogram drift.
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff BENCH_seed.json BENCH_head.json

# perfbench-selftest builds the end-to-end benchmark (_perfbench, a module
# of its own that the main module's ./... skips) against this checkout and
# runs its unit tests and short-mode self-test, so a library change that
# breaks the benchmark fails here rather than in a benchmark run.
perfbench-selftest:
	cd _perfbench && GOWORK=off $(GO) test -count=1 ./...

# check-race is the quick race pass: short mode skips the figure
# sweeps, PB grid solves, and calibration probes (the numerics they
# cover are single-goroutine anyway), leaving the concurrency-bearing
# suites — simmpi, gb drivers, supervise, obs — under the detector at
# a few minutes of wall time. `make check` still races everything.
check-race:
	$(GO) test -race -short -count=1 -timeout 1200s ./...

# The race detector multiplies the bench suite's runtime ~14x (past go
# test's 600s default package timeout on modest hardware), so the race
# pass carries an explicit generous timeout.
check: chaos-smoke lint lint-self trace-smoke serve-smoke soak-short perfbench-selftest
	$(GO) vet ./...
	$(GO) test -race -timeout 3600s ./...
