GO ?= go

# Shared knobs for the bench trajectory: the gate compares like against
# like, so the head collection must use the same roster subset and
# repeat count as the committed BENCH_seed.json baseline.
BENCH_MAX_ATOMS ?= 2000
BENCH_REPEATS ?= 3

.PHONY: build test cross portable-test lint lint-json lint-self check check-race chaos-smoke trace-smoke serve-smoke soak soak-short bench-json bench-gate perfbench-selftest fuzz-short tune-roster loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# cross builds and vets the module for arm64, the portable path: there
# the gb traversals run the Go kernel loops that amd64 hosts with AVX2
# replace (internal/gb/kernels.go), so they cannot rot unseen. On amd64,
# `go vet ./...` already checks the assembly against its Go declarations.
cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# portable-test runs the gb, tune and supervise suites on the Go kernel
# loops of that portable path, on this host: with FMA switched off
# math.Exp takes its non-FMA path, the start-up probe rejects the exp
# replica, and the traversals run the Go loops (TestPortableRunUsesGoLoops
# fails if they do not). It takes about 20 s.
portable-test:
	GODEBUG=cpu.fma=off $(GO) test -short -count=1 ./internal/gb/ ./internal/tune/ ./internal/supervise/

# lint runs the project static-analysis suite (internal/analysis), eight
# analyzers: per-function SPMD collective symmetry, simmpi/fault error
# handling, kernel determinism, panic-freedom in libraries, float
# equality, plus the interprocedural trio — collectivesym (cross-function
# collective divergence over the call graph), ctxflow (cancellation
# propagation), and hotalloc (per-iteration allocation in hot loops).
# Nonzero exit on findings. `make lint-json` emits the same findings as
# deterministic JSON for tooling. Before the analyzers, gofmt -l runs over
# every tracked .go file and any file it names (or any error it prints)
# fails the target.
lint:
	@out=$$(git ls-files -z '*.go' | xargs -0 gofmt -l 2>&1); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/gblint ./...

lint-json:
	$(GO) run ./cmd/gblint -json ./...

# lint-self runs the analyzers over their own golden corpora in both
# polarities (must-find positives, must-not-find negative twins) plus
# the call-graph and loader unit tests: a silently broken analyzer
# fails here instead of passing vacuously over a clean module.
lint-self:
	$(GO) test -count=1 -run 'TestGolden|TestMalformedIgnore|TestCallGraph|TestLoad' ./internal/analysis/

# chaos-smoke replays seeded chaos schedules under a short deadline, so
# any deadlock fails fast: crash and straggler plans (fault.Chaos)
# against the runtime and runDistributed, the self-healing driver; plans
# with corruptions too (fault.ChaosWithCorruption) against
# runDistributed, which must never return silently damaged numbers; a
# rank lost at the energy phase under Degrade, whose energy checkpoint
# must record the shrunk membership; both generators' plans and a crash
# at every op, each run ten times to identical outcomes; Degraded set
# exactly when a lost rank's energy share is missing; and both
# generators through serve's supervisor under load.
chaos-smoke:
	$(GO) test -timeout 120s -count=1 \
		-run 'TestChaosPlanNoDeadlock|TestChaosRecoverNeverDeadlocksOrLies|TestChaosCorruptionNeverSilent|TestDegradedEnergyCheckpointRecordsLostRanks|TestChaosReplaysIdentically|TestDegradedOnlyWhenEnergyShareMissing|TestChaosUnderLoad' \
		./internal/simmpi/ ./internal/gb/ ./internal/serve/

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

# loc prints the line counts the ROADMAP's size baseline tracks: non-test
# Go, test Go and amd64 assembly, leaving out _perfbench/ (a module of
# its own) and testdata/ corpora.
loc:
	@lines() { find . \( -path ./.git -o -path ./_perfbench -o -name testdata \) -prune -o -type f "$$@" -print0 | xargs -0 cat | wc -l; }; \
	printf 'non-test Go  %s\n' $$(lines -name '*.go' ! -name '*_test.go'); \
	printf 'test Go      %s\n' $$(lines -name '*_test.go'); \
	printf 'amd64 asm    %s\n' $$(lines -name '*_amd64.s')

# tune-roster is the tuner's full acceptance sweep: tune.Select at a
# 1 kcal/mol target on all 42 ZDock roster molecules, at one and at two
# ranks, each pick checked against the naïve energy on the degree-2
# surface and re-run bit for bit. It logs the chosen point, Select's wall
# time and its verification runs per molecule. It takes minutes (the
# largest molecule, 1BGX_l_b, has 16,301 atoms, and its naïve energy
# alone is a quadratic loop), so it is not part of CI or `make check`.
tune-roster:
	GBTUNE_ROSTER=full $(GO) test -count=1 -timeout 3600s -v -run '^TestSelectMeetsTargetAcrossRoster$$' ./internal/tune/

# fuzz-short runs each of the nine fuzz targets for 15 s from its seed
# corpus, one
# `go test -fuzz` invocation per target (go test fuzzes one target at a
# time): the checkpoint decoder (the four phase snapshots of a small run,
# with and without Obs), the XYZRQ and PQR readers (a 20-atom globule,
# 1PPE_l_b and a huge atom-count header), the network and storage
# fault-plan grammars (the round-trip test plans and seeded Chaos plans),
# the trace ingester (a two-rank run's Chrome trace and obs JSON export),
# the surface sampler (two atoms 2·10⁴ Å apart, a 20-atom globule and
# the first 48 atoms of 1PPE_l_b) and serve's job-request decoder with
# admission's validation (the serve tests' requests, a 2^40-thread
# request and a persisted job record). No input may panic or abort the
# process, and a failed decode returns no value. Any input the decoders
# accept must reach a fixed point after one encode-decode round, the
# sampler must equal its brute-force reference bit for bit, and an
# admitted job request must be finite with no more threads than atoms.
# The ninth, FuzzNearKernels, drives the three AVX2 kernels of the gb
# traversals (Born near field, energy pair term, far kernel table) with
# arbitrary positions, radii, charges, weights and block shapes,
# infinities and NaNs included, and requires the Go loops' bits; it
# skips on hosts without AVX2+FMA. Minimizing a new input is capped at
# 1 s (the default is 60 s) so the budget goes to fuzzing.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/gb/
	$(GO) test -run '^$$' -fuzz '^FuzzReadXYZRQ$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/molecule/
	$(GO) test -run '^$$' -fuzz '^FuzzReadPQR$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/molecule/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/fault/fs/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/obs/critpath/
	$(GO) test -run '^$$' -fuzz '^FuzzBuildSurface$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/surface/
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzNearKernels$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/gb/

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
check: chaos-smoke lint lint-self trace-smoke serve-smoke soak-short perfbench-selftest fuzz-short cross portable-test
	$(GO) vet ./...
	$(GO) test -race -timeout 3600s ./...
