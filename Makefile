# SHARP (Go reproduction) — convenience targets. Everything is plain
# go tooling; the Makefile only names the common invocations.

GO ?= go

.PHONY: all build test vet race check crash-test soak bench bench-short bench-check trend-check experiments fuzz examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-commit gate: vet plus the test suite in a shuffled order, which
# catches inter-test state leaks that a fixed order hides.
check:
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...

# Durability suite under the race detector: torn-log repair, flush-policy
# visibility, checkpoint truncation, and the resume-equals-uninterrupted
# differentials (core replay and CLI end to end), and the core.Stepper
# interrupt and failure-budget tests. These are the tests that
# guard against silent data loss; run them before touching the recording or
# resume paths.
crash-test:
	$(GO) test -race -run 'Crash|Torn|Truncate|Flush|OpenAppend|Resume|Interrupt|RowSink|CloseAlways|Checkpoint|Atomic|Segment|Manifest|Stepper' \
		./internal/record/ ./internal/core/ ./cmd/sharp/
	SHARP_RECORD_NOMMAP=1 $(GO) test -race -run 'Crash|Torn|Truncate|Flush|OpenAppend|Resume|Segment|Manifest|Stepper' \
		./internal/record/ ./internal/core/ ./cmd/sharp/

# Campaign-service chaos soak under the race detector: multi-tenant
# campaigns sharded across a worker fleet while workers are randomly
# murdered and respawned (seeded via SHARP_SOAK_SEED for reproducibility),
# plus the worker-death / coordinator-crash / drain differentials. Every
# campaign must finish byte-identical to its sequential reference. The
# timeout is a hard ceiling: a scheduling deadlock fails fast instead of
# hanging the build.
soak:
	$(GO) test -race -timeout 300s -count=1 \
		-run 'TestServiceSoak|TestWorkerDeathReassignsExactly|TestCoordinatorCrashRestart|TestDrainCheckpointsAndResumes' \
		./internal/service/

# One testing.B target per paper table/figure plus ablations and substrate
# micro-benchmarks. BENCH_baseline.json snapshots the pre-parallel-engine
# seed for comparison (BENCH_pr4.json the density-engine rework); bench-short
# is the CI smoke variant and bench-check additionally gates the
# deterministic ReportMetric columns against the baseline via
# cmd/sharp-benchdiff — the reproduction targets must not drift no matter
# how the analysis path is optimized. BENCH_pr7.json additionally gates the
# binary record log: bin_bytes_per_row exactly and speedup_x as a floor
# (binary record+replay must stay >=10x the CSV codec at 1e6 rows), and
# BENCH_pr8.json exact-gates cp_index: the seeded change-point detector must
# keep localizing the injected shifts at the same indices. BENCH_pr10.json
# gates the adaptive budget scheduler: alloc_runs exactly (the allocation
# ledger is deterministic for a fixed seed+budget) and ci_gain_x as a floor
# (UCB must keep beating round-robin by >=1.1x mean CI width on the
# reference design). speedup_x is machine-timed, so bench-check runs its
# benchmark five more times and sharp-benchdiff gates the median of the
# repeats against the floor; exact columns must match on every repeat. A
# benchmark run that fails (a crash, a failed gate inside a benchmark)
# fails the target and prints the failing packages' output. The full pass
# runs one package's benchmark binary at a time (-p 1): BenchmarkReplay1e7
# peaks near 6.8 GB, which must not share an 8 GB host with another one.
bench:
	$(GO) test -bench=. -benchmem ./...

bench-short:
	$(GO) test -run=XXX -bench=. -benchmem -benchtime=1x ./...

bench-check:
	@tmp=$$(mktemp) && out=$$(mktemp) && \
	bench() { \
		$(GO) test -run=XXX -benchtime=1x "$$@" > $$out 2>&1; rc=$$?; cat $$out >> $$tmp; \
		[ $$rc -eq 0 ] || awk '{ b = b $$0 "\n" } /^(ok|FAIL|\?)[ \t]/ { if ($$1 == "FAIL") printf "%s", b; b = "" } END { printf "%s", b }' $$out >&2; \
		return $$rc; \
	} && \
	bench -bench=. -benchmem -p 1 ./... && \
	$(GO) run ./cmd/sharp-benchdiff -in $$tmp -baseline BENCH_baseline.json -metrics 'multimodal_%,savings_%' && \
	bench -bench='^BenchmarkRecordReplaySpeedup1e6$$' -count=5 ./internal/record/ && \
	$(GO) run ./cmd/sharp-benchdiff -in $$tmp -baseline BENCH_pr7.json -metrics 'bin_bytes_per_row' -min 'speedup_x' && \
	$(GO) run ./cmd/sharp-benchdiff -in $$tmp -baseline BENCH_pr8.json -metrics 'cp_index' && \
	$(GO) run ./cmd/sharp-benchdiff -in $$tmp -baseline BENCH_pr9.json -metrics 'reuse_allocs' -min 'mmap_speedup_x' && \
	$(GO) run ./cmd/sharp-benchdiff -in $$tmp -baseline BENCH_pr10.json -metrics 'alloc_runs' -min 'ci_gain_x'; \
	rc=$$?; rm -f $$tmp $$out; exit $$rc

# Change-point scan over the committed snapshot history: E-Divisive per
# (benchmark, metric) series across every BENCH_*.json, failing on
# unacknowledged regressions (drops in speedup_x/rows/s, drift in exact
# reproduction metrics). Deterministic under the default seed. See
# DESIGN.md §13.
trend-check:
	$(GO) run ./cmd/sharp-benchdiff -trend 'BENCH_*.json' -ack-file acks.txt

# Regenerate every paper table and figure into results/.
experiments:
	$(GO) run ./cmd/sharp-experiments --out results all

# Short fuzz sessions over the hand-written parsers and the statistics
# that must match a reference bit for bit.
fuzz:
	$(GO) test -run=XXX -fuzz=FuzzParseYAML -fuzztime=30s ./internal/config/
	$(GO) test -run=XXX -fuzz=FuzzParseMetadata -fuzztime=30s ./internal/record/
	$(GO) test -run=XXX -fuzz=FuzzCSVRows -fuzztime=30s ./internal/record/
	$(GO) test -run=XXX -fuzz=FuzzScanCSV -fuzztime=30s ./internal/record/
	$(GO) test -run=XXX -fuzz=FuzzScanBinary -fuzztime=30s ./internal/record/
	$(GO) test -run=XXX -fuzz=FuzzScanManifest -fuzztime=30s ./internal/record/
	$(GO) test -run=XXX -fuzz=FuzzCompleteBody -fuzztime=30s ./internal/service/
	$(GO) test -run=XXX -fuzz='^FuzzCampaignSpec$$' -fuzztime=30s ./internal/service/
	$(GO) test -run=XXX -fuzz='^FuzzSpec$$' -fuzztime=30s -fuzzminimizetime=100x ./internal/core/
	$(GO) test -run=XXX -fuzz='^FuzzRequestBodies$$' -fuzztime=30s ./internal/service/
	$(GO) test -run=XXX -fuzz='^FuzzLeaseResponse$$' -fuzztime=30s -fuzzminimizetime=100x ./internal/service/
	$(GO) test -run=XXX -fuzz=FuzzHalvesKS -fuzztime=30s -fuzzminimizetime=100x ./internal/stats/stream/
	$(GO) test -run=XXX -fuzz=FuzzMannWhitneyU -fuzztime=30s -fuzzminimizetime=100x ./internal/stats/
	$(GO) test -run=XXX -fuzz=FuzzSortedCopy -fuzztime=30s -fuzzminimizetime=100x ./internal/stats/
	$(GO) test -run=XXX -fuzz=FuzzBootstrapMeanCI -fuzztime=30s -fuzzminimizetime=100x ./internal/stats/

examples:
	@for ex in quickstart gpu-compare concurrency finegrained stopping duet workflow; do \
		echo "== examples/$$ex =="; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done; echo "all examples OK"

clean:
	$(GO) clean ./...
