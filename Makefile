GO ?= go
FUZZTIME ?= 15s

.PHONY: build build-cross test vet botvet botvet-json botvet-sarif botvet-timed race verify verify-race bench bench-smoke bench-allocs bench-update bench-record bench-stream bench-trajectory load-smoke load-record snapshot-smoke perfbench-test report fmt fmt-check fuzz

build:
	$(GO) build ./...

# build-cross type-checks the non-unix build tags: the dataset package
# carries a !unix mmap stub (mmap_other.go), and nothing may grow a
# silent unix-only dependency outside it. Compile-only — no tests run.
build-cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# BOTVET_SRC is everything the botvet binary is built from; touching any
# of it invalidates bin/botvet without forcing a rebuild on unrelated
# repo edits.
BOTVET_SRC := go.mod $(wildcard go.sum) $(shell find cmd/botvet internal/analysis vendor -name '*.go' 2>/dev/null)

bin/botvet: $(BOTVET_SRC)
	$(GO) build -o bin/botvet ./cmd/botvet

# botvet runs the project-specific analyzers — the SSA tier (goleak,
# ctxflow, wireframe), the invariant tier (nodeterm, lockguard,
# snapshotalias, floateq, sharedslice, parmerge, hotalloc, rngstream),
# and the columnar-era tier (mmaplife, lazymat, memodisc) —
# over every package via go vet's -vettool hook. Exit code 0 means every
# analyzer ran clean; 1 means diagnostics (or build failure); 2 means the
# tool was misused.
#
# The run is stamp-cached: the key hashes go.mod/go.sum, every .go file,
# and the built botvet binary itself (so a tool rebuilt from the same
# sources but a different toolchain re-runs). A no-op invocation skips
# the vet sweep entirely. Delete bin/.botvet-clean to force a re-run.
BOTVET_STAMP := bin/.botvet-clean
botvet: bin/botvet
	@hash=$$( { cat go.mod go.sum 2>/dev/null; cat bin/botvet; find cmd examples internal vendor -name '*.go' -print0 2>/dev/null | sort -z | xargs -0 cat; } | sha256sum | cut -d' ' -f1 ); \
	if [ -f $(BOTVET_STAMP) ] && [ "$$(cat $(BOTVET_STAMP))" = "$$hash" ]; then \
		echo "botvet: clean (cached, key $${hash%??????????????????????????????????????????????????})"; \
	else \
		rm -f $(BOTVET_STAMP); \
		$(GO) vet -vettool=$(abspath bin/botvet) ./... && echo "$$hash" > $(BOTVET_STAMP); \
	fi

# botvet-json is the same gate with machine-readable output: go vet -json
# emits one JSON object per package keyed by analyzer name, suitable for
# editor integrations and CI annotation tooling.
botvet-json: bin/botvet
	$(GO) vet -json -vettool=$(abspath bin/botvet) ./...

# botvet-sarif converts the gate's findings to a SARIF 2.1.0 log for the
# CI code-scanning upload. The log is written even when findings fail the
# target, so the artifact survives a red run.
botvet-sarif: bin/botvet
	$(abspath bin/botvet) -format=sarif ./... > botvet.sarif

# botvet-timed runs each SSA- and columnar-tier analyzer alone and
# reports wall-clock, so a slow interprocedural pass shows up in CI logs
# before it slows the merge gate for everyone.
botvet-timed: bin/botvet
	@for a in goleak ctxflow wireframe mmaplife lazymat memodisc; do \
		start=$$(date +%s%N); \
		$(GO) vet -vettool=$(abspath bin/botvet) -$$a ./... || exit 1; \
		end=$$(date +%s%N); \
		printf 'botvet[%s]: %d ms\n' "$$a" $$(( (end - start) / 1000000 )); \
	done

race:
	$(GO) test -race ./...

# verify-race is the dynamic complement of the static gate: the worker
# parity, determinism, and concurrent-access tests — everything the
# sharedslice/parmerge analyzers reason about statically — run under the
# race detector with the full machine's parallelism. -count=2 shakes out
# once-per-process caching effects (sync.Once indexes, memoized views).
verify-race:
	$(GO) test -race -count=2 \
		-run 'TestMap|TestChunk|TestWorkers|Parallel|Concurrent|Deterministic|TestParity|TestStoreAccessors|TestStoreSummaryWorkers|TestBotDense|TestDispersionIndex|TestIngest|TestSnapshot' \
		./internal/par/ ./internal/dataset/ ./internal/core/ ./internal/stream/ ./internal/synth/ ./internal/experiments/ ./internal/cluster/

# verify is the full pre-merge gate: build, stock vet, project analyzers,
# formatting, the race-enabled test suite, and the wall-clock trajectory
# gate over the committed BENCH records.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) botvet
	@fmtout=$$(gofmt -l . | grep -v '^vendor/' || true); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) test -race ./...
	$(MAKE) bench-trajectory

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# bench-smoke compiles and single-shots every benchmark so they cannot
# bit-rot; -short skips the fixed-scale (scale 1/10) kernel benchmarks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -short -run=^$$

# bench-allocs runs the hot-kernel micro-benchmarks with -benchmem and
# fails when any exceeds its budget in bench_thresholds.json (see
# cmd/benchguard). This is the CI gate against allocation regressions in
# the ARIMA fitter, the dispersion scan, the cross-shard merge, and the
# columnar store build. The second pattern segment (scale1) only filters
# sub-benchmarks, so the flat kernel benches are unaffected by it.
BENCH_ALLOC_PATTERN := 'BenchmarkFit$$|BenchmarkAutoFit$$|BenchmarkDispersionSeries$$|BenchmarkMergeSnapshots$$|BenchmarkNewStore$$/scale1$$'
BENCH_ALLOC_PKGS := ./internal/timeseries ./internal/core ./internal/cluster .
bench-allocs:
	$(GO) test -run=^$$ -bench $(BENCH_ALLOC_PATTERN) \
		-benchmem -benchtime=10x $(BENCH_ALLOC_PKGS) > bench_allocs.out
	@cat bench_allocs.out
	$(GO) run ./cmd/benchguard -in bench_allocs.out -thresholds bench_thresholds.json
	@rm -f bench_allocs.out

# bench-update re-measures the budgeted kernels and regenerates
# bench_thresholds.json with headroom (see benchguard -update). Run after
# a deliberate allocation-profile change, then review the diff.
bench-update:
	$(GO) test -run=^$$ -bench $(BENCH_ALLOC_PATTERN) \
		-benchmem -benchtime=10x $(BENCH_ALLOC_PKGS) > bench_allocs.out
	@cat bench_allocs.out
	$(GO) run ./cmd/benchguard -in bench_allocs.out -thresholds bench_thresholds.json -update
	@rm -f bench_allocs.out

# bench-record runs the trajectory harness and appends the next
# BENCH_<n>.json. BENCH_SCALE=10 BENCH_BASELINE=BENCH_0.json make bench-record
BENCH_SCALE ?= 1
BENCH_BASELINE ?=
bench-record:
	$(GO) run ./cmd/botbench -scale $(BENCH_SCALE) \
		$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) \
		-commit $$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

# bench-stream records streaming ingest throughput (attacks/sec).
bench-stream:
	$(GO) test -bench='BenchmarkStream(Ingest|Snapshot)' -benchmem -run=^$$

# load-smoke drives a 2-shard cluster in-process with a small client
# fleet and fails when p99 latency blows the budget. The report lands in
# load_smoke.json (not the committed trajectory) so CI can archive it.
LOAD_P99 ?= 250ms
load-smoke:
	$(GO) run ./cmd/botload -mode direct -shards 2 -clients 256 \
		-duration 3s -scale 0.02 -churn 1s \
		-assert-p99 $(LOAD_P99) -out load_smoke.json

# load-record runs the full-size load test (10k clients over 4 shards)
# and appends the next BENCH_<n>.json to the committed trajectory.
load-record:
	$(GO) run ./cmd/botload -mode direct -shards 4 -clients 10000 \
		-duration 10s -scale 0.05 \
		-commit $$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

# fuzz smoke-runs each decoder fuzzer (dataset codecs and the cluster
# wire protocol) for FUZZTIME.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeCSV -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDecodeJSONL -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDecodeWire -fuzztime=$(FUZZTIME) ./internal/cluster/

# bench-trajectory enforces the wall-clock regression gate over the
# committed BENCH_<n>.json sequence (see benchguard -trajectory): the two
# newest same-scale reports are compared phase by phase, and the absolute
# ceilings in bench_wall_budgets.json (e.g. scale-10 snapshot load ≤ 5s)
# are checked against the newest matching report.
bench-trajectory:
	$(GO) run ./cmd/benchguard -trajectory . -wall-budgets bench_wall_budgets.json

# snapshot-smoke proves the binary columnar snapshot codec end to end at
# scale 0.2: write a snapshot with botgen, reload it with botreport — once
# over the default mmap path and once with BOTSCOPE_NO_MMAP=1 forcing the
# io.ReadAll fallback — and require both reloaded Table IIIs to match the
# regenerated one byte for byte. The stderr load line pins which path each
# run actually took. The .bscs file is left behind for the CI artifact
# upload.
snapshot-smoke:
	$(GO) run ./cmd/botgen -scale 0.2 -seed 1 -snapshot snapshot_smoke.bscs
	$(GO) run ./cmd/botreport -snapshot snapshot_smoke.bscs -scale 0.2 -only "Table III" > snapshot_smoke_loaded.txt 2> snapshot_smoke_mmap.log
	grep -q "mmap=true" snapshot_smoke_mmap.log
	BOTSCOPE_NO_MMAP=1 $(GO) run ./cmd/botreport -snapshot snapshot_smoke.bscs -scale 0.2 -only "Table III" > snapshot_smoke_nommap.txt 2> snapshot_smoke_nommap.log
	grep -q "mmap=false" snapshot_smoke_nommap.log
	$(GO) run ./cmd/botreport -scale 0.2 -seed 1 -only "Table III" > snapshot_smoke_generated.txt
	cmp snapshot_smoke_loaded.txt snapshot_smoke_generated.txt
	cmp snapshot_smoke_nommap.txt snapshot_smoke_generated.txt
	@rm -f snapshot_smoke_loaded.txt snapshot_smoke_nommap.txt snapshot_smoke_generated.txt snapshot_smoke_mmap.log snapshot_smoke_nommap.log
	@echo "snapshot-smoke: mmap and fallback reloads are byte-identical"

# perfbench-test runs the benchmark module's own tests (a separate Go
# module under perfbench/). TestReferenceDigest among them pins the
# benchmark's pinned report byte for byte, so any change to an analysis
# that moves a rendered table or figure fails here.
perfbench-test:
	cd perfbench && $(GO) test ./...

report:
	$(GO) run ./cmd/botreport -scale 0.2

fmt:
	gofmt -l -w cmd examples internal *.go

fmt-check:
	@fmtout=$$(gofmt -l . | grep -v '^vendor/' || true); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
