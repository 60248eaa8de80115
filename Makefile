# Developer workflow. `make check` is the pre-PR gate: formatting, vet,
# full build, and the race-enabled test slice covering the telemetry
# subsystem and the collectors that feed it.

GO ?= go

# Per-target budget for the fuzz smoke; CI and `make check` run both
# targets, so the gate costs about twice this.
FUZZTIME ?= 15s

.PHONY: check fmt vet vet-gcverify lint build test race test-all bench-telemetry bench-smoke serve-smoke verify-smoke heaplive-smoke dispatch-smoke concurrent-smoke workload-smoke fuzz-smoke diff-smoke cover

check: fmt vet vet-gcverify lint build race test-all serve-smoke dispatch-smoke concurrent-smoke workload-smoke fuzz-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Explicit shards for the gc-map verifier and its CLI so a vet failure
# there is attributed to the package, not the whole tree.
vet-gcverify:
	$(GO) vet ./internal/gcverify/... ./cmd/gcverify/...

# Project-specific static checks (internal/lint): range-over-map in the
# packages where iteration order would leak into generated code or gc
# tables and break compile determinism.
lint:
	$(GO) run ./cmd/gclint

build:
	$(GO) build ./...

# Race slice: the concurrent subsystems — the decode cache and parallel
# stack walker (gctab, gc), the generational collector that walks
# through them (gengc), and the telemetry tracer they all feed.
race:
	$(GO) test -race ./internal/telemetry/... ./internal/gc/... ./internal/gctab/... ./internal/gengc/...

test-all:
	$(GO) test ./...

bench-telemetry:
	$(GO) test -bench . -benchmem ./internal/telemetry/

# Decode-cache and parallel-trace smoke: run the cached-vs-uncached
# takl comparison and the trace-width comparison (each fails if its
# runs diverge; the latter also fails if any width's median mark is
# over 1.1x width 1's), leave both JSON measurements under artifacts/
# for CI to upload, and exercise the per-phase microbenchmarks once.
bench-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/paperbench -cache -snapshot artifacts/takl-telemetry.json
	$(GO) run ./cmd/paperbench -parallel -bench5 artifacts/BENCH_5.json
	$(GO) test -run '^$$' -bench 'Phase' -benchtime 1x ./internal/gc/

# Multi-tenant server smoke: the gcserve race suite (tenant isolation,
# slicing determinism, shared-decoder transparency), then a short
# mixed run/resume load drive that writes the BENCH_6 measurement
# (req/s, per-tenant pause quantiles) for CI to upload.
serve-smoke:
	mkdir -p artifacts
	$(GO) test -race -count=1 ./internal/gcserve/
	$(GO) run ./cmd/gcserve -load -duration 2s -bench artifacts/BENCH_6.json

# Short gc-map verifier smoke: the checked-in progen corpus (first few
# seeds) plus a strided seeded-fault sweep. CI runs this on every push.
verify-smoke:
	$(GO) test -short -count=1 -run 'TestProgenCorpus|TestSeededFaults' ./internal/gcverify/

# Compile-time GC smoke: the heap-liveness benchmark (compiles the
# churn workload with the pass off and on, fails if outputs diverge or
# the baseline never collects, writes the BENCH_7 measurement), then a
# short differential sweep — every cell of the matrix already carries
# the heaplive on/off dimension, so the sweep cross-checks the
# optimized compiles against the unoptimized reference.
heaplive-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/paperbench -heaplive -bench7 artifacts/BENCH_7.json
	$(GO) run ./cmd/difffuzz -n 40 -seed 7 -out artifacts/difffuzz-heaplive

# Threaded-dispatch smoke: the generated-program sweep plus the
# difftest slice (whose matrix carries the switch/threaded dimension in
# every determinism group), then the dispatch benchmark — which fails
# if any kernel's output, collection count, or final heap diverges
# between dispatchers — writing the BENCH_8 measurement for CI.
dispatch-smoke:
	mkdir -p artifacts
	$(GO) test -count=1 -run 'TestDispatch|TestDifferentialSeedsClean' ./internal/vmachine/ ./internal/difftest/
	$(GO) run ./cmd/paperbench -dispatch -bench8 artifacts/BENCH_8.json

# Mostly-concurrent marking smoke: the shared MarkCycle unit tests (SATB
# barrier, black allocation, bounded and wide fan-out mark steps, hooks
# disarmed at the final pause), the hostile white-object-hiding mutator,
# the black-allocation regression, the width-8 determinism check, the
# tree-shaped STW equivalence pins, and the four-thread soaks (per-cycle
# heap.Check + strict gcverify) for both collectors, all under -race —
# then the pause-SLO benchmark, which fails if the two modes diverge on
# output, writing the BENCH_9 measurement for CI.
concurrent-smoke:
	mkdir -p artifacts
	$(GO) test -race -count=1 -run 'TestConcurrent|TestSATB|TestBlackAlloc|TestMarkStep|TestMarkCycle' ./internal/gc/ ./internal/gengc/
	$(GO) run ./cmd/paperbench -concurrent -bench9 artifacts/BENCH_9.json

# Server-shaped workload smoke: the generational session load drive
# under -race (≥64 tenants, outputs checked bit-exact against the
# serial reference, per-tenant pause quantiles populated), the
# paperbench exit-code contract tests, then the full-size BENCH_10
# workload suite — server sessions, deep-recursion stack stress,
# adversarial derived-pointer kernels, and the 2^20-word ballast
# sweep, every one divergence-fatal (~3 min; the in-suite
# TestRunBench10Quick covers the smoke-sized path). CI uploads the
# resulting BENCH_10.json.
workload-smoke:
	mkdir -p artifacts
	$(GO) test -race -count=1 -run 'TestLoadGenerationalSessions' ./internal/gcserve/
	$(GO) test -count=1 -run 'TestRunExitCodes' ./cmd/paperbench/
	$(GO) run ./cmd/paperbench -workloads -bench10 artifacts/BENCH_10.json

# Fuzz smoke: a short budgeted run of both native fuzz targets — the
# table decoder against damaged bytes, and the differential matrix
# against generated programs. New inputs found land in the build
# cache's fuzz corpus ($(shell $(GO) env GOCACHE)/fuzz), which CI
# caches across runs so coverage accumulates.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzProgram$$' -fuzztime $(FUZZTIME) ./internal/difftest/

# Differential sweep: the full collector × scheme × cache × workers
# matrix over 200 generated programs; writes reduced reproducers on
# failure. Slower than fuzz-smoke — a pre-release gate, not per-push.
diff-smoke:
	$(GO) run ./cmd/difffuzz -n 200 -seed 1 -out artifacts/difffuzz-findings

# Coverage with a checked-in floor: the build fails if total statement
# coverage drops below ci/coverage-floor.txt. Raise the floor when new
# tests lift the total; never lower it to make a regression pass.
cover:
	mkdir -p artifacts
	$(GO) test -count=1 -coverprofile=artifacts/cover.out ./...
	@total=$$($(GO) tool cover -func=artifacts/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat ci/coverage-floor.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $$floor% floor"; exit 1; }
