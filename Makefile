GO ?= go

.PHONY: ci fmt vet build test race flake bench-smoke bench-check bench-parallel profile metrics-smoke load-smoke chaos-smoke stream-smoke run fuzz-seeds golden test-wrappers

# ci is the full local gate: formatting, static checks (go vet), build,
# tests under the race detector, a repeat run of the sharded-evaluation
# tests, the wrapper conformance suite, the persistence-format guards (fuzz seed corpus + golden snapshots), a
# one-iteration -benchmem pass over every benchmark so the bench
# harness can't silently rot, the nested benchmark module's own vet and
# tests, the sharded-evaluation speedup gate, the metrics exposition
# smoke check, a short admission-control load smoke, the
# fault-tolerance chaos drill, and the streaming bounded-memory gate.
ci: fmt vet build race flake test-wrappers fuzz-seeds golden bench-smoke bench-check bench-parallel metrics-smoke load-smoke chaos-smoke stream-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is also the guard of iql.Value's unsafe accessors: -race turns
# on the compiler's checkptr instrumentation, which faults on an
# unsafe.String or unsafe.Slice whose pointer and length do not lie
# within one allocation — what a Value built or read wrongly would be.
race:
	$(GO) test -race ./...

# flake repeats the sharded-evaluation tests (step and Extent-call
# accounting, serial equivalence, cancellation) thirty times: they
# depend on which workers happen to pick up shards, so one green run
# proves little. No timing assertion runs here — bench-parallel keeps
# its env guard. So do the per-session persistence tests (a save parked
# in one session while another session, a restore, RestoreSessions,
# Drain or OpenStore runs beside it), under the race detector: which
# goroutine reaches a lock first is the scheduler's choice.
flake:
	$(GO) test -count=30 -run 'TestParallel' ./internal/iql .
	$(GO) test -race -count=30 -run 'TestPersist' ./internal/server

# bench-smoke is the ci benchmark gate: one iteration of everything,
# with allocation accounting compiled in.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# bench-check vets and tests the benchmark (bash bench/run.sh, see
# bench/README.md). bench/ is a module of its own that the root build
# does not compile, so this is what catches a change under internal/
# that breaks it.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# profile is where a performance issue starts: BenchmarkServerTable1
# (Table 1 Q1-Q7 through the daemon's handler, result cache bypassed —
# the in-process twin of the benchmark's table1_warm workload) and
# BenchmarkServerScan (the twin of scan_large: a paged SQL scan, a paged
# REST scan, a cold join) and BenchmarkServerPayg (the twin of
# payg_mixed: restore, five steps with autosave, the queries between —
# where Server.persist and restoreSession show — as one session and as
# two side by side), each for 3 s a sub-benchmark under the CPU, the
# allocation and the mutex profiler, then the cumulative top of the
# first two and, for BenchmarkServerPayg, the top of where goroutines
# waited for a lock: what one session's persistence costs another shows
# there before it shows anywhere else. Test binary and profiles go to
# the git-ignored .bench_build/.
profile:
	mkdir -p .bench_build
	for b in ServerTable1 ServerScan ServerPayg; do \
		$(GO) test -run '^$$' -bench "Benchmark$$b" -benchtime 3s \
			-o .bench_build/automed.test \
			-cpuprofile .bench_build/cpu.$$b.prof -memprofile .bench_build/mem.$$b.prof \
			-mutexprofile .bench_build/mutex.$$b.prof . && \
		$(GO) tool pprof -top -cum -nodecount 30 .bench_build/automed.test .bench_build/cpu.$$b.prof && \
		$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 30 .bench_build/automed.test .bench_build/mem.$$b.prof || exit 1; \
	done
	$(GO) tool pprof -top -cum -nodecount 20 .bench_build/automed.test .bench_build/mutex.ServerPayg.prof

# bench-parallel is the ci sharded-evaluation gate: on a machine with
# at least two cores, the sharded Table 1 suite must beat the serial
# path (the test skips itself on one core, where sharding degrades to
# the serial loop by design). It is the only wall-clock assertion in
# the test suite and runs only with AUTOMED_TIMING_GATES=1, so plain
# `go test ./...` stays deterministic.
bench-parallel:
	AUTOMED_TIMING_GATES=1 $(GO) test -run 'TestParallelSpeedupSmoke' -count=1 -v .

# metrics-smoke boots the server in-process on a random port, drives a
# federation and queries over HTTP, and fails on malformed Prometheus
# exposition or a JSON metrics snapshot missing expected fields.
metrics-smoke:
	$(GO) run ./cmd/metricssmoke

# load-smoke is the ci admission-control gate: a short self-served load
# run (closed-loop workers over a small in-flight limit, zipf session
# popularity, mid-flight intersect/refine) that fails on request
# errors, malformed exposition, or a dead admission controller.
load-smoke:
	$(GO) run ./cmd/loadgen -smoke -sessions 4 -workers 8 -duration 2s \
		-max-inflight 4 -max-queue 8 -mutate-every 10

# chaos-smoke is the ci fault-tolerance gate: an in-process two-source
# federation where one source goes hard-down after its extent cache is
# warm. It fails unless queries keep answering from the stale extent
# with a degraded warning naming the source, strict (require-fresh)
# requests are refused with 503, /healthz reports the open circuit
# breaker, and the breaker metric families appear in the exposition.
chaos-smoke:
	$(GO) run ./cmd/chaossmoke

# stream-smoke is the ci bounded-memory gate for the streaming extent
# pipeline: a 1.2M-row sqlmem-backed SQL source queried twice through
# the in-process daemon must leave the post-GC live heap essentially
# flat (a materialised extent would cost hundreds of megabytes).
stream-smoke:
	$(GO) run ./cmd/streamsmoke

# fuzz-seeds runs every committed fuzz seed (malformed repo snapshots,
# malformed REST payloads, the answer encoder's edge scalars, the floats
# where a layout of the shortest digits changes shape, session files
# whole, truncated and with trailing bytes) as plain tests — the CI-safe
# equivalent of a -fuzztime run.
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./internal/repo ./internal/wrapper ./internal/server ./internal/iql

# golden checks the committed snapshots (full session, and the sql/rest
# wrapper kinds) still match a fresh export byte for byte and still
# load (format stability).
golden:
	$(GO) test -run 'TestGoldenSnapshot' ./internal/core

# test-wrappers runs the wrapper conformance suite — every backend
# (CSV, Static, XML, SQL via the in-process sqlmem driver, REST via
# httptest) against the full Wrapper contract — under the race
# detector. No network or external dependencies.
test-wrappers:
	$(GO) test -race ./internal/wrapper/... ./internal/sqlmem

# run starts the dataspace daemon on :8080.
run:
	$(GO) run ./cmd/automedd -addr :8080
