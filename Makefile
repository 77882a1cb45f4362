GO ?= go

.PHONY: ci fmt vet build test race flake bench-smoke bench-check profile run fuzz-seeds golden test-wrappers loc

# ci is the full local gate, every step of it deterministic: formatting,
# static checks (go vet), build, every test under the race detector, a
# repeat run of the tests whose interleaving the scheduler chooses, a
# one-iteration -benchmem pass over every benchmark so the bench
# harness can't silently rot, and the nested benchmark module's own vet
# and tests. `go test` is the only place a property of the system is
# checked — no program outside it is a gate — and nothing here asserts a
# wall-clock time: what a change costs or gains is measured by
# `bash bench/run.sh` (bench/README.md).
ci: fmt vet build race flake bench-smoke bench-check

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

# flake repeats thirty times the tests whose interleaving the scheduler
# chooses, so one green run proves little. The oracle, which runs every
# mode against the reference evaluator, is one: before each evaluation
# the prefetch pool reads the query's source extents several at once —
# from a SQL source and an httptest REST server — and the order the
# reads land in is the scheduler's. So are the per-session persistence
# tests (a checkpoint
# parked in one session while another session, a restore,
# RestoreSessions, Drain or OpenStore runs beside it; and
# TestPersistStepsJournalInOrder, steps from eight clients on one
# session journaled in the order the integrator took them), under the
# race detector: which goroutine reaches a lock first is the
# scheduler's choice. So does one
# cached plan evaluated by eight goroutines in two sessions, whose
# comprehensions' analysis and parked evaluation state they share, and
# whose recorded join run each session's four goroutines replay at once.
# So do the result cache's two: eight clients asking Table 1 at the
# latest version while the plan's steps land, each answer the one a
# cacheless session gives at the version it names, and a step taken on
# the integrator directly, after which the latest query is evaluated.
# So does the daemon's one set of caches under two sessions over the
# same sources: one takes the plan's steps while four clients ask the
# other, already past them, for Table 1, each answer the one it gave
# before; the first then answers as the second, fetching nothing.
# The session oracle, TestSessionOracle, runs three times under the race
# detector (about 1 min on a 2-core box): its reader queries whichever
# session the name stands for while restores hand sources and one
# decoded checkpoint to the next, and while /invalidate lands on a fetch
# in flight. The address table's concurrent fill runs thirty times under
# the race detector: several goroutines ask one fresh table for every
# virtual object at once, each in its own order — half of them a table
# taken before a step, half one after it, over a restore's derivations
# that no table has digested yet — and which of them computes a
# derivation's digest or a fingerprint and which finds it computed is
# the scheduler's choice. So is which of several sessions restoring one
# decoded checkpoint at once, and taking a step and asking queries in
# each, reads the image's repository, definitions and federated objects
# and the steps' shared Range Void Any first: thirty times under the
# race detector, none of them may write what they share. So is which
# version four clients read while the plan's steps land — /schemas
# listing every version's objects, and Table 1 asked with explain at
# each, resolved in the version outside the integrator's lock: the
# versions share their structure, and thirty times under the race
# detector, publishing one may write nothing an older one reads. So is
# which version is read while a backfill publishes one — every version's
# objects read on the integrator, and /schemas listed by four clients
# while a probe backfills — thirty times under the race detector: the
# backfill may write nothing a published version holds.
flake:
	$(GO) test -count=30 -run 'TestOracle' ./internal/query
	$(GO) test -race -count=30 -run 'TestAddressTableConcurrentFill' ./internal/query
	$(GO) test -race -count=30 -run 'TestImportsStepAtOnce|TestVersionsReadWhileBackfillLands' ./internal/core
	$(GO) test -race -count=30 -run 'TestPersist|TestSharedPlanAcrossSessions|TestLatestAnswersWhileStepsLand|TestStepThroughTheIntegratorRetiresAnswers|TestSessionsShareAddressedCaches|TestOldVersionsReadWhileStepsLand|TestSchemasReadWhileProbeBackfills' ./internal/server
	$(GO) test -race -count=3 -run 'TestSessionOracle' ./internal/server

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
# BenchmarkServerScan (the twin of scan_large: a count taken at the SQL
# source, a paged REST scan, a cold join) and BenchmarkServerPayg (the twin of
# payg_mixed: restore, five steps with autosave, the queries between —
# where Server.persist and restoreSession show, and the hops a step and
# a restore pay for what they change through: the address table's fill
# (addresses.fingerprint and addresses.sums, under Processor.Address
# and session.Extent, where each derivation's own digest, lazySum.of,
# is computed the first time a query reaches its object — DefineAll
# computes none), readAfter under readState, and
# Integrator.federatedObjects under rebuildGlobal, which after a restore
# adds the objects core.Import took from the checkpoint's image — as
# one session and as two side by side), each for 3 s a sub-benchmark
# under the CPU, the allocation and the mutex profiler, then the
# cumulative CPU top and the
# cumulative allocation top of each of the three (the latter without the
# frames of the harness, which are all of one size and would fill the
# top before an allocator is reached), then the flat CPU top of
# BenchmarkServerTable1 — the warm floor is in leaf functions (binding a
# pattern, laying out digits, comparing keys) that the cumulative top
# shows only behind their callers — and, for BenchmarkServerPayg, the
# top of where goroutines waited for a lock:
# what one session's persistence costs another shows there before it
# shows anywhere else. Test binary and profiles go to the git-ignored
# .bench_build/.
profile:
	mkdir -p .bench_build
	for b in ServerTable1 ServerScan ServerPayg; do \
		$(GO) test -run '^$$' -bench "Benchmark$$b" -benchtime 3s \
			-o .bench_build/automed.test \
			-cpuprofile .bench_build/cpu.$$b.prof -memprofile .bench_build/mem.$$b.prof \
			-mutexprofile .bench_build/mutex.$$b.prof . && \
		$(GO) tool pprof -top -cum -nodecount 30 .bench_build/automed.test .bench_build/cpu.$$b.prof && \
		$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 30 -hide 'testing\.|net/http\.|automed\.(Benchmark|bench|postStatus|servePost)' .bench_build/automed.test .bench_build/mem.$$b.prof || exit 1; \
	done
	$(GO) tool pprof -top -nodecount 30 .bench_build/automed.test .bench_build/cpu.ServerTable1.prof
	$(GO) tool pprof -top -cum -nodecount 20 .bench_build/automed.test .bench_build/mutex.ServerPayg.prof

# fuzz-seeds runs every committed fuzz seed (malformed repo snapshots,
# repository documents with trailing bytes, malformed REST payloads, the answer encoder's edge scalars, the floats
# where a layout of the shortest digits changes shape, query texts —
# Table 1's, the reference evaluator's corpus, the lexer's edge tokens —
# evaluated into the encoder and to a value, printed and parsed back, and
# through every mode of the query processor against the reference
# evaluator, session files whole, truncated, with trailing bytes and with
# step records whole, torn and unreplayable, the session oracle's
# histories — FuzzSessionOracle's corpus: one that restarts, federates
# past a source that is down, backfills it and restores, one that
# queries — the statements the in-process SQL driver must take or
# refuse) as plain
# tests — the CI-safe equivalent of a -fuzztime run. A subset of `race`,
# which ci runs: this target is for running the one guard by hand.
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./internal/repo ./internal/wrapper ./internal/server ./internal/iql ./internal/query ./internal/sqlmem

# golden checks the committed snapshots (full session, and the sql/rest
# wrapper kinds) still match a fresh export byte for byte and still
# load (format stability). A subset of `race`, for running by hand.
golden:
	$(GO) test -run 'TestGoldenSnapshot' ./internal/core

# test-wrappers runs the wrapper conformance suite — every backend
# (CSV, Static, XML, SQL via the in-process sqlmem driver, REST via
# httptest) against the full Wrapper contract — under the race
# detector. No network or external dependencies. A subset of `race`,
# for running by hand.
test-wrappers:
	$(GO) test -race ./internal/wrapper/... ./internal/sqlmem

# loc prints the three line counts the ROADMAP keeps and a simplicity PR
# states its reduction in: non-test Go outside bench/, Go tests outside
# bench/, and bench/'s Go; and the daemon's flag count, the flags
# `automedd -h` lists.
loc:
	@printf '%7d non-test Go lines outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)
	@printf '%7d test lines outside bench/\n' $$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)
	@printf '%7d bench/ lines\n' $$(find bench -name '*.go' -exec cat {} + | wc -l)
	@printf '%7d daemon flags (automedd -h)\n' $$($(GO) run ./cmd/automedd -h 2>&1 | grep -c '^  -')

# run starts the dataspace daemon on :8080.
run:
	$(GO) run ./cmd/automedd -addr :8080
