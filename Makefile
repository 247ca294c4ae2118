GO ?= go

# Performance is measured by one ruler, the ledger (`make ledger`,
# bench/README.md, BENCHMARK.json): six workloads, gated end-to-end
# metrics, a per-layer table. The only other benchmarks in the tree are
# package-local micro-benchmarks beside the code they time
# (internal/beagle, forest, gsbl, boinc, metasched); `make check`
# executes each body once so none can rot.

# Machine-readable analyzer report: every finding, suppressed ones
# included and marked, for dashboards and suppression audits.
LINT_ARTIFACT = latticelint.json

.PHONY: all build vet lint lint-fixtures tracked-binaries fuzz test race smoke faults crash dag scale overload check bench-rot ledger ledger-trace

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# latticelint is the project's own analyzer suite (cmd/latticelint):
# five per-package analyzers (determinism, errdrop, floatcmp,
# syncmisuse, deadassign) plus four whole-program analyzers
# (lockorder, goroleak, taintdet, deadexport — the last over all of
# internal/...). One run writes the JSON artifact and exits non-zero on
# any unsuppressed finding; on failure, a second text-mode run prints
# the findings for humans.
lint:
	$(GO) run ./cmd/latticelint -json ./... > $(LINT_ARTIFACT) || { $(GO) run ./cmd/latticelint ./...; exit 1; }

# lint-fixtures runs the analyzer self-tests under the race detector:
# every analyzer against its bad/good fixture pair, the combined
# injector and WAL fixtures, the suppression-marking contract, and the
# loader edge cases (tests-only package, build-tag exclusion, syntax
# error).
lint-fixtures:
	$(GO) test -race -run 'TestAnalyzerFixtures|TestFaultsInjectorFixture|TestWALFixture|TestGoodFixturesClean|TestSuppressionMarked|TestLoader' ./internal/lint/

# tracked-binaries fails when git tracks a build output: a file that
# starts with the ELF, Mach-O or PE magic, or any file over 1 MB (the
# largest source file in the tree is under 100 kB). Binaries belong in
# .gitignore; `go build ./cmd/<name>` drops one in the repo root.
tracked-binaries:
	@git ls-files -z | xargs -0 sh -c 'rc=0; for f; do \
		[ -f "$$f" ] || continue; \
		if [ "$$(wc -c < "$$f")" -gt 1048576 ]; then echo "tracked file over 1 MB: $$f"; rc=1; fi; \
		case "$$(head -c 4 "$$f" | od -An -tx1 | tr -d " \n")" in \
		7f454c46|feedface|feedfacf|cefaedfe|cffaedfe|cafebabe|4d5a*) echo "tracked executable: $$f"; rc=1;; \
		esac; \
	done; exit $$rc' sh

# fuzz gives wal.Load ten seconds of arbitrary bytes in each of a
# durable directory's three files (log, input segment, snapshot): it
# must return an error or a state with a dense tail and an ordered
# input history — never panic, never size an allocation from a length
# field. A failing input lands in internal/wal/testdata/fuzz/ and
# then fails plain `go test` until fixed.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s ./internal/wal/

test:
	$(GO) test ./...

# race is the whole suite under the race detector. It is where the
# five scenario shape tests below run in `make check`; the timeout is
# the one the 10^5-user scale test needs under -race.
race:
	$(GO) test -race -timeout 30m ./...

# smoke boots the full grid binary on a loopback port, runs a fixed
# workload, scrapes /metrics and /trace over real HTTP, and fails if
# the exposition is empty or unparseable or the trace is not a closed
# root span plus one span per job.
smoke:
	$(GO) run ./cmd/lattice -smoke

# bench-rot executes every benchmark body in the tree exactly once — a
# CI gate so benchmark code cannot rot. (The ledger's own workloads run
# at 1/100 size with every check on inside `go test ./bench`, which
# `test` and `race` already cover.)
bench-rot:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# ledger runs the repository's benchmark (bench/README.md): six
# workloads, the gated end-to-end metrics, every correctness check, and
# a comparison against bench/baseline.json. ledger-trace adds the
# traced pass: layer probes, the per-layer table, bench/out/trace.json.
ledger:
	$(GO) run ./bench -seed 1

ledger-trace:
	$(GO) run ./bench -seed 1 -trace

# The five scenario targets below are focused entry points for one
# scenario under the race detector. `make check` does not depend on
# them: `race` already runs every one of these tests under -race.

# faults runs the fault-injection scenario under the race detector:
# conservation (every job exactly one terminal state) and same-seed
# determinism under the default hostile schedule.
faults:
	$(GO) test -race -run TestFaultScenarioShape ./internal/experiments/

# crash runs the crash-recovery scenario under the race detector: the
# coordinator killed three times mid-batch (once over a torn log
# tail), recovered from the WAL each time, with conservation intact
# and the final journal digest bit-identical to an uninterrupted run.
crash:
	$(GO) test -race -run TestCrashScenarioShape ./internal/experiments/

# dag runs both workflow-engine scenarios under the race detector: the
# four-stage standard analysis as one typed DAG (readiness ordering,
# service-grid placement of short stages, conservation, same-seed
# determinism) and the same graph killed three times mid-workflow and
# recovered from the WAL with a bit-identical final digest.
dag:
	$(GO) test -race -run 'TestDagScenarioShape|TestDagCrashScenarioShape' ./internal/experiments/

# scale runs the coordinator-sharding scenario under the race
# detector: 10^5 simulated users through 1/2/4/8 shards with
# conservation and bit-identical same-seed twin digests at every
# shard count, strictly improving makespan 1→2→4, and a shard kill
# recovered from that shard's WAL alone, digest-equal to an
# uninterrupted twin.
scale:
	$(GO) test -race -timeout 30m -run TestScaleOutShape ./internal/experiments/

# overload runs the overload-protection scenario under the race
# detector: a 10× demand spike through protected 1- and 4-shard
# clusters (conservation including sheds, bit-identical same-seed twin
# digests, goodput ≥ 90% of the pre-spike rate, breakers tripping on
# the mid-spike brownout) against an unprotected baseline whose p99
# front-door wait blows up by ≥ 10×.
overload:
	$(GO) test -race -timeout 10m -run TestOverloadScenarioShape ./internal/experiments/

# check is the full correctness gate: compile, go vet, the project
# analyzers (failing on any unsuppressed finding), the analyzer
# fixture self-tests under -race, no build output tracked by git, ten
# seconds of fuzzing wal.Load, the
# test suite under the race detector (which includes the forest/BOINC
# concurrency stress tests and — once each — the fault-injection,
# crash-recovery, workflow, coordinator sharding and
# overload-protection scenarios), the grid boot smoke that scrapes
# /metrics over real HTTP, and one execution of every benchmark body so
# benchmark code cannot rot.
check: build vet lint lint-fixtures tracked-binaries fuzz race smoke bench-rot
