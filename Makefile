GO ?= go

# Performance is measured by one ruler, the ledger (`make ledger`,
# bench/README.md, BENCHMARK.json): six workloads, gated end-to-end
# metrics, a per-layer table. The only other benchmarks in the tree are
# package-local micro-benchmarks beside the code they time
# (internal/beagle, forest, gsbl, boinc, metasched, obs); `make check`
# executes each body once so none can rot.

# Machine-readable analyzer report: every finding, suppressed ones
# included and marked, for dashboards and suppression audits.
LINT_ARTIFACT = latticelint.json

.PHONY: all build vet vet-narrow lint lint-fixtures tracked-binaries fuzz test race smoke examples faults crash dag scale overload engine check bench-rot ledger ledger-trace pins

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-narrow holds the tree to a 32-bit target, where int is 32 bits: every
# package and test file must vet there, and the WAL's tests run there,
# since its decoder must refuse an int field a 32-bit int cannot hold
# and read a frame length past 2^31 as a torn tail, not a negative hop.
# The obs tests run there too: a journal entry lays out differently when
# float64 aligns to 4, and its layout pin and the reference model must
# hold on both. So do the metasched tests: a GridJob lays out
# differently there too, its int32 counters and its embedded lrm.Job
# included, and its layout pin and the dispatch path must hold on both.
# The metasched run includes FuzzDoorExpands' seeds, and the workload
# door and cost tests run there too: the door's overflow refusals (the
# edge count 2n−3, the memory requirement, SearchReps × Replicates)
# are judged against the width of int, so they must hold at 32 bits.
# The gsbl tests run there too: a Batch lays out differently there, and
# its size-class pin, the zip writer's 32-bit limits and the outbox fold
# must hold on both. So do the faults tests: the wrapper's in-flight
# entries (a job pointer and an owner interface) lay out differently
# there, and its allocation pin must hold on both. The random stream
# and the split sort are checked there against their math/rand and
# slices oracles: the point of owning the stream (sim/source.go) is that
# it is portable, the same values on every target, before the
# distributions are ported over it too. The engine's three bit-for-bit
# oracles run there as well: the tiled exp(Qt) kernel against its triple
# loop, the early-stopping rescale against its full scan and the
# simulator's once-per-row sums against Choice. 386 has half the
# float registers for the kernel's four accumulators, so its code
# spills and schedules differently; the outputs must still be the
# oracles' bit for bit, or the pins would hold on one target only.
vet-narrow:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/wal
	GOARCH=386 $(GO) test ./internal/obs
	GOARCH=386 $(GO) test ./internal/metasched
	GOARCH=386 $(GO) test ./internal/gsbl
	GOARCH=386 $(GO) test ./internal/faults
	GOARCH=386 $(GO) test -run 'Validate|ExpectedWork|Memory' ./internal/workload
	GOARCH=386 $(GO) test -run 'Source|SortXY' ./internal/sim ./internal/forest
	GOARCH=386 $(GO) test -run 'TransitionProbs|Rescale|Simulate|Choice' ./internal/phylo ./internal/beagle ./internal/sim

# latticelint is the project's own analyzer suite (cmd/latticelint):
# four per-package analyzers (determinism, errdrop, floatcmp,
# deadassign) plus four whole-program analyzers (lockorder, goroleak,
# taintdet, deadexport — the last over the whole module, root facade
# included), over non-test files. Copied locks are vet's copylocks.
# One run writes the JSON artifact and exits non-zero on any
# unsuppressed finding; on failure, a second text-mode run prints the
# findings for humans.
lint:
	$(GO) run ./cmd/latticelint -json ./... > $(LINT_ARTIFACT) || { $(GO) run ./cmd/latticelint ./...; exit 1; }

# lint-fixtures runs the analyzer self-tests under the race detector:
# every analyzer against its bad/good fixture pair, the combined
# injector and WAL fixtures, the suppression-marking contract, the
# loader edge cases (no Go files, build-tag exclusion, syntax error)
# and latticelint's exit statuses.
lint-fixtures:
	$(GO) test -race -run 'TestAnalyzerFixtures|TestFaultsInjectorFixture|TestWALFixture|TestGoodFixturesClean|TestSuppressionMarked|TestLoader|TestExitStatus' ./internal/lint/ ./cmd/latticelint/

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

# fuzz gives every Fuzz* target in the tree ten seconds of arbitrary
# input, one target at a time: `go test -list` finds them, so a new
# target is a new file, not an edit here. A failing input lands in the
# package's testdata/fuzz/ and then fails plain `go test` until fixed.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | \
	awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s "$$pkg" || exit 1; \
	done

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

# examples runs the example programs that finish in seconds, so they
# cannot rot between builds: portalrun drives the portal's form path end
# to end (the description, a FASTA upload, the batch, the zip),
# quickstart and runtimemodel the facade and the runtime model. Their
# output goes to /dev/null; a failure exits non-zero with its error.
# treesearch (minutes of tree search) is only compiled, by build.
examples:
	$(GO) run ./examples/portalrun > /dev/null
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/runtimemodel > /dev/null

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

# pins prints every experiment table (gridbench -run all) at seeds 1 and
# 11. Each table is a function of its seed, so a refactor that claims to
# change no behaviour proves it with `make -s pins > <commit>.txt` on
# both commits and `cmp`. It takes minutes and compares two commits, so
# it stays out of `check`, like ledger.
pins:
	@for seed in 1 11; do $(GO) run ./cmd/gridbench -run all -seed $$seed || exit 1; done

# The five scenario targets below are focused entry points for one
# scenario under the race detector. `make check` does not depend on
# them: `race` already runs every one of these tests under -race.

# faults runs the fault-injection scenario under the race detector:
# conservation (every job exactly one terminal state) and same-seed
# determinism under the default hostile schedule. It also runs the
# injector's own unit tests under -race: every kind's journal pin, the
# schedule rules and the FuzzInjector seeds. The wrapper stands as the
# owner of every job it forwards and trusts each report to name its
# job, once, and never after a Cancel, so the report-contract test that
# holds the PBS, SGE and Condor clusters and the BOINC server to that
# (one table over all four, in package lrm) runs here too. So does its
# second run through the wrapper itself, with lost- and slow-result
# windows open: the meta-scheduler trusts the wrapper to keep the same
# contract, a completion it holds back included.
faults:
	$(GO) test -race -run TestFaultScenarioShape ./internal/experiments/
	$(GO) test -race ./internal/faults/
	$(GO) test -race -run '^TestReportContract(ThroughFaults)?$$' ./internal/lrm/

# crash runs the crash-recovery tests under the race detector: the
# scenario (the coordinator killed three times mid-batch, once over a
# torn log tail, recovered from the WAL each time, with conservation
# intact and the final journal digest bit-identical to an uninterrupted
# run), the 200 generated kill/recover tuples of TestRecoverSweep, and
# an input taken right after a restart that resumed partway through an
# instant, replayed there by the next restart.
crash:
	$(GO) test -race -run 'TestCrashScenarioShape|TestRecoverSweep|TestInputAfterMidInstantResume' ./internal/experiments/ ./internal/core/

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
# front-door wait blows up by ≥ 10×. It also runs the admission
# controller's own unit tests under -race: the pointer-heap reference
# model over 300 generated programs, the FuzzAdmit seeds and the
# zero-allocation pin of a warm cycle.
overload:
	$(GO) test -race -timeout 10m -run TestOverloadScenarioShape ./internal/experiments/
	$(GO) test -race ./internal/admit/

# engine runs the likelihood engine and everything that reads its rules
# under the race detector: phylo (the one model table, the one branch
# optimizer, exp(Qt)), beagle (bit-identity to the reference engine, the
# kernel oracle, zero allocations per warm evaluation), forest (every
# tree equal to the reference builder's at 1, 2 and 8 workers),
# estimate (the SubstModel covariate), workload (the door's model check)
# and garli, then the three experiments the engine and the forest shape:
# the engine-performance table, Figure 2's importance ranking and the
# ablations, and the two tests that drive Retrain on the grid (E13's
# drifting stream and the reference-cluster fork), where retrains
# snapshot the matrix while it grows. Like the scenario targets above
# it is a focused entry point; `check` does not depend on it, because
# `race` already runs every one of these tests under -race.
engine:
	$(GO) test -race ./internal/phylo ./internal/beagle ./internal/forest ./internal/estimate ./internal/workload ./cmd/garli
	$(GO) test -race -run 'TestEnginePerfShape|TestFig2Shape|TestAblations|TestContinuousRetrainingShape' ./internal/experiments/
	$(GO) test -race -run 'TestContinuousRetrainingFork' ./internal/core/

# check is the full correctness gate: compile, go vet (also for the
# 32-bit target, with the WAL's tests run there), the project
# analyzers (failing on any unsuppressed finding), the analyzer
# fixture self-tests under -race, no build output tracked by git, ten
# seconds of each fuzz target, the
# test suite under the race detector (which includes the forest/BOINC
# concurrency stress tests and — once each — the fault-injection,
# crash-recovery, workflow, coordinator sharding and
# overload-protection scenarios), the grid boot smoke that scrapes
# /metrics over real HTTP, the quick example programs, and one
# execution of every benchmark body so benchmark code cannot rot.
check: build vet vet-narrow lint lint-fixtures tracked-binaries fuzz race smoke examples bench-rot
