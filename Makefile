# gputlb — build and test entry points.
#
#   make            vet + build + test (the tier-1 gate)
#   make ci         the CI gate, and the only list of its steps (the
#                   workflow runs exactly this target): gofmt, vet, build,
#                   race-detector suite (allocation guards included), fuzz
#                   seed corpora, docs lint, perfbench module checks, and
#                   the multi, controller, fabric, mechanism and scale-1.0
#                   smokes. No step gates a wall clock: speed is measured by
#                   perfbench (perfbench/README.md), parent against change
#                   on one machine
#   make test-race  full suite under the race detector
#   make bench      regenerate every figure at experiment scale
#   make report     print the whole study (Tables III and II, Figures 2-6
#                   and 10-12, the huge-page, SM balance and warp-reuse
#                   studies) at experiment scale as one document
#   make multi-smoke run a small multi-tenant co-run grid end to end — the
#                   quick check that ASID plumbing, tenant partitioning and
#                   the interference reporting still hold together
#   make controller-smoke run the tenant-churn grid (controller included)
#                   end to end on the serial and the sharded engine under
#                   the race detector
#   make mech-smoke run the translation-mechanism study (sub-entry sharing,
#                   dead-entry prediction, contiguity-aware large-reach,
#                   PACT'20 compression) end to end on the serial and the
#                   sharded + sliced engine under the race detector
#   make scale1-smoke run all 40 Fig 10/11 cells at experiment scale on the
#                   serial engine and on the sharded engine at 1, 2, 4 and
#                   8 address slices; any non-zero exit fails
#   make fabric-smoke run the drills that cross the workers' delivery
#                   loop under the race detector: worker kill, flaky
#                   result delivery, single-daemon kill and resume, the
#                   in-process group commit, and concurrent jobs (across
#                   workers, drained together, one failing its journal)
#   make fuzz       a short fuzz run: trace decoder, line stream, machine
#                   configuration
#   make golden     refresh the golden snapshots (serial and sliced stats,
#                   Figure 12, the ablation and SM balance tables)
#                   after an intentional timing-model change (inspect the
#                   diff before committing)
#   make docs-lint  fail on undocumented exported identifiers, internal
#                   packages missing a doc.go package comment, HTTP routes
#                   or gputlbd flags missing from OPERATIONS.md, README
#                   gputlbd flag rows naming no real flag, and mechanisms
#                   missing from README's -mech row, a README grid
#                   config list that differs from experiments.ConfigNames(),
#                   README naming a jobs.CellSpec field that does not
#                   exist, and a documented gputlbsim command line whose
#                   -policy names no config
#   make fmt-check  fail if gofmt would reformat any Go file
#   make perfbench-check vet and test the perfbench module, which the root
#                   module's ./... does not reach

GO ?= go

.PHONY: all build vet test test-race bench report multi-smoke controller-smoke mech-smoke scale1-smoke fabric-smoke fuzz fuzz-seeds golden docs-lint fmt-check perfbench-check ci

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Both suite targets shuffle test order so inter-test state leaks surface
# in CI instead of in a refactor six months later.
test:
	$(GO) test -shuffle=on ./...

test-race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# report lists the whole study's -fig names in document order; the tables
# go to stdout (`make -s report > report.txt`), the raw material of
# EXPERIMENTS.md. The same evaluate command with -scale 0.2 takes seconds.
report:
	@$(GO) run ./cmd/evaluate -fig table3,table2,2,3,4,5,6,10,11,12,hugepage,balance,warp

# multi-smoke exercises the multi-tenant path end to end at a small scale:
# one benchmark pair across the full {TLB mode} x {SM assignment} grid,
# first on the serial engine, then on the sharded intra-cell engine with
# the address-sliced barrier (any -cell-parallel >= 2 selects it; it runs
# on one goroutine per cell), both under the race detector — the quick
# check that both engines run the full tenancy grid and that cells sharing
# the trace cache stay race-clean on the in-process sweep pool.
multi-smoke:
	$(GO) run -race ./cmd/evaluate -fig multi -bench bfs,atax -scale 0.1
	$(GO) run -race ./cmd/evaluate -fig multi -bench bfs,atax -scale 0.1 -cell-parallel 2 -l2-slices 4

# controller-smoke exercises the closed-loop partitioning controller under
# tenant churn end to end: every L2 TLB tenancy mode — the online controller
# included — with mid-run arrivals through the bounded admission queue, on
# the serial engine and on the sharded intra-cell engine with the
# address-sliced barrier, its cells on the in-process sweep pool under the
# race detector.
controller-smoke:
	$(GO) run -race ./cmd/evaluate -fig churn -bench bfs,atax -scale 0.1
	$(GO) run -race ./cmd/evaluate -fig churn -bench bfs,atax -scale 0.1 -cell-parallel 2 -l2-slices 4

# mech-smoke exercises the pluggable translation mechanisms end to end: every
# mechanism tlbmech.Known() lists (base, subentry, deadblock, largereach + the
# contig allocator, compressed) solo and on a shared-L2 co-run, through the
# evaluate CLI, on the serial engine and on the sharded intra-cell engine
# with the address-sliced barrier, its cells on the in-process sweep pool
# under the race detector.
mech-smoke:
	$(GO) run -race ./cmd/evaluate -fig mech -bench bfs,atax -scale 0.1
	$(GO) run -race ./cmd/evaluate -fig mech -bench bfs,atax -scale 0.1 -cell-parallel 2 -l2-slices 2

# scale1-smoke runs the 40-cell Fig 10/11 grid at experiment scale (1.0) —
# the scale no unit test reaches — on every engine setting: the serial
# engine, then the sharded engine with one, two, four and eight address
# slices. Any non-zero exit (a panic, a deadlock, an event popped behind its
# clock) fails it; the tables themselves are not compared.
scale1-smoke:
	$(GO) run ./cmd/evaluate -fig 11 -scale 1.0 > /dev/null
	$(GO) run ./cmd/evaluate -fig 11 -scale 1.0 -cell-parallel 2 -l2-slices 1 > /dev/null
	$(GO) run ./cmd/evaluate -fig 11 -scale 1.0 -cell-parallel 2 -l2-slices 2 > /dev/null
	$(GO) run ./cmd/evaluate -fig 11 -scale 1.0 -cell-parallel 2 -l2-slices 4 > /dev/null
	$(GO) run ./cmd/evaluate -fig 11 -scale 1.0 -cell-parallel 2 -l2-slices 8 > /dev/null

# fabric-smoke runs, under the race detector, the drills that exercise
# the workers' one delivery loop (group commit, then a POST to /results
# or the coordinator's ingest path): coordinator + two workers over real
# HTTP with one killed mid-job (dispatch failures, heartbeat expiry,
# re-dispatch of unacked cells); every second result ack lost (retried
# flushes, deduplicated replays); a single daemon drained mid-sweep and
# resumed on its journal; the in-process worker group-committing the
# cells that finish during a journal append; two jobs active at once, on
# two workers, drained together and resumed, and with one failing its
# journal writes while the other completes. Every result file must be
# byte-identical to an in-process run.
fabric-smoke:
	$(GO) test -race -count=1 -run '^(TestFabricSmoke|TestFabricFlakyResultDelivery|TestKillAndResumeByteIdentical|TestLocalWorkerGroupCommits|TestJobsRunConcurrentlyAcrossWorkers|TestDrainCheckpointsEveryActiveJob|TestJournalFailureFailsOnlyItsJob)$$' ./internal/fabric/

# fuzz mutates beyond the seed corpora for 10 s a target: the trace
# decoder, the line stream against the instructions it encodes, and machine
# configurations (rejected by Validate, or run without a panic).
fuzz:
	$(GO) test -fuzz FuzzReadKernel -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzLineStream -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzMachineConfig -fuzztime 10s ./internal/sim/

# fuzz-seeds replays only the checked-in seed corpora (no mutation budget),
# which are deterministic and fast enough for every CI run: the trace
# decoder's, the line stream's equivalence to coalescing the lanes, the
# event queue's differential test against a reference heap, gputlbd's two
# body-decoding handlers (POST /jobs, POST /results), job spec
# normalization with its cache-key stability (explicit defaults and
# objective spellings included), the job journal loader with its torn-append and
# resume properties, and the machine configurations that once crashed the
# simulator or ran it backwards.
fuzz-seeds:
	$(GO) test -run 'FuzzReadKernel|FuzzLineStream' ./internal/trace/
	$(GO) test -run FuzzQueueMatchesReference ./internal/engine/
	$(GO) test -run 'FuzzSubmitHandler|FuzzResultsHandler|FuzzNormalizeCellKey' ./internal/fabric/
	$(GO) test -run FuzzLoadJournal ./internal/jobs/
	$(GO) test -run FuzzMachineConfig ./internal/sim/

# golden refreshes every snapshot in one run: -run TestGoldenStats
# matches the serial pin (TestGoldenStats) and the sharded engine's pins
# at 1, 2, 4 and 8 address slices (TestGoldenStatsCellParallelSharded,
# TestGoldenStatsSliced); TestFig12Golden pins Figure 12 on both engines;
# TestAblationGolden pins the ablation and SM balance tables.
golden:
	$(GO) test ./internal/experiments -run 'TestGoldenStats|TestFig12Golden|TestAblationGolden' -update

# docs-lint layers cmd/doclint's conventions (documented exports in the
# public package, doc.go in every internal package, package comments on
# commands, served routes and gputlbd flags in OPERATIONS.md, no unknown
# flag in README's gputlbd flag table, every tlbmech.Known() name in
# README's -mech row, README's grid config list equal to
# experiments.ConfigNames(), every jobs.CellSpec field README names a real
# field with its JSON tag, every documented gputlbsim -policy a config
# name) on top of go vet.
docs-lint: vet
	$(GO) run ./cmd/doclint .

# fmt-check fails when gofmt lists any file (it prints nothing when the
# tree is formatted, so any output is a failure).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is its own module (gputlb/perfbench), so the root ./... skips it.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

# ci is the whole gate; .github/workflows/ci.yml runs this target, so a
# step added here runs in CI too.
ci: fmt-check vet build test-race fuzz-seeds docs-lint perfbench-check multi-smoke controller-smoke fabric-smoke mech-smoke scale1-smoke
