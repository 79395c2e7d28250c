# Developer entry points. `make ci` is the gate a change must pass.

GO ?= go

.PHONY: build vet fmt staticcheck no-unsafe-switches test race bench e2e e2e-fleet e2e-durable fuzz verify-short mutation-smoke churn-short recover-short fleet-short failover-short tenancy-short plan-short ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs formatting; `gofmt -l .` names them.
fmt:
	test -z "$$(gofmt -l .)"

# staticcheck is optional tooling: run it when the host has it, stay
# green when it does not (CI images do not install it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# The packages where concurrency now exists (the experiments worker
# pool, the shared planner cache, the planner's and the table checkers'
# scratch pools, the switch board every dispatcher enacts its tables
# through, the retrying planner client, the control plane's replan
# queue, the fleet's lock-free headroom board) or whose invariants those
# lean on — plus, repeated, the switch protocol's concurrent readers and
# adoption races with the controller storm over it, and the live
# concurrent Place/Depart/Failover path under the fleet oracle, which
# lives in internal/verify and must trim ledgers and compact journals
# mid-storm.
race:
	$(GO) test -race ./internal/experiments ./internal/sim ./internal/planner \
		./internal/dispatch ./internal/faults ./internal/plannersvc ./internal/vmm \
		./internal/trace ./internal/core ./internal/journal ./internal/fleet \
		./internal/table ./internal/periodic
	$(GO) test -race -count=3 ./internal/dispatch -run 'TestSwitch|TestAbort'
	$(GO) test -race -count=3 ./internal/verify -run 'TestLiveFleetUnderOracle'

# Short fuzz smoke over the untrusted-input surfaces (the binary table
# and trace decoders), the whole generate→run→oracle pipeline, and the
# planner's exact fraction sums against math/big. The
# corpora are committed under each package's testdata/fuzz; long local
# runs raise -fuzztime.
fuzz:
	$(GO) test ./internal/table -run '^$$' -fuzz '^FuzzTableDecode$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 10s
	$(GO) test ./internal/verify -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime 10s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime 10s
	$(GO) test ./internal/planner -run '^$$' -fuzz '^FuzzFracAdd$$' -fuzztime 10s

# Bounded property-based verification: generator determinism, the
# invariant oracles over generated scenarios (-short trims the seed
# counts), metamorphic planner properties, the cross-scheduler
# differential check, and a race pass over the soak fan-out.
verify-short:
	$(GO) test -short ./internal/verify
	$(GO) test -short -race ./internal/verify

# Mutation smoke: seeded scheduler/trace defects (starvation, delayed
# dispatch, phantom records, tampered dumps), the stale-slice planning
# backend and the double placement (verify), the inverted shed order on
# the admission and plan-failure paths (core) and the BE-first
# evacuation (fleet) must each be convicted by the check that claims to
# catch them. The defects live in test files only: no shipping type
# carries a switch for them.
mutation-smoke:
	$(GO) test ./internal/verify ./internal/core ./internal/fleet \
		-run 'TestMutationSmoke|TestShrinkFindsSmallerRepro|TestCheckFleetCatchesDoublePlace|TestPlanFailureRetryShedsBEBeforeLS' -v

# No defect switch ships: production Go code names nothing "Unsafe".
no-unsafe-switches:
	@if grep -rln 'Unsafe' --include='*.go' internal cmd examples | grep -v '_test\.go$$'; then \
		echo "defect switches belong in test files"; exit 1; \
	fi

# Churn determinism gate: the churnchaos CSV must be byte-identical
# across runs and -parallel settings, with zero per-transition
# blackout-bound violations, and the churn chapter of the verify
# harness (generator shape, continuity soak, transition wiring) must
# hold under -short.
churn-short:
	$(GO) test ./internal/experiments -run 'TestChurnChaosDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestChurn|TestGenerateChurnShape'

# Crash-recovery gate: the journal codec, store and crash injector test
# suites (the segment MemStore against its flat model, compaction
# included; its read-only image contract — a one-segment Load is the
# store's own memory, NewMemStoreFrom adopts its seed; the FileStore's
# failed-append rule; truncation and compaction through a failing write,
# fsync or directory fsync recovering the same state; the Replay aliasing
# contract and its shared slot names), the table decoder's differential
# and sharing walls (cores and vCPU names), the ~120-scenario quick crash
# matrix (seeded crash storms → recovery-equivalence + crash-seam
# oracles, zero violations), the crashchaos CSV determinism check
# (byte-identical across runs and -parallel settings), and core's
# recovery tests — among them the journal-image golden (formats pinned
# by digest) and the full-record image written before delta records,
# TestRecoveredHistoryEqualsLive, the dense Recover's allocation
# ceilings (TestRecoverDenseAllocationCeiling: per record, not per name,
# and what changed, not whole epochs), compaction keyed to the epoch
# ring and cut at checkpoints (a compacted journal recovers exactly what
# the long one does, every crash kind, rollback re-commit included), the
# delta ≡ full wall (TestDeltaRecordsRecoverAsFull: the same scripts
# journaled in full records recover the same), the writer rule
# (TestFlushDeltaNeedsItsOwnRecord: a delta only on the current epoch's
# own record) and the dense record size (TestDenseDeltaRecordSize); the
# table's delta codec walls run with the decoder's (TestDecodeDelta*).
recover-short:
	$(GO) test ./internal/journal ./internal/faults
	$(GO) test ./internal/table -run 'TestDecode|TestEncode'
	$(GO) test -short ./internal/verify -run 'TestCrash|TestGenerateCrashScenario|TestRunCrash'
	$(GO) test ./internal/experiments -run 'TestCrashChaosDeterminism' -v
	$(GO) test ./internal/core -run 'TestJournal|TestRecover|TestClose|TestAttachJournal|TestEmergencyRollback|TestCompaction|TestDeltaRecords|TestFlushDelta|TestDenseDeltaRecordSize'

# Fleet placement gate: the arbiter's unit + protocol tests — among
# them the headroom board's wall (TestPickMatchesFivePassReference,
# TestBoardPublishedAtEveryTransition, TestLivePickAllocatesNothing)
# and the duplicate-placement regression; bounded retention
# (TestArbiterHeapIsFlat, TestLedgerBaseIsTheFoldOfWhatWasCut) — the fleet
# CSV determinism check (byte-identical across -parallel settings, zero
# oracle violations, nonzero conflict-retry counts), and the cross-host
# continuity oracle soak under -short with its mutants
# (TestCheckFleetConvicts*: corrupt ledger bases, bad compactions).
fleet-short:
	$(GO) test ./internal/fleet
	$(GO) test -short ./internal/experiments -run 'TestFleetDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestCheckFleet'

# Fleet failure-domain gate: host crash/recover/evacuate unit tests,
# the failover CSV determinism check (byte-identical across -parallel
# settings, zero seam-oracle violations, both resolution paths taken),
# and the failure-seam oracle soak + BE-first and bad-compaction mutation
# convictions under -short, with the ledgers cut and the crash images
# compacted.
failover-short:
	$(GO) test ./internal/fleet -run 'TestHostCrash|TestFailStop|TestArbiterClose|TestArmCrashes|TestLedgerBase'
	$(GO) test -short ./internal/experiments -run 'TestFailoverDeterminism' -v
	$(GO) test -short ./internal/fleet -run 'TestFailoverSoak|TestMutationSmokeEvacuateBEFirst'
	$(GO) test -short ./internal/verify -run 'TestCheckFleetConvictsBadCompaction'

# Mixed-criticality tenancy gate: the tenancy CSV must be
# byte-identical across runs and -parallel settings (steady cell sheds
# nothing, surge cell sheds BE while LS keeps serving), and the
# class-aware chapters of the verify harness (tenancy continuity soak)
# must hold under -short; the shed-order conviction runs in
# mutation-smoke.
tenancy-short:
	$(GO) test ./internal/experiments -run 'TestTenancyDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestTenancyContinuity'
	$(GO) test ./internal/workload -run 'TestSLOServer|TestScheduleBursts'

# Plan identity and ownership gate: the planner's output is pinned byte
# for byte (615 seeded inputs against digests taken before the planner
# workspace existed, the incremental chains again through arenas, and
# all of it again planned in sparse vCPU ids and renamed back), ids are
# refused out of order and name the table (a plannersvc round trip with
# a gap in them included), the final gate's delta form gives the full
# gate's verdict and convicts its two stale-core mutants, a Result shares
# nothing with the pooled workspace or the arena it was planned in
# (scribbled workspaces, eight goroutines, -race), every core a dense
# host carries over between epochs equals a fresh remap (core failures,
# moved names, remote plans and failed remaps included) and is the
# previous plan's and epoch's own list, shared tables stay as they were
# first encoded through fleet churn, and the allocation ceilings that
# say the scratch really is reused: a warm small-host plan, the table
# checkers, a mixed-shape Place+Depart pair, a warm dense flush, and the
# per-core EDF simulation (jobs by value: its allocations grow with the
# slices' log-growth, not with the jobs released). Also the exact
# arithmetic the flush's cheap paths rest on: one walk's home cores and
# split marks equal two walks', the period shortcut equals the full
# scan, equal utilizations plan alike, and Flush's per-op admission
# returns the planner's verdict on a 2000-batch walk.
plan-short:
	$(GO) test ./internal/planner -run 'TestPlanDigests|TestSparseIDs|TestPlanRefusesUnorderedIDs|TestDeltaGate|TestSmallHostPlanAllocationCeiling|TestHomeAndSplit|TestPickPeriodShortcutMatchesScan|TestEqualUtilizationsPlanAlike|TestFrac'
	$(GO) test ./internal/periodic -run 'TestSimulateEDFAllocatesPerSimulationNotPerJob'
	$(GO) test -race -count=3 ./internal/planner -run 'TestPlanResultOwnsItsMemory|TestConcurrentPlanStress|TestCacheConcurrent'
	$(GO) test ./internal/table -run 'TestCheckAndValidateAllocateNothing|TestValidateDelta|TestCheckSubset'
	$(GO) test ./internal/fleet -run 'TestMixedPlaceDepartAllocationCeiling|TestSharedTablesStayImmutable'
	$(GO) test ./internal/core -run 'TestCacheHitResultOwnsItsGuarantees|TestReconfigureInactiveSlotShedsNothing|TestFlushRejectsEachInadmissibleOpAlone|TestLSActivationShedsYoungestBE|TestPerOpAdmissionMatchesPlanner|TestCarriedCores|TestAdoptedCoresAreShared|TestRemotePlanOrFailedRemap|TestRemotePlanWithAnIDGap|TestBackendTableMustNameActiveSlots|TestDenseIncrementalFlushAllocationCeiling'

# Full micro-benchmark pass over the hot-path packages.
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim ./internal/planner ./internal/table ./internal/dispatch \
		./internal/stats ./internal/netdev ./internal/periodic ./internal/trace \
		./internal/experiments ./internal/core ./internal/journal ./internal/fleet

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md):
# all four workloads, about 95 s on 2 cores. `make ci` runs it, so a
# change that breaks any workload's build, replicate check or
# correctness check fails here instead of in the pipeline. e2e-fleet is
# the one a fleet change is judged on, with the traced pass's per-layer
# metrics.
e2e:
	$(GO) run ./bench

e2e-fleet:
	$(GO) run ./bench -workload fleet-place-1k -trace

# The two journaled workloads at the benchmark's own length (about 16 s
# and 19 s; a shorter run is not usable — at -seconds 1 the replicate
# check fails on any commit): a quicker check of the recovered-bytes
# path than e2e.
e2e-durable:
	$(GO) run ./bench -workload host-replan-192
	$(GO) run ./bench -workload fleet-durable-256

ci: vet fmt staticcheck no-unsafe-switches build test race verify-short mutation-smoke churn-short recover-short fleet-short failover-short tenancy-short plan-short fuzz e2e
