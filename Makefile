# Developer entry points. `make ci` is the gate a change must pass.

GO ?= go

.PHONY: build vet fmt staticcheck test race bench e2e e2e-fleet e2e-durable fuzz verify-short mutation-smoke churn-short recover-short fleet-short failover-short tenancy-short plan-short ci

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
# scratch pools, the dispatcher's lock-free switch board, the retrying
# planner client, the control plane's replan queue, the fleet's
# lock-free headroom board) or whose invariants those lean on — plus the
# live concurrent Place/Depart/Failover path under the fleet oracle,
# which lives in internal/verify.
race:
	$(GO) test -race ./internal/experiments ./internal/sim ./internal/planner \
		./internal/dispatch ./internal/faults ./internal/plannersvc ./internal/vmm \
		./internal/trace ./internal/core ./internal/journal ./internal/fleet \
		./internal/table ./internal/periodic
	$(GO) test -race -count=3 ./internal/verify -run 'TestLiveFleetUnderOracle'

# Short fuzz smoke over the untrusted-input surfaces (the binary table
# and trace decoders) and the whole generate→run→oracle pipeline. The
# corpora are committed under each package's testdata/fuzz; long local
# runs raise -fuzztime.
fuzz:
	$(GO) test ./internal/table -run '^$$' -fuzz '^FuzzTableDecode$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 10s
	$(GO) test ./internal/verify -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime 10s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime 10s

# Bounded property-based verification: generator determinism, the
# invariant oracles over generated scenarios (-short trims the seed
# counts), metamorphic planner properties, the cross-scheduler
# differential check, and a race pass over the soak fan-out.
verify-short:
	$(GO) test -short ./internal/verify
	$(GO) test -short -race ./internal/verify

# Mutation smoke: seeded scheduler/trace defects (starvation, delayed
# dispatch, phantom records, tampered dumps) must each be flagged by
# the oracle class that claims to catch them.
mutation-smoke:
	$(GO) test ./internal/verify -run 'TestMutationSmoke|TestShrinkFindsSmallerRepro' -v

# Churn determinism gate: the churnchaos CSV must be byte-identical
# across runs and -parallel settings, with zero per-transition
# blackout-bound violations, and the churn chapter of the verify
# harness (generator shape, continuity soak, transition wiring) must
# hold under -short.
churn-short:
	$(GO) test ./internal/experiments -run 'TestChurnChaosDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestChurn|TestGenerateChurnShape'

# Crash-recovery gate: the journal codec, store and crash injector test
# suites (the segment MemStore against its flat model, the FileStore's
# failed-append rule, the Replay aliasing contract), the table decoder's
# differential and sharing walls, the ~120-scenario quick crash matrix
# (seeded crash storms → recovery-equivalence + crash-seam oracles, zero
# violations), the crashchaos CSV determinism check (byte-identical
# across runs and -parallel settings), and core's recovery tests — among
# them the journal-image golden (formats pinned by digest) and
# TestRecoveredHistoryEqualsLive.
recover-short:
	$(GO) test ./internal/journal ./internal/faults
	$(GO) test ./internal/table -run 'TestDecode|TestEncode'
	$(GO) test -short ./internal/verify -run 'TestCrash|TestGenerateCrashScenario|TestRunCrash'
	$(GO) test ./internal/experiments -run 'TestCrashChaosDeterminism' -v
	$(GO) test ./internal/core -run 'TestJournal|TestRecover|TestClose|TestAttachJournal|TestEmergencyRollback'

# Fleet placement gate: the arbiter's unit + protocol tests — among
# them the headroom board's wall (TestPickMatchesFivePassReference,
# TestBoardPublishedAtEveryTransition, TestLivePickAllocatesNothing)
# and the duplicate-placement regression — the fleet CSV determinism
# check (byte-identical across -parallel settings, zero oracle
# violations, nonzero conflict-retry counts), and the cross-host
# continuity oracle soak under -short.
fleet-short:
	$(GO) test ./internal/fleet
	$(GO) test -short ./internal/experiments -run 'TestFleetDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestCheckFleet'

# Fleet failure-domain gate: host crash/recover/evacuate unit tests,
# the failover CSV determinism check (byte-identical across -parallel
# settings, zero seam-oracle violations, both resolution paths taken),
# and the failure-seam oracle soak + BE-first mutation conviction
# under -short.
failover-short:
	$(GO) test ./internal/fleet -run 'TestHostCrash|TestFailStop|TestArbiterClose|TestArmCrashes'
	$(GO) test -short ./internal/experiments -run 'TestFailoverDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestFailoverSoak|TestMutationSmokeEvacuateBEFirst'

# Mixed-criticality tenancy gate: the tenancy CSV must be
# byte-identical across runs and -parallel settings (steady cell sheds
# nothing, surge cell sheds BE while LS keeps serving), and the
# class-aware chapters of the verify harness (tenancy continuity soak,
# shed-order mutation conviction) must hold under -short.
tenancy-short:
	$(GO) test ./internal/experiments -run 'TestTenancyDeterminism' -v
	$(GO) test -short ./internal/verify -run 'TestTenancyContinuity'
	$(GO) test ./internal/workload -run 'TestSLOServer|TestScheduleBursts'

# Plan identity and ownership gate: the planner's output is pinned byte
# for byte (685 seeded inputs against digests taken before the planner
# workspace existed), a Result shares nothing with the pooled workspace
# it was planned in (scribbled workspaces, eight goroutines, -race), and
# the allocation ceilings that say the scratch really is reused: a warm
# small-host plan, the table checkers, a mixed-shape Place+Depart pair.
plan-short:
	$(GO) test ./internal/planner -run 'TestPlanDigests|TestSmallHostPlanAllocationCeiling|TestDonationLedger'
	$(GO) test -race -count=3 ./internal/planner -run 'TestPlanResultOwnsItsMemory|TestConcurrentPlanStress|TestCacheConcurrent'
	$(GO) test ./internal/table -run 'TestCheckAndValidateAllocateNothing'
	$(GO) test ./internal/fleet -run 'TestMixedPlaceDepartAllocationCeiling'
	$(GO) test ./internal/core -run 'TestCacheHitResultOwnsItsGuarantees|TestReconfigureInactiveSlotShedsNothing'

# Full micro-benchmark pass over the hot-path packages.
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim ./internal/planner ./internal/table ./internal/dispatch \
		./internal/stats ./internal/netdev ./internal/periodic ./internal/trace \
		./internal/experiments ./internal/core ./internal/journal ./internal/fleet

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md):
# all four workloads, about 95 s on 2 cores; e2e-fleet is the one a
# fleet change is judged on, with the traced pass's per-layer metrics.
e2e:
	$(GO) run ./bench

e2e-fleet:
	$(GO) run ./bench -workload fleet-place-1k -trace

# The two journaled workloads at the benchmark's own length (about 16 s
# and 19 s; a shorter run is not usable — at -seconds 1 the replicate
# check fails on any commit). A change that breaks the benchmark's
# build, its replicate check or its recovered-bytes check fails here
# instead of in the pipeline.
e2e-durable:
	$(GO) run ./bench -workload host-replan-192
	$(GO) run ./bench -workload fleet-durable-256

ci: vet fmt staticcheck build test race verify-short mutation-smoke churn-short recover-short fleet-short failover-short tenancy-short plan-short fuzz e2e-durable
