# WearLock CI targets. `make ci` is the gate: vet/lint, build,
# race-enabled tests, a benchmark smoke run, and a short load-generator
# run against an in-process wearlockd.

GO ?= go

.PHONY: loc ci fmt vet lint lint-scenarios build test race bench bench-module test-chaos test-store test-vtime test-cluster test-replica fuzz-smoke bench-sim bench-service bench-chaos bench-dsp bench-store bench-vtime bench-cluster bench-failover

ci: fmt vet lint lint-scenarios build race bench bench-module test-chaos test-store test-vtime test-cluster test-replica bench-dsp bench-service bench-store bench-vtime bench-cluster bench-failover

# Non-test and test Go line counts, so each change can report its net LOC
# (run it at both commits and subtract). .bench_build/ is bench/run.sh's
# build cache, not source.
loc:
	@find . -path ./.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "non-test Go:", $$1}'
	@find . -path ./.bench_build -prune -o -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "test Go:", $$1}'

# gofmt gate: fails listing every Go file gofmt would change.
# .bench_build/ is bench/run.sh's build cache, not source.
fmt:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck when the host has it; vet-only hosts still pass `make ci`.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet still ran)"; \
	fi

# The scenario-registry conformance gate: every spec reachable through a
# consumer tag with a well-typed payload, unique well-formed instance
# names, collision-free axis matrices and seed salts, resolvable deps —
# plus the golden-stability proof that the registry reproduces the
# pre-registry per-scenario fingerprint streams byte for byte, serial
# and parallel.
lint-scenarios:
	$(GO) test -count=1 ./internal/scenario/... ./internal/scenariolint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One -race run of ./internal/service takes about 150 s on a 2-vCPU host
# (TestRestartChaos50Cycles about 80 s of it), so a repeated form such as
# `go test -race -count=5 ./internal/service` outlasts go test's default
# 10-minute timeout: give that form -timeout 30m.
race:
	$(GO) test -race ./...

# One short iteration of every paper-figure benchmark plus the DSP and
# sim microbenchmarks — a smoke test that the bench harness still runs,
# not a measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The unlock-service benchmark (bench/, see BENCHMARK.json) is a module of
# its own, so ./... above never builds it; vet and test it here so a change
# to the internal APIs it calls cannot break bench/run.sh with CI green.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The chaos & conformance suite: fault-schedule validation and fuzz
# seeds, backoff/ladder properties, the HOTP half-delivery regression,
# the serial-vs-parallel golden replay, and the daemon-level chaos
# integration tests — all race-enabled.
test-chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 ./internal/core -run 'TestChaosGoldenReplay|TestBackoff|TestResilien|TestHOTP'
	$(GO) test -race -count=1 ./internal/service -run 'TestChaos'

# The durability suite: WAL framing/merge properties, corruption
# taxonomy, the genuine kill -9 subprocess crash test, and the
# service-level restart-chaos harness (50 deterministic kill/mangle/
# recover cycles) plus the cross-restart golden replay, the core's
# restore check and every TestRecovery* test — race-enabled and never
# -short, so the real crash paths always run in CI. The committer's
# reused commit handles get a -race -count=10 stress run (concurrent
# commits from 16 devices racing Close), and the allocation ceilings of
# a steady-state commit, of a warm compaction and seal (with -benchmem
# numbers for Compact) and of a warm Submit → answer on a durable
# daemon run once more without -race, under which they skip.
test-store:
	$(GO) test -race -count=1 ./internal/store
	$(GO) test -race -count=10 ./internal/store -run 'TestReusedHandlesResolveOnlyTheirCommit'
	$(GO) test -count=1 ./internal/store -run 'Allocation' -bench '^BenchmarkCompact$$' -benchmem -benchtime=20x
	$(GO) test -race -count=1 ./internal/otp -run 'TestRecovery|TestRestore|TestResync'
	$(GO) test -race -count=1 ./internal/core -run 'TestCheckRestore|TestRestoreState|TestExportRestore'
	$(GO) test -race -count=1 ./internal/service -run 'TestDurable|TestRestart|TestCrossRestart|TestSubmitRejectsWhileRecovering|TestRecovery|TestReadyz'
	$(GO) test -count=1 ./internal/service -run 'TestDurableSubmitAllocationCeiling|TestWarmSubmitAllocationCeiling'

# The virtual-time suite (DESIGN.md §12): golden equivalence between the
# serial and discrete-event engines (clean, builtin chaos, and the
# checked-in chaos golden artifact), the timing-accounting regression,
# the concurrent-engine race stress, and a fuzz smoke of the scheduler's
# deterministic total order.
test-vtime:
	$(GO) test -race -count=1 ./internal/vtime
	$(GO) test -run='^$$' -fuzz=FuzzVTimeSchedule -fuzztime=10s ./internal/vtime

# The cluster suite (DESIGN.md §13): ring/wire/aggregation unit tests,
# the shard-mode ownership/fence/epoch contract, and the race-enabled
# multi-daemon integration tests — real gateway and shards over loopback
# HTTP, including the live-handoff chaos drill (a shard joins under
# closed-loop load; zero counter regressions, zero accepted replays,
# zero dropped requests), the unlock stream's relay, no-resend, pool,
# cancel, teardown, gateway-close and failover tests, and the handoff
# first-touch tests (TestShardFirstTouch*: fenced export and adopt build
# a device as eager construction would, and racing first touches build
# it once), the queued-session-across-handoff test and the owned-list
# race. The canonical JSON codec's differential tests run here too, and
# its allocation ceilings, with the warm gateway → shard relay's, once
# more without -race, under which they skip. The owned list, the
# sessions' borrowed contexts and their wait channels get a -race
# -count=10 stress run, and the live-handoff drill ten more runs without
# -race, where its timing once let a queued session replay a token.
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster ./internal/canonjson
	$(GO) test -count=1 ./internal/cluster -run 'Allocation'
	$(GO) test -race -count=1 ./internal/service -run 'TestShard|TestRetryAfter|TestUnlockStream'
	$(GO) test -race -count=10 ./internal/service -run 'TestShardOwnedListRace|TestSessionCtxReuse|TestSessionAwaitRacesRelease'
	$(GO) test -race -count=1 ./cmd/benchcluster
	$(GO) test -count=10 -run 'TestClusterHandoffUnderLoad$$' ./cmd/benchcluster

# The replication suite (DESIGN.md §16): WAL tail subscription
# semantics, the shipper/receiver stream protocol under chaos
# (drop/dup/truncate with snapshot resync), fencing both directions,
# manual-clock heartbeat-loss failover, the end-to-end primary/standby
# promotion tests, the warm-up and promotion first-touch test
# (TestReplicaFirstTouchWarmAndPromote), and the WLC1 replica frame
# codec (byte identity with json.Marshal, the strict-path oracle; its
# allocation ceiling once more without -race) — race-enabled. The
# shipper's reused ack-wait channels and the tail's lent records (held
# while the committer runs on, cut off by lag, closed mid-relay) get a
# -race -count=10 stress run, and the ship → apply of one batch its
# allocation ceiling without -race.
test-replica:
	$(GO) test -race -count=1 ./internal/replica
	$(GO) test -race -count=10 ./internal/replica ./internal/store -run 'TestShipperAwaitReusesChannels|TestTailLentRecordsStayPut'
	$(GO) test -count=1 ./internal/replica -run 'Allocation'
	$(GO) test -race -count=1 ./internal/store -run 'TestTail'
	$(GO) test -race -count=1 ./internal/cluster -run 'TestHeartbeat|TestFailover|TestGatewayReadyz|TestWireCodec|FuzzWireProtocol'
	$(GO) test -count=1 ./internal/cluster -run 'TestWireCodec'
	$(GO) test -race -count=1 ./internal/canonjson
	$(GO) test -race -count=1 ./internal/service -run 'TestReplica'

# Brief run of each fuzz target against its checked-in corpus plus a few
# seconds of mutation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadWAV -fuzztime=10s ./internal/audio
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzSegmentedReplay -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzRecordCodec -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzWireProtocol -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzNamespaceSessionID -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzUnlockBody -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzViewBody -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzReplicaStream -fuzztime=10s ./internal/replica
	$(GO) test -run='^$$' -fuzz=FuzzScenarioSpec -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzCountingSource -fuzztime=10s ./internal/sim

# Regenerate BENCH_dsp.json and enforce the DSP fast-path regression
# gate (DESIGN.md §10): per-pair speedup floors plus zero allocs/op on
# every steady-state fast path.
bench-dsp:
	$(GO) run ./cmd/benchdsp -out BENCH_dsp.json -check

# Regenerate the serial-vs-parallel sweep timings recorded in
# BENCH_sim.json (see that file for the capture environment).
bench-sim:
	$(GO) run ./cmd/benchsim -out BENCH_sim.json

# Drive an in-process wearlockd with the load generator and record the
# throughput/latency/consistency report. Exits non-zero if the daemon's
# /metrics outcome counters disagree with client-observed outcomes. The
# second run repeats a shorter burst with the builtin chaos schedule
# armed, so CI exercises the retry/degradation paths end to end (its
# consistency gate applies there too; no artifact is written).
bench-service:
	$(GO) run ./cmd/loadgen -selfhost -n 512 -c 64 -out BENCH_service.json
	$(GO) run ./cmd/loadgen -selfhost -n 128 -c 16 -chaos builtin

# Regenerate BENCH_store.json: cold-start WAL replay timings at
# 1k/5k/10k records, plus the commit-throughput gate (group committer
# must clear 5x the per-record-fsync baseline at 64 writers), the
# parallel-replay gate (checkpoint-skipping segmented replay must clear
# 2x the serial full decode, bit-identical state), and — via -check —
# the 50-cycle kill -9 chaos drill (every acked commit survives, zero
# counter regressions). Exits non-zero if any gate fails. The second
# run drives a durable selfhost daemon through loadgen's store-metrics
# consistency gate (commit-per-session accounting, zero corruptions,
# group-commit histograms present; no artifact).
bench-store:
	$(GO) run ./cmd/benchstore -check -out BENCH_store.json
	$(GO) run ./cmd/loadgen -selfhost -n 128 -c 16 -state-dir $$(mktemp -d)

# Regenerate BENCH_vtime.json and enforce the virtual-time throughput
# gate: the discrete-event engine must clear 100x the recorded
# BENCH_service.json sessions/sec at GOMAXPROCS=1, and every replica
# session must be bit-identical to the serial reference (divergence is
# fatal regardless of throughput).
bench-vtime:
	$(GO) run ./cmd/benchvtime -out BENCH_vtime.json -check

# Regenerate BENCH_cluster.json and enforce the linear-scaling gate
# (DESIGN.md §13): a 2-shard cluster must deliver >= 1.8x and a 4-shard
# cluster >= 3.2x the 1-shard sessions/sec, and the live-handoff drill
# must report zero HOTP counter regressions, zero accepted replays, and
# zero requests dropped without a retryable 429/503 + Retry-After.
bench-cluster:
	$(GO) run ./cmd/benchcluster -out BENCH_cluster.json -check

# Regenerate BENCH_failover.json and enforce the warm-standby gate: 25
# seeded kill/failover cycles with zero acked-but-lost sessions, zero
# counter regressions, zero accepted replays — plus the downtime ratio
# (client-observed promotion unavailability must be < 10% of a
# cold-restart replay of the same padded store). The second run drives
# loadgen's scripted mid-load failover availability gate: every failure
# across the kill is a retryable 503, the burst is bounded, and every
# 200-acked unlock survives promotion (no artifact).
bench-failover:
	$(GO) run ./cmd/benchfailover -out BENCH_failover.json -check
	$(GO) run ./cmd/loadgen -selfhost -n 256 -c 16 -devices 16 -failover 500ms

# Regenerate the success-rate / latency vs fault-intensity curves in
# BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/experiments -run chaos -scale full -chaos-out BENCH_chaos.json
