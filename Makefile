GO ?= go

.PHONY: all build vet lint test race race-stress short fuzz-seeds bench bench-smoke bench-compare bench-e2e loc chaos chaos-recovery chaos-failover chaos-coordinator experiments examples cover clean

# Seed for the fault-injection suite; override to replay a sequence:
#   make chaos CHAOS_SEED=42
CHAOS_SEED ?= 1

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (clock, goroutine, lock/RPC, fault-site,
# context, lifecycle-error discipline) plus the whole-program analyzers
# (deepblock, lockorder, noalloc); see DESIGN.md "Enforced invariants"
# and "Whole-program invariants". `go vet` runs first so the stock
# checks gate alongside the project-specific ones, and any file gofmt
# would rewrite fails the target.
GOFMT ?= $(shell $(GO) env GOROOT)/bin/gofmt

lint: vet
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/sensorlint ./...

test:
	$(GO) test ./... -count=1

race:
	$(GO) test ./... -count=1 -race

# The concurrency hot spots under the race detector: the space stress
# test, the srpc package 20 times over (its read-side hand-over, inline
# reply write, and the client's shared writer: TestCreditGrantsShareOneWrite,
# TestStreamCloseThenClientCloseReachesPeer and
# TestCallOnPeerClosedConnFailsPromptly among the rest), two publishers
# racing the pump over the hub's reused inline update, three publishers
# introducing sensors against a paced pump, a credit-starved pump and
# the inline path over the hub's index-addressed state, a Resume racing
# a parked subscription's lease end and a Publish 1000 times (either the
# resume wins and delivery goes on, or the subscription is gone), remote lookups
# encoding shared items while ModifyAttributes and re-Register replace
# them, pull-mode jobs whose envelope and result field maps pass from the
# writing goroutine to a taker on another without a copy (the Spacer,
# its workers and the job context built lazily from their tasks), a
# holder's lease Cancel racing a Sweep at the expiry instant and a Renew
# on the same grant 1000 times (the end callback runs once, outside the
# table's lock), the write-ahead log five times over (each durable append
# fsyncs under the log's lock, which its concurrent-append,
# snapshot-vs-append and follower tests contend on), plus
# reduced-iteration (-short) chaos and chaos-failover sweeps.
# Seeded like the chaos targets — a failure prints the CHAOS_SEED to
# replay with.
race-stress:
	$(GO) test ./internal/space -count=1 -race -run TestSpaceStressIndexedConcurrency
	$(GO) test ./internal/srpc -race -count=20
	$(GO) test ./internal/subscribe -race -count=10 -run 'TestReusedSingleUpdateIsNeverShared|TestDirectPathConservesUnderBlocking|TestIndexedStateRacesPacedPump|TestParkEndRacesResume'
	$(GO) test ./internal/remote -race -count=10 -run TestRegistrarLookupRacesWrites
	$(GO) test ./internal/sorcer -race -count=10 -run 'Spacer|SpaceWorker|JobContext'
	$(GO) test ./internal/lease -race -count=1 -run TestEndRacesFireOnce
	$(GO) test ./internal/wal -race -count=5
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -tags chaos -race -short ./internal/chaos -count=1
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -tags chaos -race -short ./internal/chaos -count=1 \
		-run 'FailoverReplicationInvariants|FederationJobSurvivesPrimaryFailover'

short:
	$(GO) test ./... -count=1 -short

# Run the wire/srpc/subscribe/expr/space/remote/discovery/registry/wal fuzz
# targets over their seed corpora (the checked-in testdata/fuzz files plus
# the in-code f.Add seeds): the never-panic / bounded-allocation properties
# of the frame decoder, of the stream-stateful update decoder, of the
# tagged-value decoder, of the space's and the lookup service's journal
# record and snapshot decoders, of the replication ship-batch decoder, of
# the lookup and registrar-write decoders and of the remaining replication,
# accessor and exertion shapes, the write-ahead log's
# recovery of a damaged segment (torn-tail truncation, then replay), the
# round trip of a discovery announcement datagram, and the expression
# float64 path's agreement with the tree walker, without paying for
# open-ended fuzzing. For a real fuzz session:
#   go test ./internal/srpc -fuzz FuzzDecodeFrame -fuzztime 60s
#   go test ./internal/subscribe -fuzz FuzzUpdateDecode -fuzztime 60s
#   go test ./internal/expr -fuzz FuzzEvalDifferential -fuzztime 60s
#   go test ./internal/space -fuzz FuzzJournalRecordDecode -fuzztime 60s
#   go test ./internal/remote -fuzz FuzzShipBatchDecode -fuzztime 60s
#   go test ./internal/remote -fuzz FuzzRegistrarShapes -fuzztime 60s
#   go test ./internal/remote -fuzz FuzzRemoteShapes -fuzztime 60s
#   go test ./internal/discovery -fuzz FuzzDecodePacket -fuzztime 60s
#   go test ./internal/registry -fuzz FuzzRegistryJournalDecode -fuzztime 60s
#   go test ./internal/wal -fuzz FuzzWALSegment -fuzztime 60s
fuzz-seeds:
	$(GO) test ./internal/srpc ./internal/wire ./internal/subscribe ./internal/expr ./internal/space ./internal/remote ./internal/discovery ./internal/registry ./internal/wal -count=1 -run '^Fuzz'

# Full benchmark suite; results land in $(BENCH_OUT) (op name -> ns/op,
# B/op, allocs/op, custom metrics like wirebytes/op) so later PRs have a
# perf trajectory to compare against. The default is an untracked file,
# so a plain `make bench` cannot overwrite the baseline bench-compare
# gates on; a PR that starts a new baseline passes
# BENCH_OUT=BENCH_PR<n>.json and points BENCH_BASE at it.
BENCH_OUT ?= bench-latest.json
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# One iteration per benchmark: proves the suite and the JSON emitter still
# run, without CI paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime 1x -benchmem ./... | $(GO) run ./cmd/benchjson -o /dev/null

# Diff a fresh 100x smoke run against the checked-in baseline and fail
# on regressions past the threshold. 100 iterations amortize cold-start
# (a 1x run inflates sub-microsecond benchmarks 40x); each benchmark runs
# three times and benchjson judges the median, so one disk or scheduler
# spike in one sample (BenchmarkAppendNoSync read 6.5–148 µs on one
# commit that way) cannot fail the gate alone. The threshold is still
# loose because the baseline came from full-length runs — this gate
# catches order-of-magnitude cliffs, not percent-level drift. For the
# tight version run `make bench` on both commits and
# `benchjson -compare -threshold 1.2 old.json new.json`.
BENCH_BASE ?= BENCH_PR16.json
bench-compare:
	$(GO) test -run '^$$' -bench=. -benchtime 100x -count=3 -benchmem ./... | $(GO) run ./cmd/benchjson -o /tmp/bench-head.json
	$(GO) run ./cmd/benchjson -compare -threshold 10 $(BENCH_BASE) /tmp/bench-head.json

# The federation benchmark (bench/, contract in BENCHMARK.json): four
# multi-process workloads, end-to-end and per-layer metrics; ~25 s each.
bench-e2e:
	$(GO) run ./bench -workload all -seed 1

# Non-test, non-testdata Go lines per package (bench/ excluded), then the
# total — the size trend ROADMAP item 3 wants as visible as ns/op.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './bench/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -tags chaos -race ./internal/chaos -count=1

# Just the crash/recovery invariant sweeps (a subset of `make chaos`).
chaos-recovery:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -tags chaos -race ./internal/chaos -count=1 \
		-run 'CrashRecovery|SpacerJobAcrossCrashRecovery'

# Just the replication/failover invariant sweeps (a subset of `make chaos`):
# 200 seeded primary-kill / partition / promotion iterations plus the
# federated job that rides out a mid-job promotion.
chaos-failover:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -tags chaos -race ./internal/chaos -count=1 \
		-run 'FailoverReplicationInvariants|FederationJobSurvivesPrimaryFailover'

# Just the coordination-plane invariant sweeps (a subset of `make chaos`):
# 200 seeded coordinator-kill / lease-expiry-race / split-brain /
# primary-crash iterations.
chaos-coordinator:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -tags chaos -race ./internal/chaos -count=1 \
		-run 'CoordinatorChaosInvariants'

experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/farm
	$(GO) run ./examples/failover
	$(GO) run ./examples/airvehicle
	$(GO) run ./examples/metacompute

cover:
	$(GO) test ./internal/... -cover -count=1

clean:
	$(GO) clean ./...
