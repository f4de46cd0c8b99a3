GO ?= go

.PHONY: tier1 build test race stress crash fuzz vet bench-smoke perfbench-test check-bench bench-train bench-drive bench-exec bench-partition bench-server bench-compress bench-repl

# tier1 is the full pre-merge gate: static checks, build, the whole test
# suite under the race detector (including the internal/check concurrency
# and crash-recovery harness matrices), short parser and WAL-deserializer
# fuzz passes, a one-iteration run of the execution-pipeline benchmarks
# so they cannot rot between bench-exec runs, and the repository
# benchmark's own tests.
tier1: vet build race fuzz bench-smoke perfbench-test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress runs only the deterministic concurrency harness, race-checked.
stress:
	$(GO) test -race -v -run TestStress ./internal/check

# crash runs only the crash-at-every-point recovery harness, race-checked.
crash:
	$(GO) test -race -v -run TestCrash ./internal/check

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=5s ./internal/sql
	$(GO) test -run=NONE -fuzz=FuzzWALDeserialize -fuzztime=5s ./internal/wal
	$(GO) test -run=NONE -fuzz=FuzzPartitionKey -fuzztime=5s ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=5s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzClusterAssign -fuzztime=5s ./internal/forecast
	$(GO) test -run=NONE -fuzz=FuzzShipFrame -fuzztime=5s ./internal/repl

# bench-smoke executes every (pipeline, variant) benchmark and every
# partition-sweep cell once — a correctness smoke, not a measurement — and
# checks the committed BENCH_*.json artifacts against their schema.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkPipelines|BenchmarkPartitionPipelines' -benchtime=1x ./internal/exec
	@$(MAKE) --no-print-directory check-bench

# perfbench-test runs the tests of the repository benchmark's separate Go
# module (perfbench/): a tiny-size smoke of every workload in both trace
# modes, including forecast_100k's Assigned()/Len() clustering checks, and
# the injected-damage tests that prove each workload's checks fire. Runs
# offline in about 20 s.
perfbench-test:
	cd perfbench && $(GO) test ./...

# check-bench decodes every committed BENCH_*.json and fails unless each
# records its host shape (gomaxprocs, num_cpu) and every mode, field, sweep
# point and arm its schema lists (TestBenchArtifacts in internal/benchio),
# so no artifact can silently lose coverage when it is regenerated.
check-bench:
	$(GO) test -count=1 -run '^TestBenchArtifacts$$' ./internal/benchio

# bench-train times the offline training pipeline serially and at
# increasing -j, verifies the runs digest identically, and records the
# measurements (wall clock, speedup, records/sec) as JSON.
bench-train:
	$(GO) run ./cmd/mb2-train -bench-parallel BENCH_train_parallel.json

# bench-drive runs the closed control loop with a fixed seed, verifies a
# replay reproduces it bit for bit, and records loop-interval wall clock,
# inference p50/p99, prediction-cache hit rate, and predicted-vs-observed
# MAPE as JSON.
bench-drive:
	$(GO) run ./cmd/mb2-drive -verify -bench BENCH_drive.json

# bench-exec measures the hot execution pipelines (seq-scan→filter→project,
# hash join, index join) as interpreted / compiled-unfused / compiled-fused
# / vectorized and records ns/op, B/op, and allocs/op per (pipeline,
# variant) plus the fused-path alloc reduction and the compiled and
# vectorized wall-clock speedups as JSON, then fails if any mode is
# missing from the artifact.
bench-exec:
	$(GO) run ./cmd/mb2-execbench -out BENCH_exec.json
	@$(MAKE) --no-print-directory check-bench

# bench-partition sweeps the parallel scan and partition-wise join over a
# partition-count × DOP grid, checks every cell's cardinalities against the
# serial baseline, and records ns/op plus speedup-over-serial per cell —
# alongside GOMAXPROCS/NumCPU so single-CPU recordings are identifiable.
bench-partition:
	$(GO) run ./cmd/mb2-execbench -partition -rows 8000 -out BENCH_partition.json

# bench-server sweeps the seeded load generator at 100 / 1000 / 5000
# concurrent sessions over the deterministic in-process transport and
# records throughput, client-observed p50/p99 latency, and the peak
# concurrent-session gauge per point — alongside GOMAXPROCS/NumCPU — then
# fails if the artifact drops a required field.
bench-server:
	$(GO) run ./cmd/mb2-server -bench BENCH_server.json
	@$(MAKE) --no-print-directory check-bench

# bench-compress sweeps forecast+plan inference cost across template
# populations (12 / 1k / 10k / 100k) with and without workload compression
# (K=64 cluster representatives) and records per-interval forecast+plan
# wall clock, per-template volume-forecast MAPE, and prediction-cache
# evictions per point — alongside GOMAXPROCS/NumCPU — then fails if the
# artifact drops a sweep point or field.
bench-compress:
	$(GO) run ./cmd/mb2-drive -bench-compress BENCH_compress.json
	@$(MAKE) --no-print-directory check-bench

# bench-repl sweeps deterministic failover drills over a replica-count ×
# apply-staleness grid (killing the primary's log device at every strided
# byte offset), then pits the fixed promotion policy against model-predicted
# promotion on a scenario with unevenly lagged replicas, and records mean /
# max failover time, staleness, and the policy comparison as JSON.
bench-repl:
	$(GO) run ./cmd/mb2-drive -bench-repl BENCH_repl.json
	@$(MAKE) --no-print-directory check-bench
