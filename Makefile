# Tier-1 gate: `make check` is what every PR must keep green (gofmt,
# build, vet, and the full test suite under the race detector — the
# engine's worker pool makes concurrency a correctness feature, so -race
# is not optional).

GO ?= go

.PHONY: check fmt build test race vet check-json bench bench-analysis bench-incremental bench-calibration bench-serve bench-cluster payoff figs serve

check: fmt build vet race check-json

# Every Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Golden JSON schema check: the serialized shapes of Explain decisions,
# CompileStats, and the structured rejection reasons are public contract
# (evidence steps, reason codes, field ordering). Wall times are the one
# nondeterministic field and the tests normalize them.
check-json:
	$(GO) test . -run 'JSON|Golden' -count=1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Benchmark the analysis phase itself: the Go benchmarks (worklist vs
# sweep solver on every program at both Tags settings), then the
# engine's table of the same comparison with solver work counters,
# saved as BENCH_analysis.json.
bench-analysis:
	$(GO) test ./internal/bench -run '^$$' -bench BenchmarkAnalyze -benchtime 3x
	$(GO) run ./cmd/objbench -fig analysis -json > BENCH_analysis.json
	$(GO) run ./cmd/objbench -fig analysis

# Incremental recompilation: cold pipeline vs a session absorbing payload
# edits (docs/SERVER.md, DESIGN.md §12), with byte-identity checked before
# any timing is reported. Saved as BENCH_incremental.json plus the table.
bench-incremental:
	$(GO) run ./cmd/objbench -fig incremental -json > BENCH_incremental.json
	$(GO) run ./cmd/objbench -fig incremental

# Cost-model cross-validation: the VM's predicted inlining speedups and
# allocation deltas vs the native tier's measured wall-time and
# allocator deltas (EXPERIMENTS.md has the methodology and caveats).
# Saved as BENCH_calibration.json plus the human-readable table.
bench-calibration:
	$(GO) run ./cmd/objbench -fig calibration -json > BENCH_calibration.json
	$(GO) run ./cmd/objbench -fig calibration

# Per-field payoff attribution: profiled inlining-on vs inlining-off runs
# joined against the optimizer's decision (docs/OBSERVABILITY.md), saved
# as BENCH_payoff.json plus the human-readable table.
payoff:
	$(GO) run ./cmd/objbench -fig payoff -json > BENCH_payoff.json
	$(GO) run ./cmd/objbench -fig payoff

# Regenerate the full evaluation (figure-sized workloads).
figs:
	$(GO) run ./cmd/objbench -fig all -scale default -stats

# Run the oicd compile-and-explain service locally (docs/SERVER.md).
serve:
	$(GO) run ./cmd/oicd

# Benchmark the service: cold vs warm compile throughput, latency
# percentiles, cache hit rate, and byte-identity at concurrency 8.
bench-serve:
	$(GO) run ./cmd/objbench -fig serve

# Benchmark the cluster tier: a real 3-process cluster measured for
# cross-instance dedup, per-instance and cluster-wide latency,
# byte-identity through every front, SIGKILL failover, and
# warm-from-disk restart.
bench-cluster:
	$(GO) run ./cmd/objbench -fig cluster -json > BENCH_cluster.json
	$(GO) run ./cmd/objbench -fig cluster
