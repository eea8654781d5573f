#!/bin/sh
# bench.sh — the per-layer go-test micro-benchmarks, for comparing
# before/after numbers when touching a layer's hot path. Run from
# anywhere on an otherwise idle machine:
#
#   ./scripts/bench.sh
#
# The end-to-end and per-layer perf ledger is facilbench (bench/run.sh,
# see bench/README.md); the ratio gates (optimized vs reference
# scheduler and sim, estimator vs full scheduler) and the zero-alloc
# gates are ordinary tests in the same packages.
set -eu
cd "$(dirname "$0")/.."

go test ./internal/dram/ -run '^$' -bench 'BenchmarkChannelDrain|BenchmarkReferenceChannelDrain|BenchmarkReplayStream' -benchmem

go test ./internal/serve/ -run '^$' -bench 'BenchmarkSimDrain|BenchmarkReferenceSimDrain' -benchmem

go test ./internal/cluster/ -run '^$' -bench 'BenchmarkClusterRun' -benchmem

go test ./internal/tune/ -run '^$' -bench 'BenchmarkEvaluatorScore|BenchmarkSimScore|BenchmarkSearch' -benchmem
