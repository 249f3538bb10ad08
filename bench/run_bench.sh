#!/usr/bin/env bash
# run_bench.sh — build the bench targets and emit the perf-trajectory
# artifacts.
#
#   bench/run_bench.sh [kernels.json] [batch.json] [service.json]
#
# Writes BENCH_kernels.json (single-thread GFLOP/s of gemm, trsm, and the
# blocked panel factorization at BOTH precisions, plus GB/s of the fused
# row swaps, at the paper's tile sizes for every dispatched micro-kernel
# variant, and the gesv_mixed speed-vs-accuracy sweep as a top-level
# "mixed_precision" section), BENCH_batch.json (batched
# factorize+solve jobs/s with session reuse on/off — the solver-service
# amortization), and BENCH_service.json (async sched::Service: per-class
# latency percentiles under open-loop Poisson load, idle CPU, and
# cold-dispatch latency) at the repo root.  Later PRs compare their
# numbers against the committed trajectory of these files.
#
# After emitting, each artifact's key SHAPE is diffed against the
# committed baseline (bench/check_json_shape.py): a bench refactor that
# silently drops a section fails here instead of producing a trajectory
# hole discovered months later.
#
# Environment:
#   BUILD_DIR     build directory (default: build)
#   CALU_KERNEL   force one kernel variant; the --json sweep then covers
#                 only that variant (CI's generic smoke run relies on this)
#   BATCH_THREADS team size for the batch bench (default 4; oversubscribe
#                 deliberately — the spawn cost is what it measures)
#   CALU_BENCH_REPS  best-of reps for batch/mixed benches (default 3)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
out="${1:-$repo/BENCH_kernels.json}"
batch_out="${2:-$repo/BENCH_batch.json}"
service_out="${3:-$repo/BENCH_service.json}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release -DCALU_BUILD_BENCH=ON
cmake --build "$build" -j"$(nproc)" --target kernels_microbench \
  batch_throughput mixed_precision service_throughput

"$build/kernels_microbench" --json="$out"

# gesv_mixed speed-vs-accuracy sweep, spliced into the kernels artifact as
# its "mixed_precision" section (one committed file carries the whole
# kernel-layer trajectory).
mixed_tmp="$build/BENCH_mixed.json"
CALU_BENCH_REPS="${CALU_BENCH_REPS:-3}" "$build/mixed_precision" \
  --json="$mixed_tmp"
python3 - "$out" "$mixed_tmp" <<'EOF'
import json, sys
kernels_path, mixed_path = sys.argv[1], sys.argv[2]
with open(kernels_path) as fh:
    kernels = json.load(fh)
with open(mixed_path) as fh:
    kernels["mixed_precision"] = json.load(fh)
with open(kernels_path, "w") as fh:
    json.dump(kernels, fh, indent=1)
    fh.write("\n")
EOF

CALU_BENCH_REPS="${CALU_BENCH_REPS:-3}" "$build/batch_throughput" \
  --threads="${BATCH_THREADS:-4}" --json="$batch_out"

CALU_BENCH_REPS="${CALU_BENCH_REPS:-3}" "$build/service_throughput" \
  --threads="${BATCH_THREADS:-4}" --json="$service_out"

# Shape check against the committed baselines (key presence per section).
# Skipped for artifacts that are not in git yet (first emission).
check_shape() {
  local committed="$1" fresh="$2"
  local rel="${committed#"$repo"/}"
  if git -C "$repo" cat-file -e "HEAD:$rel" 2>/dev/null; then
    git -C "$repo" show "HEAD:$rel" > "$build/baseline_$(basename "$rel")"
    python3 "$repo/bench/check_json_shape.py" \
      "$build/baseline_$(basename "$rel")" "$fresh"
  else
    echo "shape check skipped: $rel not committed yet"
  fi
}
check_shape "$out" "$out"
check_shape "$batch_out" "$batch_out"
check_shape "$service_out" "$service_out"
