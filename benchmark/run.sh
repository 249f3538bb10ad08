#!/usr/bin/env bash
# run.sh — build and run the end-to-end benchmark (benchmark/README.md).
#
#   benchmark/run.sh --seed=S
#       Full pass: every workload untraced and then traced; prints every
#       metric with its unit, the tracing overhead and the breakdown
#       check.  Results go to .bench_build/results/pass-sS/.  Exits
#       non-zero when any request failed.
#   benchmark/run.sh --workload W --seed S [--seconds T] [--trace 0|1]
#       One run of one workload; the last line of stdout is its JSON
#       result.
#
# Builds into .bench_build/ (Release) at the repository root and writes
# result files and traces under .bench_build/results/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=.bench_build
results=$build/results

cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target calu_bench -j 4 >&2
mkdir -p "$results"
rev=unknown
if [ -e .git ]; then
  rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

case " $* " in
  *" --workload"*)
    exec "$build/calu_bench" --out "$results" --rev "$rev" "$@" ;;
esac

seed=1
for arg in "$@"; do
  case $arg in
    --seed=*) seed=${arg#--seed=} ;;
    *) echo "usage: $0 --seed=S | --workload W --seed S [--seconds T] [--trace 0|1]" >&2
       exit 2 ;;
  esac
done

dir=$results/pass-s$seed
rm -rf "$dir"
mkdir -p "$dir"
status=0
# Each traced run follows its untraced twin, so host drift between the
# two stays small in the tracing-overhead figure.
for w in large_solve small_batch service_mix mixed_solve; do
  for trace in 0 1; do
    # The traced run only needs enough requests for per-layer medians.
    seconds=()
    if [ "$trace" = 1 ]; then seconds=(--seconds 5); fi
    echo "== $w (trace $trace)"
    "$build/calu_bench" --workload "$w" --seed "$seed" --trace "$trace" \
      --out "$dir" --rev "$rev" ${seconds[@]+"${seconds[@]}"} | sed '$d' ||
      status=1
  done
done
python3 benchmark/compare.py --pass "$dir" || status=1
exit $status
