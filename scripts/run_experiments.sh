#!/usr/bin/env bash
# Builds everything and regenerates every paper artifact (EXPERIMENTS.md).
# Usage: scripts/run_experiments.sh [build-dir]
#
# Fails loudly (nonzero exit) on the first configure, build, test, or
# benchmark error, and when a benchmark binary is missing — so CI can reuse
# this script as-is.
set -euo pipefail

BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure

shopt -s nullglob
benches=("$BUILD"/bench/bench_*)
# Keep only executable files (the glob can pick up CMake droppings).
runnable=()
for bench in "${benches[@]}"; do
  if [ -f "$bench" ] && [ -x "$bench" ]; then
    runnable+=("$bench")
  fi
done

if [ ${#runnable[@]} -eq 0 ]; then
  echo "error: no benchmark binaries found under $BUILD/bench/ — did the build succeed?" >&2
  exit 1
fi

# Machine-readable results land next to the build as BENCH_<name>.json.
RESULTS="$BUILD/results"
mkdir -p "$RESULTS"

for bench in "${runnable[@]}"; do
  name="$(basename "$bench")"
  echo "==== running $name ===="
  case "$name" in
    bench_micro_waitfree)
      # google-benchmark binary: its flag parser rejects the common --json
      # flag, so use its native JSON reporter instead.
      "$bench" "--benchmark_out=$RESULTS/BENCH_${name#bench_}.json" \
               --benchmark_out_format=json
      ;;
    *)
      "$bench" "--json=$RESULTS/BENCH_${name#bench_}.json"
      ;;
  esac
done

echo "JSON results in $RESULTS/:"
ls "$RESULTS" 2>/dev/null || true
