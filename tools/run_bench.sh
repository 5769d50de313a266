#!/usr/bin/env sh
# Runs the Domino perf benchmarks and records the results as JSON.
#
#   tools/run_bench.sh [build_dir] [output_json]
#
# Defaults: build_dir = build, output = BENCH_domino.json at the repo root.
# Pass extra filters through BENCH_ARGS, e.g.
#   BENCH_ARGS='--benchmark_filter=BM_FullAnalysis' tools/run_bench.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out=${2:-"$repo_root/BENCH_domino.json"}
bench="$build_dir/bench/perf_domino"

if [ ! -x "$bench" ]; then
  echo "error: $bench not found or not executable." >&2
  echo "Build it first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# Stage through a temp file and publish atomically: a benchmark run that
# crashes or is interrupted midway must never replace (or half-overwrite)
# the committed BENCH_domino.json with a partial result.
tmp=$(mktemp "$out.XXXXXX")
trap 'rm -f "$tmp"' EXIT

# Record the machine with the numbers: thread-scaling and wall-clock rows
# mean little without the core count and the build type.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build_dir/CMakeCache.txt")
build_type=${build_type:-RelWithDebInfo}  # CMakeLists.txt's default.

# shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split.
if ! "$bench" \
  --benchmark_context="nproc=$(nproc),build_type=$build_type" \
  --benchmark_format=json \
  --benchmark_out="$tmp" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}; then
  echo "error: benchmark run failed; $out left untouched." >&2
  exit 1
fi

# A truncated or malformed report is as useless as a missing one.
if ! python3 -m json.tool "$tmp" > /dev/null 2>&1; then
  echo "error: benchmark output is not valid JSON; $out left untouched." >&2
  exit 1
fi

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out"
