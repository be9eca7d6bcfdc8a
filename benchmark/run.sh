#!/usr/bin/env bash
# Builds the benchmark program, dytisbench, into build-benchmark/ and runs it.
#
#   benchmark/run.sh --seed N [--workload W] [--seconds S] [--trace 0|1]
#                    [--traced] [--smoke]
#
# Without --workload every workload runs in turn.  Build output goes to
# stderr; stdout carries only the report: `name value unit` lines, the
# input/state hashes and, last for each workload, one JSON line.  The exit
# status is nonzero when the build or any correctness check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

build=build-benchmark
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 4)"
cmake --build "$build" --target dytisbench -j "$jobs" >&2
exec "$build/dytisbench" --work-dir "$build" "$@"
