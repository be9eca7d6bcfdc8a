#!/usr/bin/env bash
# The benchmark's own check: builds build-benchmark/, runs all five
# workloads at ~1/50 scale with every correctness check on (untraced, then
# traced), validates both outputs and the Chrome traces against the
# contract, and runs compare.py's self-test.  Takes well under a minute
# once built.
set -euo pipefail
cd "$(dirname "$0")/.."

out=build-benchmark/selftest
mkdir -p "$out"
bash benchmark/run.sh --seed 1 --smoke > "$out/smoke.txt"
bash benchmark/run.sh --seed 1 --smoke --traced > "$out/traced.txt"
python3 benchmark/compare.py --validate "$out/smoke.txt" "$out/traced.txt"
for trace in build-benchmark/traces/*-seed1.trace.json; do
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))["traceEvents"]' \
    "$trace"
done
python3 benchmark/compare.py --self-test
echo "selftest: ok"
