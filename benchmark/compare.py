#!/usr/bin/env python3
"""Compares two sets of dytisbench runs against the bounds in BENCHMARK.json.

    benchmark/compare.py BASE NEW           # compare two sets of runs
    benchmark/compare.py --validate RUN...  # check runs against the contract
    benchmark/compare.py --self-test

A run file is what benchmark/run.sh prints on stdout (one or more workloads);
BASE and NEW are each a run file or a directory of them.  Take at least five
runs per workload in each set, on the same seeds.

For every workload and end-to-end metric (untraced runs) the report gives
each set's median and quartiles and one verdict:

  ok          the new median is within the metric's bound of the base median
  better      the new median is better by more than the bound
  REGRESSION  the new median is worse by more than the bound
  unresolved  a set's quartile spread exceeds the bound, and not every new
              run reads better than every base run
  missing     a run lacks the metric

Traced runs (--trace 1) are compared the same way on every per-layer metric,
throughput and latency among them; those have no bound, so their verdict is
`info` and never fails the comparison.

Runs of one workload and seed must carry the same input_hash in both sets;
otherwise the comparison is refused (exit 2).  A state_hash that differs for
the same workload and seed is flagged (exit 1): a speed-up that changes the
results is not a speed-up.  Exit 1 also on any REGRESSION, missing metric
or run that is not correct (a failed op or check, or a served-open run whose
every round saturated).
"""

import json
import math
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
MIN_RUNS = 5


def parse_runs(text, source):
    """Splits one run file into per-workload runs."""
    runs = []
    cur = None
    for line in text.splitlines():
        if line.startswith("# dytisbench "):
            parts = line.split()
            seed = next((p[5:] for p in parts if p.startswith("seed=")), "?")
            cur = {"workload": parts[2], "seed": seed,
                   "traced": "traced" in parts[3:], "hashes": {},
                   "result": None, "source": source}
            runs.append(cur)
        elif cur is None or line.startswith("#"):
            continue
        elif line.startswith("{"):
            cur["result"] = json.loads(line)
        else:
            tokens = line.split()
            if len(tokens) >= 3 and tokens[2] == "hash":
                cur["hashes"][tokens[0]] = tokens[1]
    return [r for r in runs if r["result"] is not None]


def load_runs(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if os.path.isfile(os.path.join(path, f)))
    runs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            runs.extend(parse_runs(fh.read(), f))
    return runs


def load_spec(path=BENCHMARK_JSON):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def verdict(base, new, better, bound):
    mb, _, _, sb = spread(base)
    mn, _, _, sn = spread(new)
    worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
    always_better = (max(new) < min(base) if better == "lower"
                     else min(new) > max(base))
    if always_better and -worse > bound:
        return "better"
    if max(sb, sn) > bound:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if -worse > bound:
        return "better"
    return "ok"


def check_hashes(base, new):
    """Returns (refusals, flags) from the input and state hashes."""
    refusals, flags = [], []
    seen = {}
    for label, runs in (("base", base), ("new", new)):
        for r in runs:
            key = (r["workload"], r["seed"])
            for name in ("input_hash", "state_hash"):
                value = r["hashes"].get(name)
                first = seen.setdefault((key, name), (label, value))
                if value == first[1]:
                    continue
                msg = (f"{key[0]} seed {key[1]}: {name} {first[1]} "
                       f"({first[0]}) vs {value} ({label})")
                (refusals if name == "input_hash" else flags).append(msg)
    return refusals, flags


def compare(base, new, spec):
    """Returns (report lines, exit code)."""
    lines = []
    refusals, flags = check_hashes(base, new)
    if refusals:
        return (["refused: input hashes differ, so the runs measured "
                 "different inputs:"] + ["  " + m for m in refusals], 2)
    code = 0
    for msg in flags:
        lines.append("STATE CHANGED " + msg)
        code = 1
    for r in base + new:
        if r["result"]["correct"] is not True:
            lines.append(f"INCORRECT {r['source']}: {r['workload']} seed "
                         f"{r['seed']} failed {r['result']['failed']} ops "
                         "or a check")
            code = 1
    header = (f"{'workload':15s} {'metric':34s} {'base median [q1, q3]':>34s}"
              f" {'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}"
              "  verdict")
    lines.append(header)
    # Untraced runs carry the end-to-end metrics, gated by their bounds;
    # traced runs the per-layer ones, which have no bound and are reported
    # for information only.
    for traced, metrics in ((False, spec["end_to_end"]),
                            (True, spec.get("per_layer", []))):
        workloads = sorted({r["workload"] for r in base + new
                            if r["traced"] == traced})
        for w in workloads:
            b_runs = [r for r in base
                      if r["workload"] == w and r["traced"] == traced]
            n_runs = [r for r in new
                      if r["workload"] == w and r["traced"] == traced]
            if len(b_runs) < MIN_RUNS or len(n_runs) < MIN_RUNS:
                lines.append(f"{w}: only {len(b_runs)} base / {len(n_runs)} "
                             f"new {'traced ' if traced else ''}runs; take at "
                             f"least {MIN_RUNS} of each")
            for m in metrics:
                code = max(code, compare_metric(w, m, b_runs, n_runs, lines))
    return lines, code


def compare_metric(workload, m, b_runs, n_runs, lines):
    """Appends one metric's row; returns 1 if it regressed or is missing."""
    name = m["name"]
    bv = [r["result"]["metrics"][name]["value"] for r in b_runs
          if name in r["result"]["metrics"]]
    nv = [r["result"]["metrics"][name]["value"] for r in n_runs
          if name in r["result"]["metrics"]]
    if not bv or not nv or len(bv) < len(b_runs) or len(nv) < len(n_runs):
        lines.append(f"{workload:15s} {name:34s} missing")
        return 1
    mb, b1, b3, _ = spread(bv)
    mn, n1, n3, _ = spread(nv)
    bound = m.get("bound")
    v = verdict(bv, nv, m["better"], bound) if bound is not None else "info"
    change = (mn - mb) / mb if mb else (0.0 if mn == mb else math.inf)
    bound_text = f"{bound:6.0%}" if bound is not None else f"{'-':>6s}"
    lines.append(
        f"{workload:15s} {name:34s} {mb:12.5g} [{b1:9.5g}, {b3:9.5g}]"
        f" {mn:12.5g} [{n1:9.5g}, {n3:9.5g}] {change:+8.2%}"
        f" {bound_text}  {v}")
    return 1 if v == "REGRESSION" else 0


def validate(runs, spec):
    """Checks each run against the output contract; returns problems."""
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if not runs:
        problems.append("no runs found")
    for r in runs:
        where = f"{r['source']}: {r['workload']} seed {r['seed']}"
        res = r["result"]
        want = layer if r["traced"] else e2e
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(res)}")
            continue
        if res["correct"] is not True or res["failed"] != 0 or \
                res["attempted"] < 1:
            problems.append(f"{where}: not correct ({res['failed']} failed)")
        got = res["metrics"]
        if set(got) != set(want):
            problems.append(f"{where}: metric set differs: missing "
                            f"{sorted(set(want) - set(got))}, extra "
                            f"{sorted(set(got) - set(want))}")
        for name, m in got.items():
            if name in want and m["unit"] != want[name]:
                problems.append(f"{where}: {name} unit {m['unit']}")
            if not isinstance(m["value"], (int, float)) or \
                    not math.isfinite(m["value"]):
                problems.append(f"{where}: {name} is not a finite number")
            elif not r["traced"] and m["value"] <= 0:
                problems.append(f"{where}: {name} is {m['value']}")
        for name in ("input_hash", "state_hash"):
            if name not in r["hashes"]:
                problems.append(f"{where}: no {name}")
    return problems


def self_test():
    spec = {"end_to_end": [
        {"name": "throughput_mops", "unit": "Mop/s", "better": "higher",
         "bound": 0.1},
        {"name": "get_p50_us", "unit": "us", "better": "lower",
         "bound": 0.1}]}

    def run(seed, tput, p50, input_hash="0x1", state_hash="0x2",
            drop=None):
        metrics = {"throughput_mops": (tput, "Mop/s"),
                   "get_p50_us": (p50, "us")}
        metrics.pop(drop, None)
        text = "\n".join(
            [f"# dytisbench demo seed={seed} seconds=10.000000"]
            + [f"{n} {v} {u}" for n, (v, u) in metrics.items()]
            + [f"input_hash {input_hash} hash",
               f"state_hash {state_hash} hash",
               json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {n: {"value": v, "unit": u}
                                       for n, (v, u) in metrics.items()}})])
        return parse_runs(text, f"seed{seed}")[0]

    def runs(scale=1.0, **kw):
        return [run(s, 10.0 * scale * (1 + 0.002 * s), 2.0 + 0.001 * s, **kw)
                for s in range(1, 6)]

    failures = []

    def expect(name, cond):
        print(f"self-test {name}: {'pass' if cond else 'FAIL'}")
        if not cond:
            failures.append(name)

    lines, code = compare(runs(), runs(), spec)
    expect("identical sets agree",
           code == 0 and all(l.endswith("ok") for l in lines[1:]))
    lines, code = compare(runs(), runs(scale=0.7), spec)
    expect("regression is flagged",
           code == 1 and any("throughput_mops" in l and
                             l.endswith("REGRESSION") for l in lines))
    lines, code = compare(runs(), runs(input_hash="0x9"), spec)
    expect("mismatched input_hash is refused",
           code == 2 and lines[0].startswith("refused"))
    lines, code = compare(runs(), runs(drop="get_p50_us"), spec)
    expect("missing metric is flagged",
           code == 1 and any(l.endswith("missing") for l in lines))
    lines, code = compare(runs(), runs(state_hash="0x3"), spec)
    expect("state change is flagged",
           code == 1 and any(l.startswith("STATE CHANGED") for l in lines))
    noisy = [run(s, 10.0 * (1 + 0.3 * (s % 2)), 2.0) for s in range(1, 6)]
    lines, code = compare(noisy, runs(), spec)
    expect("wide spread is unresolved",
           any("throughput_mops" in l and l.endswith("unresolved")
               for l in lines))
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) >= 3 and argv[1] == "--validate":
        runs = [r for path in argv[2:] for r in load_runs(path)]
        problems = validate(runs, load_spec())
        for p in problems:
            print(p)
        print(f"validated {len(runs)} runs: "
              f"{'ok' if not problems else f'{len(problems)} problems'}")
        return 1 if problems else 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    lines, code = compare(load_runs(argv[1]), load_runs(argv[2]),
                          load_spec())
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
