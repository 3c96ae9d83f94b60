#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against the BENCHMARK.json bounds.

    python3 bench/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py --self-test

PARENT and CHANGE are each a result file or a directory of them (searched
recursively): the JSON files `bench_e2e --out` and `run.py --out-dir`
write.  Only untraced results (trace 0) carry end-to-end metrics; the
others are skipped.  For every workload and end-to-end metric the script
prints each side's median and quartiles and a verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more
              than the distance between the parent's quartiles;
  unresolved  a side's quartile distance, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run; or a side has fewer than 3 runs, so its spread
              is unknown, and the medians differ by more than the bound;
  regressed   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  unchanged   otherwise.

Runs are paired by seed, and in file order where seeds do not match.  A
workload whose change side failed a larger share of its attempts, or
reported incorrect output, is flagged as regressed too.  The exit code is
1 when any verdict is regressed.  Standard library only.
"""
import argparse
import io
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(path):
    """Untraced results under `path`: a list of {workload, seed, result}."""
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in sorted(names) if n.endswith(".json")]
    else:
        files = [path]
    runs = []
    for name in sorted(files):
        with open(name) as f:
            doc = json.load(f)
        if doc.get("trace", 0) == 0 and "result" in doc:
            runs.append({"workload": doc["workload"], "seed": doc.get("seed"),
                         "result": doc["result"]})
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(a_runs, b_runs):
    """(parent, change) result pairs: matching seeds first, then in order."""
    b_by_seed = {}
    for r in b_runs:
        b_by_seed.setdefault(r["seed"], []).append(r)
    out, a_left = [], []
    for r in a_runs:
        match = b_by_seed.get(r["seed"])
        if match:
            out.append((r, match.pop(0)))
        else:
            a_left.append(r)
    b_left = [r for rs in b_by_seed.values() for r in rs]
    out += list(zip(a_left, b_left))
    return out


def verdict(a_vals, b_vals, paired, better, bound):
    """The verdict for one metric; `paired` holds (parent, change) values."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_q1, b_med, b_q3 = quartiles(b_vals)
    wins = sum(1 for a, b in paired if sign * (b - a) > 0)
    if (len(paired) >= 10 and wins >= 0.9 * len(paired)
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return "improved"
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    all_better = min(sign * b for b in b_vals) > max(sign * a for a in a_vals)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    if worse_by > bound:
        return "unresolved" if min(len(a_vals), len(b_vals)) < 3 else "regressed"
    return "unchanged"


def compare(a_runs, b_runs, end_to_end, out=sys.stdout):
    """Prints the comparison table; returns {(workload, metric): verdict}."""
    verdicts = {}
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    print(f"{'workload':18} {'metric':16} {'parent median [q1, q3] (n)':34} "
          f"{'change median [q1, q3] (n)':34} {'change':>8} {'bound':>6}  verdict",
          file=out)
    for w in workloads:
        a = [r for r in a_runs if r["workload"] == w]
        b = [r for r in b_runs if r["workload"] == w]
        paired = pairs(a, b)
        for m in end_to_end:
            name = m["name"]
            a_vals = [r["result"]["metrics"][name]["value"] for r in a]
            b_vals = [r["result"]["metrics"][name]["value"] for r in b]
            pv = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                  for p, c in paired]
            v = verdict(a_vals, b_vals, pv, m["better"], m["bound"])
            verdicts[(w, name)] = v
            a_q1, a_med, a_q3 = quartiles(a_vals)
            b_q1, b_med, b_q3 = quartiles(b_vals)
            change = (b_med - a_med) / abs(a_med) * 100 if a_med else 0.0
            print(f"{w:18} {name:16} "
                  f"{f'{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}] ({len(a_vals)})':34} "
                  f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] ({len(b_vals)})':34} "
                  f"{change:+7.2f}% {m['bound'] * 100:5.1f}%  {v}", file=out)
        a_fail = sum(r["result"]["failed"] for r in a) / sum(r["result"]["attempted"] for r in a)
        b_fail = sum(r["result"]["failed"] for r in b) / sum(r["result"]["attempted"] for r in b)
        b_incorrect = sum(1 for r in b if not r["result"]["correct"])
        v = "regressed" if b_fail > a_fail or b_incorrect else "unchanged"
        verdicts[(w, "failures")] = v
        print(f"{w:18} {'failed/attempted':16} {f'{a_fail:.4f}':34} "
              f"{f'{b_fail:.4f} ({b_incorrect} incorrect)':34} {'':8} {'':6}  {v}", file=out)
    return verdicts


def self_test():
    """Checks every verdict on synthetic result sets."""
    end_to_end = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
                  {"name": "time", "unit": "s", "better": "lower", "bound": 0.10}]

    def runs(rates, times, failed=0, correct=True):
        return [{"workload": "w", "seed": i, "result": {
            "correct": correct, "attempted": 10, "failed": failed if i == 0 else 0,
            "metrics": {"rate": {"value": r, "unit": "1/s"},
                        "time": {"value": t, "unit": "s"}}}}
                for i, (r, t) in enumerate(zip(rates, times))]

    steady = [100 + 0.1 * i for i in range(10)]
    faster = [x * 1.2 for x in steady]
    slower = [x * 0.8 for x in steady]
    noisy = [100 * (1 + (0.3 if i % 2 else -0.3)) for i in range(10)]
    cases = [
        ("same code", runs(steady, steady), runs(steady, steady),
         {"rate": "unchanged", "time": "unchanged", "failures": "unchanged"}),
        ("change 20% better", runs(steady, steady), runs(faster, slower),
         {"rate": "improved", "time": "improved"}),
        ("change 20% worse", runs(steady, steady), runs(slower, faster),
         {"rate": "regressed", "time": "regressed"}),
        ("spread wider than the bound", runs(steady, steady), runs(noisy, noisy),
         {"rate": "unresolved", "time": "unresolved"}),
        ("better but too few pairs", runs(steady[:5], steady[:5]), runs(faster[:5], slower[:5]),
         {"rate": "unchanged", "time": "unchanged"}),
        ("one run a side, 20% worse", runs(steady[:1], steady[:1]), runs(slower[:1], faster[:1]),
         {"rate": "unresolved", "time": "unresolved"}),
        ("change fails a rep", runs(steady, steady), runs(steady, steady, failed=1),
         {"failures": "regressed"}),
        ("change reports incorrect output", runs(steady, steady),
         runs(steady, steady, correct=False), {"failures": "regressed"}),
    ]
    for label, a, b, expected in cases:
        got = compare(a, b, end_to_end, out=io.StringIO())
        for metric, want in expected.items():
            if got[("w", metric)] != want:
                sys.exit(f"self-test FAILED: {label}: {metric} is {got[('w', metric)]}, "
                         f"expected {want}")
    print(f"compare.py self-test passed ({len(cases)} cases)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.parent or not args.change:
        parser.error("give PARENT and CHANGE, or --self-test")
    with open(args.benchmark) as f:
        end_to_end = json.load(f)["end_to_end"]
    verdicts = compare(load_runs(args.parent), load_runs(args.change), end_to_end)
    if not verdicts:
        sys.exit("compare.py: the two sets share no workload with untraced results")
    sys.exit(1 if "regressed" in verdicts.values() else 0)


if __name__ == "__main__":
    main()
