#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

Run from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 bench/e2e/run.py --seed S --seconds N --out-dir DIR

The first form measures one workload; the last line of its standard output
is the JSON result.  The second runs every workload in both modes, each in
a fresh process (so peak RSS is per workload), and writes one result file
per run into DIR.

The build goes to $CARGO_TARGET_DIR/e2e, or .bench_build/e2e when the
variable is unset, and so do the temporary files of a run.  Standard library
only.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]


def call(cmd, **kwargs):
    """Runs cmd to completion; kills it if this process is interrupted."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_root):
    build_dir = os.path.join(build_root, "e2e")
    if call(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr) != 0:
        sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs],
            stdout=sys.stderr) != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "bench_e2e")


def bench_args(binary, build_root, workload, args, trace):
    return [binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--tmp-dir", build_root,
            "--trace-out", os.path.join(build_root, f"trace_{workload}.tsv")]


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", help="run every workload, writing results here")
    args = parser.parse_args()
    if (args.workload is None) == (args.out_dir is None):
        parser.error("give exactly one of --workload and --out-dir")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)

    if args.workload:
        sys.stdout.flush()
        sys.exit(call(bench_args(binary, build_root, args.workload, args, args.trace)))

    os.makedirs(args.out_dir, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = os.path.join(args.out_dir, f"{workload}.trace{trace}.json")
            cmd = bench_args(binary, build_root, workload, args, trace) + ["--out", out]
            if call(cmd, stdout=sys.stderr) != 0:
                sys.exit(f"run.py: {workload} (trace {trace}) failed")
            with open(out) as f:
                result = json.load(f)["result"]
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
