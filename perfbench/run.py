#!/usr/bin/env python3
"""Builds the MioDB benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # every workload, seed 1, run_seconds

The benchmark package (perfbench/Cargo.toml) is built in release mode with
cargo, honouring CARGO_TARGET_DIR. Its last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list. A run
that measured exits 0 and gives its verdict in "correct"; one that could not
run exits non-zero without a result. The result file with the run's metadata
goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload, seed, seconds, trace):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": first_line(["rustc", "-V"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_one(binary, expected, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None)."""
    meta = metadata(workload, seed, seconds, trace)
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", trace,
        "--out", os.path.join(HERE, "out"),
        "--meta", json.dumps(meta),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"{workload}: printed no result (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1, None
    got = list(json.loads(lines[-1])["metrics"])
    if got != expected:
        print(f"{workload}: metrics {got} do not match BENCHMARK.json {expected}", file=sys.stderr)
        return 1, None
    return run.returncode, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all of BENCHMARK.json's")
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = [m["name"] for m in bench["per_layer" if args.trace == "1" else "end_to_end"]]
    seconds = args.seconds or bench["run_seconds"]

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"benchmark build failed (exit {build.returncode})")
    # cargo resolves a relative CARGO_TARGET_DIR against its working directory.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "miodb-perfbench")

    if args.workload != "all":
        code, line = run_one(binary, expected, args.workload, args.seed, seconds, args.trace)
        if line is not None:
            print(line)
        sys.exit(code)

    # Every workload in turn: each prints its metrics by name and unit on
    # stderr; stdout gets one result line per workload. The exit code is
    # non-zero if any workload could not run or any output check failed.
    worst = 0
    for w in bench["workloads"]:
        print(f"== {w['name']}", file=sys.stderr)
        code, line = run_one(binary, expected, w["name"], args.seed, seconds, args.trace)
        if line is None:
            worst = worst or code or 1
            continue
        result = json.loads(line)
        if not result["correct"]:
            worst = worst or 1
        print(json.dumps({"workload": w["name"], **result}))
    sys.exit(worst)


if __name__ == "__main__":
    main()
