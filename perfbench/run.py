#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the root). Its last stdout
line is the result; this script checks that the line names exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1) and exits nonzero, printing no result, if the
build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    names = set(result["metrics"])
    want = expected_metrics(trace)
    if names != want:
        fail(f"metrics missing {sorted(want - names)}, unexpected {sorted(names - want)}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            fail(f"metric {name} has no numeric value")


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("--trace 0|1 is required")
    trace = args[args.index("--trace") + 1] == "1"

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")

    binary = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    check_result(lines[-1], trace)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
