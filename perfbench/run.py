#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_retune --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench` (the llama library plus the
perfbench program, Release) under $CARGO_TARGET_DIR or `.bench_build`; later
runs only re-check the build. Build output goes to stderr. The program's
stdout is passed through: a detail record, then, as the last line, the
result object with every end-to-end metric (--trace 0) or every per-layer
metric (--trace 1). Before printing, the result is checked against
BENCHMARK.json: the same metric names with the same units, or the run fails.

`--selftest` builds and runs the benchmark's own tests instead.
Exit status is non-zero, with no result printed, when the source tree is
missing, the build fails, the program fails or the result does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_retune", "city_eval", "serve_churn", "track_faults")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "scenarios.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no llama source tree here ({needed} is missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def validate(line, traced):
    """The result object must carry exactly BENCHMARK.json's metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = expected_metrics(traced)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build("perfbench_tests")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = os.path.join(build("perfbench"), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited with status {run.returncode}")
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{args.workload} printed no result")
    validate(lines[-1], args.trace == 1)
    print(f"perfbench: {args.workload} ran in {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
