#!/usr/bin/env python3
"""Builds the pipeline benchmark from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload pao_generic --seed 7 --seconds 45 --trace 0

Run it from the root of a checkout. The build (Release, CMake) goes to
.bench_build/perfbench; build output goes to standard error. Standard output
is the benchmark's log, ending in one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit status is the benchmark's: 0 when every output is correct, nonzero
on a correctness mismatch, a failed build or missing sources (then no JSON
line is printed).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("chip_top", "pao_generic", "serve_mix")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# A run must end within 180 s; the program gets what the build left of it.
RUN_DEADLINE_S = 175.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                  "--target", "pipeline_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode != 0:
            fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    return BUILD_DIR / "pipeline_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--flip-expected", action="store_true",
                    help="negative control: flip every expected digest, so a "
                         "correct program must fail")
    args = ap.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; run from a full checkout")
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = BUILD_DIR / "tmp"
    out_dir = BUILD_DIR / "out"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    exe = build(env)
    # Relative paths keep the service socket path short (AF_UNIX limit).
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(out_dir, ROOT)]
    if args.flip_expected:
        cmd.append("--flip-expected")
    budget = max(10.0, RUN_DEADLINE_S - (time.monotonic() - started))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=env)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {budget:.0f} s", 3)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        fail(f"no result line (exit {proc.returncode})", 4)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result.get("correct"):
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
