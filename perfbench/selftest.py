#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark.

    python3 perfbench/selftest.py            # from the root of a checkout

Checks, in about three minutes on 4 cores:
  1. BENCHMARK.json names only well-formed metrics: every name uses letters,
     digits, '_', '.' and '-' only, and every unit is well formed.
  2. A short smoke run of each workload (those of BENCHMARK.json, and
     chip_top, which the same command runs), untraced and traced, exits 0 with
     correct = true and ok_frac = 1, and prints exactly the metrics
     BENCHMARK.json names for that mode, each with the declared unit. The
     traced run measures the layers the workload exercises and writes its
     Chrome trace.
  3. Negative control: with every expected digest flipped, each workload
     exits nonzero and reports correct = false and ok_frac < 1.
Exits 0 when every check passes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "1"
# Runnable with the same command, but not listed in BENCHMARK.json.
EXTRA_WORKLOADS = ["chip_top"]

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds",
                 SMOKE_SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    names = list(end_to_end) + list(per_layer) + workloads
    check(all(NAME.match(n) for n in names), "every name is well formed")
    check(len(set(names)) == len(names), "every name is used once")
    check(all(UNIT.match(u) for u in list(end_to_end.values()) +
              list(per_layer.values())), "every unit is well formed")

    for w in workloads + EXTRA_WORKLOADS:
        trace_file = (ROOT / ".bench_build" / "perfbench" / "out" /
                      f"trace-{w}-seed7.json")
        trace_file.unlink(missing_ok=True)
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            mode = "traced" if trace else "untraced"
            proc, result = run(w, trace)
            check(proc.returncode == 0 and result is not None and
                  result["correct"], f"{w} {mode} smoke run is correct "
                  f"(exit {proc.returncode})")
            if result is None:
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == declared,
                  f"{w} {mode} prints exactly the declared metrics and units"
                  + ("" if got == declared else
                     f": missing {sorted(set(declared) - set(got))}, extra "
                     f"{sorted(set(got) - set(declared))}"))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{w} {mode}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            if trace == 0:
                check(result["metrics"]["ok_frac"]["value"] == 1.0,
                      f"{w} ok_frac = 1")
            else:
                busy = ["core.optimize_s", "route.negotiated_s"]
                if w == "serve_mix":
                    busy += ["serve.run_p50_s", "serve.pipeline_p50_s"]
                check(all(result["metrics"][n]["value"] > 0 for n in busy),
                      f"{w} traced run measured {', '.join(busy)}")
                check(trace_file.is_file() and
                      json.loads(trace_file.read_text())["traceEvents"],
                      f"{w} traced run wrote {trace_file.name}")

        proc, result = run(w, 0, "--flip-expected")
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and
              result["metrics"]["ok_frac"]["value"] < 1.0,
              f"{w} fails when its expected digests are flipped "
              f"(exit {proc.returncode})")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
