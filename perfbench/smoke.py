#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Runs every workload named in BENCHMARK.json at a tiny op count, untraced
and traced, and checks that each run exits 0 and ends with the JSON result
line carrying exactly the metrics BENCHMARK.json names, with their units,
`correct: true` and `failed: 0`.

Usage, from the repository root:

    python3 perfbench/smoke.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = "40"


def run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--max-ops", OPS]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        return [f"exit {out.returncode}: {out.stderr.strip()[-500:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec}
    got = result.get("metrics", {})
    for name in sorted(set(wanted) | set(got)):
        if name not in got:
            problems.append(f"missing metric {name}")
        elif name not in wanted:
            problems.append(f"unlisted metric {name}")
        elif got[name].get("unit") != wanted[name]:
            problems.append(f"{name}: unit {got[name].get('unit')}, listed {wanted[name]}")
        elif not isinstance(got[name].get("value"), (int, float)) or not math.isfinite(got[name]["value"]):
            problems.append(f"{name}: value {got[name].get('value')}")
    if problems:
        problems.append("output tail:\n" + "\n".join(lines[-12:-1]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = run(workload["name"], trace, bench[key])
            status = "ok" if not problems else "FAIL"
            print(f"{workload['name']:<18} trace={trace} {status}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
