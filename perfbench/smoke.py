"""Smoke run of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on the tiny inputs and checks that
the harness finishes, that outputs pass their reference checks, and that
the last line names exactly the metrics BENCHMARK.json lists, each with its
unit and a finite value.  It also checks that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
the benchmark's own files.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    result = last_json(done.stdout)
    problems = []
    if done.returncode != 0 or result is None:
        return [f"exit {done.returncode}: {done.stderr[-500:]}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"correct {result['correct']} attempted {result['attempted']}")
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name, entry.get("unit")):
            problems.append(f"{name}: unit {entry.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def check_bare(root):
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "jack-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main():
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, expected[trace])
            failures += bool(problems)
            print(f"{workload:12s} trace {trace}: " + ("ok" if not problems else "; ".join(problems)),
                  flush=True)
    problems = check_bare(root)
    failures += bool(problems)
    print("bare directory: " + ("ok" if not problems else "; ".join(problems)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
