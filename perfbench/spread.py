"""Run one workload untraced over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload verify-all --seeds 1-10 [--out FILE]

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4), the quartile distance as a share of the median, and the bound
from BENCHMARK.json.  This is the check a baseline or a before/after
comparison needs: a spread below the bound means the metric can resolve a
change of that size.  With ``--out`` the values and the summary are written
as JSON, the form the committed baseline under ``perfbench/baseline`` has.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, runs = {}, []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": done.returncode, **result})
        print(f"seed {seed}: exit {done.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    summary = {name: summarize(vals) for name, vals in values.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else f"bound {bound:<5} " + (
            "ok" if s["spread"] < bound / 3 else "WIDE" if s["spread"] >= bound else "near")
        print(f"{name:48s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "run_seconds": bench["run_seconds"], "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] and r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
