"""Benchmark for jackb2: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Workloads (see perfbench/README.md for why each exists):

* ``verify-all``  -- ``jackb2 verify all --seed <seed>`` in a child process;
* ``bessel-scan`` -- fresh multiplicities, each evaluated by the series, the
  double integral (order resolved cold) and the single integral;
* ``jack-exact``  -- ``jack_p(lam, k, n)`` for fresh triples.

Inputs come from ``--seed`` and are passed to the program; outputs are
checked against references outside the timed region.  Each pass runs in a
fresh child with BLAS/OpenMP threads capped at 1 and a fixed
PYTHONHASHSEED, on the one core the run pins itself to.  A run makes at
least two passes, and more while the next one is predicted to finish
inside ``--seconds``; every pass must give the same outputs.  Times are
reported at reference core speed (see ``speed.py``); the raw times are in
the record.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` an untraced and a traced pass give the per-layer metrics and
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment and every pass, goes to ``perfbench/out/``.  The exit
code is 0 when every output matched its reference or missed it only by the
documented degree-30 series truncation, 1 otherwise, and 2 when the
checkout has no jackb2 sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
CHILD_TIMEOUT_S = 170.0
SETUP_SAMPLES = 5

E2E_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "min_digits": "digits",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class Child:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, cmd, root, env, stdin_text=""):
        self.start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(stdin_text)
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child exited early; its exit code says why
            self.stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.end = time.perf_counter()
        self.wall_s = self.end - self.start
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cmd = cmd

    def json(self):
        if self.code != 0:
            raise RuntimeError(f"{' '.join(map(str, self.cmd))} exited with {self.code}")
        return json.loads(self.stdout)


def child_env(root):
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def environment(root, cpu):
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu,
            "python": platform.python_version(), **versions, "commit": commit}


def tail(samples):
    """Highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(root, env):
    """Fresh interpreters that only `import jackb2`: (wall, start, end) each."""
    cmd = [sys.executable, "-c", "import jackb2"]
    Child(cmd, root, env)  # compiles bytecode and warms the file cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = Child(cmd, root, env)
        if child.code != 0:
            raise RuntimeError("import jackb2 failed")
        samples.append((child.wall_s, child.start, child.end))
    return samples


def make_inputs(workload, seed, size):
    if workload == "bessel-scan":
        return workloads.make_bessel_ops(seed, size)
    if workload == "jack-exact":
        return workloads.make_jack_ops(seed, size)
    return [workloads.make_verify_argv(seed, size)]


def worker_pass(workload, inputs, root, env, spans_path=None):
    cmd = [sys.executable, str(WORKER), "run", workload]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    child = Child(cmd, root, env, json.dumps(inputs))
    doc = child.json()
    loop_start = doc["loop_start_s"]
    return {"wall_s": doc["loop_s"], "window": (loop_start, loop_start + doc["loop_s"]),
            "ops": list(zip(doc["op_start_s"], doc["latency_s"])),
            "child_s": child.wall_s, "rss_mb": child.rss_mb,
            "outputs": doc["outputs"], "trace": doc.get("trace")}


def cli_pass(argv, root, env):
    """`jackb2 verify all` as a user runs it: the whole child process."""
    child = Child([sys.executable, "-m", "jackb2.cli", *argv], root, env)
    if child.code not in (0, 1):
        raise RuntimeError(f"jackb2 {' '.join(argv)} exited with {child.code}")
    return {"wall_s": child.wall_s, "window": (child.start, child.end),
            "ops": [(child.start, child.wall_s)],
            "child_s": child.wall_s, "rss_mb": child.rss_mb,
            "outputs": [{"code": child.code, "stdout": child.stdout}]}


def check(workload, inputs, outputs, root, env):
    if workload == "verify-all":
        out = outputs[0]
        return workloads.check_verify(out["stdout"], out["code"])
    if workload == "jack-exact":
        return workloads.check_jack(inputs, outputs)
    payload = json.dumps({"ops": inputs, "outputs": outputs})
    refs = Child([sys.executable, str(WORKER), "reference", workload],
                 root, env, payload).json()
    return workloads.check_bessel(inputs, outputs, refs)


def run_workload(workload, seed, seconds, trace, size, root, cpu):
    env = child_env(root)
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "env": environment(root, cpu),
              "loadavg_before": os.getloadavg()}
    inputs = make_inputs(workload, seed, size)
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        if trace:
            spans_path = OUT / f"spans-{workload}-seed{seed}.txt.gz"
            passes = [worker_pass(workload, inputs, root, env),
                      worker_pass(workload, inputs, root, env, spans_path)]
        else:
            setup = measure_setup(root, env)
            passes = []
            while True:
                if workload == "verify-all":
                    passes.append(cli_pass(inputs[0], root, env))
                else:
                    passes.append(worker_pass(workload, inputs, root, env))
                # At least two passes, so that every run checks that
                # repeated passes give identical outputs.
                elapsed = time.perf_counter() - start
                if len(passes) >= 2 and elapsed + passes[-1]["child_s"] > seconds:
                    break
        record["run_s"] = time.perf_counter() - start
        outputs = passes[0]["outputs"]
        attempted, failed, explained, worst, notes = check(
            workload, inputs, outputs, root, env)
    if any(p["outputs"] != outputs for p in passes[1:]):
        notes.append("outputs differ between passes of the same inputs")
    correct = failed == explained and not notes

    walls = [probe.corrected(p["wall_s"], *p["window"]) for p in passes]
    record["passes"] = [
        {"wall_s": wall, "raw_wall_s": p["wall_s"], "rss_mb": p["rss_mb"],
         "slowdown": probe.slowdown(*p["window"]), "window": p["window"],
         "raw_ops": p["ops"]}
        for wall, p in zip(walls, passes)]
    record["speed_samples"] = list(zip(probe.times, probe.kernel_s))
    if trace:
        # Self times are sums over the traced pass, so they are corrected
        # by that pass's slowdown like its wall time.
        raw = passes[1]["trace"]["metrics"]
        slowdown = probe.slowdown(*passes[1]["window"])
        metrics = {name: value / slowdown if name.endswith(".self_s") else value
                   for name, value in raw.items()}
        metrics["trace.overhead_ratio"] = walls[1] / walls[0]
        record.update(raw_self_s={name: value for name, value in raw.items()
                                  if name.endswith(".self_s")},
                      raw_root_s=passes[1]["trace"]["root_s"],
                      root_s=passes[1]["trace"]["root_s"] / slowdown,
                      absent=passes[1]["trace"]["absent"],
                      spans=passes[1]["trace"]["spans"],
                      spans_path=str(spans_path.relative_to(HERE.parent)))
    else:
        ops = attempted if workload == "verify-all" else len(inputs)
        # Latency statistics are taken per pass, then the median over passes,
        # so they do not depend on how many passes fit in the run.
        latency = [[probe.corrected(t, s, s + t) for s, t in p["ops"]] for p in passes]
        tails = [tail(per_pass) for per_pass in latency]
        setup_s = [probe.corrected(*sample) for sample in setup]
        metrics = {
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(ops / w for w in walls),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(v) for v in latency),
            "op_tail_ms": 1e3 * statistics.median(t for t, _ in tails),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "pass_ratio": 1.0 - failed / attempted,
            "min_digits": workloads.digits(worst),
        }
        record.update(
            latency_samples_per_pass=len(latency[0]), tail_percentile=tails[0][1],
            setup_s=setup_s, raw_setup_s=[sample[0] for sample in setup],
            raw_op_p50_ms=1e3 * statistics.median(t for p in passes for _, t in p["ops"]))

    record.update(
        loadavg_after=os.getloadavg(),
        attempted=attempted, failed=failed, explained_by_truncation=explained,
        worst_rel_err=worst, notes=notes, correct=correct,
        fail_ratio=failed / attempted,
    )
    units = E2E_UNITS if not trace else {name: layer_unit(name) for name in metrics}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record["result"] = result
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-run inputs")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "jackb2" / "__init__.py").is_file():
        print(f"error: no jackb2 sources under {root / 'src'}; "
              "run from the root of a jackb2 checkout", file=sys.stderr)
        return 2

    cpu = speed.pin_to_one_core()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.size, root, cpu)
        results[name] = result
        print(json.dumps({"record": f"perfbench/out/{name}-seed{args.seed}"
                                    f"-trace{args.trace}.json",
                          "env": record["env"],
                          "loadavg": [record["loadavg_before"], record["loadavg_after"]],
                          "fail_ratio": record["fail_ratio"],
                          "explained_by_truncation": record["explained_by_truncation"],
                          "notes": record["notes"][:5]}))
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:48s} {entry['value']:.6g} {entry['unit']}")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
