#!/usr/bin/env python3
"""freewick benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload partitions --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass is a fresh single-threaded
Python process (perfbench/worker.py) that imports ``freewick`` from
``src/``; passes run one after another, so the loop is closed with one
caller.  Passes repeat while the next one is expected to finish inside
``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics.  The times are CPU times
(user plus system) of the single-threaded pass process: on a shared
virtual machine, time the CPU is lent to other guests shows in wall time
but not in CPU time.  ``cpu_ref`` puts them in units of a reference
kernel timed in the same process (see ``task_sum`` and reference.py);
set-up time and memory are medians over the processes.  Raw CPU and wall
times are printed beside them, unbounded.
``--trace 1`` runs untraced and traced passes in pairs and reports the
per-layer metrics of the traced ones, with the tracing overhead.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (checks, summed over passes) and ``metrics``.  The lines before
it give the run record and every metric by name and unit, ``fail_ratio``
among them.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BENCHMARK.json declares the workloads and every metric with its unit
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {
    section: {m["name"]: m["unit"] for m in SPEC[section]}
    for section in ("end_to_end", "per_layer")
}

SETUP_PROBES = 5     # set-up only processes per run, after one warm-up
HARD_LIMIT_S = 170   # a run must end within 180 s; no process outlives this
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """Starts worker processes for one workload and keeps their results."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.t0 = time.monotonic()
        self.planned = 1  # until a worker reports its plan
        self.attempted = self.failed = 0
        self.env: dict = {}
        self.worker_env = {**os.environ, **WORKER_ENV}
        self.worker_cmd = [sys.executable, str(HERE / "worker.py")]

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.t0)

    def worker(self, mode: str) -> dict | None:
        """One fresh process; returns its result, or None if it died."""
        cmd = [*self.worker_cmd, self.workload, str(self.seed), self.scale, mode]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.worker_env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out = ""
        except BaseException:  # interrupted: leave no worker behind
            proc.kill()
            proc.wait()
            raise
        result = None
        if proc.returncode == 0 and out.strip():
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except json.JSONDecodeError:
                result = None
        if result is None:
            print(f"{mode} process died (exit {proc.returncode})", file=sys.stderr)
            if mode != "setup":
                # a dead pass fails every check it planned
                self.attempted += self.planned
                self.failed += self.planned
            return None
        self.planned = result["planned"]
        self.env = result["env"]
        result["setup_wall_s"] = result["ready"] - spawned
        if mode != "setup":
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            for line in result["failures"]:
                print(f"FAILED {line}", file=sys.stderr)
        return result

    def repeat(self, seconds: float, step) -> list:
        """Call ``step`` until the next call is expected to overrun ``seconds``."""
        start = time.monotonic()
        results, durations = [], []
        while True:
            t = time.monotonic()
            results.append(step())
            durations.append(time.monotonic() - t)
            elapsed = time.monotonic() - start
            expected = statistics.median(durations)
            if elapsed + expected > seconds or expected > self.remaining():
                return results


def task_sum(passes: list[dict]) -> float:
    """The checks' CPU time in units of the reference kernel's.

    In each pass every task's CPU time is divided by the median time of
    the reference kernel in that pass; the sum over the tasks of each
    task's median over the passes is returned.  The division cancels the
    slow spells that come and go over minutes, and the median over passes
    the short ones that catch a task in one pass only.
    """
    names = passes[0]["task_cpu_s"]
    ref = [statistics.median(r["ref_cpu_s"]) for r in passes]
    return sum(
        statistics.median(r["task_cpu_s"][name] / s for r, s in zip(passes, ref) if name in r["task_cpu_s"])
        for name in names
    )


def end_to_end(run: Run, seconds: float) -> dict[str, float] | None:
    run.worker("setup")  # warm-up: bytecode and file caches, not measured
    setups = [r for r in (run.worker("setup") for _ in range(SETUP_PROBES)) if r]
    passes = [r for r in run.repeat(seconds, lambda: run.worker("pass")) if r]
    if not passes:
        return None
    print(f"# {len(passes)} passes, {len(setups)} set-up probes", file=sys.stderr)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"passes-{run.workload}.json").write_text(json.dumps(passes))
    return {
        "cpu_ref": task_sum(passes),
        # printed beside it, not bounded
        "cpu_s": statistics.median(r["cpu_s"] for r in passes),
        "ref_s": statistics.median(t for r in passes for t in r["ref_cpu_s"]),
        "setup_s": statistics.median(r["setup_cpu_s"] for r in setups + passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups + passes),
    }


def per_layer(run: Run, seconds: float) -> dict[str, float] | None:
    pairs = run.repeat(seconds, lambda: (run.worker("pass"), run.worker("trace")))
    plain = [p for p, _ in pairs if p]
    traced = [t for _, t in pairs if t]
    if not plain or not traced:
        return None
    metrics = {
        name: statistics.median(t["trace"][name] for t in traced)
        for name in traced[0]["trace"]
    }
    metrics["checks.run"] = traced[0]["attempted"]
    metrics["checks.worst_residual_ratio"] = max(t["worst_residual_ratio"] for t in traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["cpu_s"] for t in traced) / statistics.median(p["cpu_s"] for p in plain)
    )
    return metrics


def l3_size() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            break
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--commit", default="unknown", help="commit hash, for the run record")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' only smoke-tests the harness")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "freewick" / "__init__.py").is_file():
        print(f"error: no freewick sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.scale)
    metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    if metrics is None:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    units = UNITS["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "commit": args.commit,
        **run.env,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": WORKER_ENV["OPENBLAS_NUM_THREADS"],
        "l3_cache": l3_size(),
    }
    print("# run " + json.dumps(record))
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    for name in [n for n in metrics if n not in units]:
        print(f"{name:34s} {metrics[name]:>16.6g} s (unbounded)")
    print(f"{'fail_ratio':34s} {run.fail_ratio:>16.6g} ({run.failed} of {run.attempted} checks failed)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
