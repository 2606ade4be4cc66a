"""One pass of one workload, in a fresh process.

Started by run.py as ``python3 perfbench/worker.py <workload> <seed>
<scale> <mode>``, with ``mode`` one of ``setup`` (import and build the
inputs, then stop), ``pass`` (also run the checks) and ``trace`` (run the
checks with every layer wrapped by the tracer).  It imports ``freewick``
from the checkout's ``src/``, never from an installed copy, and prints one
JSON object on its last line of output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cpu_seconds() -> float:
    """User plus system CPU time of this process since it started."""
    return time.process_time()


def run_checks(tasks) -> dict:
    """Run every task and count its checks.

    Each task's CPU time is kept on its own, without the reference kernel
    timed between tasks (and between the parts a task times, when it calls
    ``task.pause``).

    A task that raises, or reports fewer checks than it planned, fails each
    missing check: a check that quietly disappears must not read as a gain.
    """
    from reference import Reference  # after set-up, which it must not add to

    attempted = failed = 0
    worst_ratio = 0.0
    failures = []
    task_cpu = {}
    ref = Reference()
    wall, cpu, ref_before = time.perf_counter(), cpu_seconds(), ref.spent
    for task in tasks:
        ref.due()
        task.pause = ref.due
        started, ref_spent = cpu_seconds(), ref.spent
        try:
            checks = task.run()
        except Exception as exc:  # a raising check is a failed check, not a crash
            checks, why = [], f"{type(exc).__name__}: {exc}"
        else:
            why = f"reported {len(checks)} of {task.planned} planned checks"
        spent = cpu_seconds() - started - (ref.spent - ref_spent)
        for part, seconds in task.parts.items():
            task_cpu[f"{task.name}/{part}"] = seconds
            spent -= seconds
        task_cpu[task.name] = spent
        missing = task.planned - len(checks)
        if missing > 0:
            attempted += missing
            failed += missing
            failures.append(f"{task.name}: {why}")
        for name, residual, tol in checks:
            attempted += 1
            if not residual <= tol:
                failed += 1
                failures.append(f"{name}: residual {residual!r} > tol {tol!r}")
            elif tol > 0:
                worst_ratio = max(worst_ratio, residual / tol)
    cpu, wall = cpu_seconds() - cpu - (ref.spent - ref_before), time.perf_counter() - wall
    ref.sample()
    return {
        "cpu_s": cpu,
        "wall_s": wall,
        "task_cpu_s": task_cpu,
        "ref_cpu_s": ref.samples,
        "attempted": attempted,
        "failed": failed,
        "worst_residual_ratio": worst_ratio,
        "failures": failures[:20],
    }


def main(argv: list[str]) -> int:
    workload, seed, scale, mode = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, str(SRC))
    import freewick
    import freewick.cli  # noqa: F401  (every layer, as `freewick` users load it)

    if Path(freewick.__file__).resolve().parent != SRC / "freewick":
        print(f"freewick imported from {freewick.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    tasks = workloads.build(workload, seed, scale)
    result = {
        "ready": time.monotonic(),
        "setup_cpu_s": cpu_seconds(),
        "planned": workloads.planned(tasks),
    }
    if mode != "setup":
        result.update(run_checks(tasks))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = trace_metrics(tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload}.npz")
    import numpy
    import scipy

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(freewick, "kernel_backend", None),
    }
    print(json.dumps(result))
    return 0


# inclusive per-function times reported by the traced run, by span name
FUNCTIONS = {
    "ncpart.enumerate_nc_s": "ncpart.enumerate_nc",
    "ncpart.enumerate_gn_s": "ncpart.enumerate_gn",
    "ncpart.brute_noncrossing_count_s": "ncpart.brute_noncrossing_count",
    "ncpart.brute_gn_s": "ncpart.brute_gn",
    "field.monomial_apply_s": "field.monomial_apply",
    "field.wick_rule_expand_s": "field.wick_rule_expand",
    "field.wick_apply_s": "field.wick_apply",
    "field.word_apply_s": "field.word_apply",
    "cumulant.moment_s": "cumulant.moment",
    "cumulant.nc_moment_sum_s": "cumulant.nc_moment_sum",
    "xfock.xmoment_s": "xfock.xmoment",
    "xfock.x_inner_s": "xfock.x_inner",
    "xfock.k_transform_s": "xfock.k_transform",
    "jacobi.coeffs_from_measure_s": "jacobi.coeffs_from_measure",
    "suites.wick_s": "suites.suite_wick",
    "suites.cumulant_s": "suites.suite_cumulant",
    "suites.xfock_s": "suites.suite_xfock",
    "suites.meixner_s": "suites.suite_meixner",
}


def trace_metrics(tracer) -> dict[str, float]:
    layer_self, inclusive = tracer.times()
    calls = tracer.layer_calls()
    metrics: dict[str, float] = {}
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.calls"] = calls[layer]
    for metric, span in FUNCTIONS.items():
        # a function the program no longer has reads as never called
        metrics[metric] = inclusive.get(span, 0.0)
    metrics.update(tracer.counts)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
