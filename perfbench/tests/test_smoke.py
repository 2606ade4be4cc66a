"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ["cpu_ref", "setup_s", "peak_rss_mb"]
PER_LAYER = [
    f"{layer}.{kind}"
    for layer in ("ncpart", "grid", "fock", "field", "cumulant", "jacobi", "xfock", "suites", "cli")
    for kind in ("self_s", "calls")
] + [
    "ncpart.enumerate_nc_s", "ncpart.enumerate_gn_s",
    "ncpart.brute_noncrossing_count_s", "ncpart.brute_gn_s",
    "field.monomial_apply_s", "field.wick_rule_expand_s", "field.wick_apply_s", "field.word_apply_s",
    "cumulant.moment_s", "cumulant.nc_moment_sum_s",
    "xfock.xmoment_s", "xfock.x_inner_s", "xfock.k_transform_s",
    "jacobi.coeffs_from_measure_s",
    "suites.wick_s", "suites.cumulant_s", "suites.xfock_s", "suites.meixner_s",
    "ncpart.partitions_out", "fock.bytes_out", "fock.peak_level_bytes", "xfock.components_out",
    "checks.run", "checks.worst_residual_ratio", "trace.overhead_ratio",
]


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, names, section in ((0, END_TO_END, "end_to_end"), (1, PER_LAYER, "per_layer")):
        lines, result = bench(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert sorted(metrics) == sorted(names)
        units = {m["name"]: m["unit"] for m in declared[section]}
        for name in names:
            assert metrics[name]["unit"] == units[name]
            assert isinstance(metrics[name]["value"], (int, float))
        printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
        assert set(names) | {"fail_ratio"} <= printed
        if trace == 0:
            assert {"cpu_s", "ref_s", "wall_s", "setup_wall_s"} <= printed


def test_cpu_ref_sums_each_task_median_in_reference_units():
    passes = [
        {"task_cpu_s": {"a": 1.0, "b": 5.0}, "ref_cpu_s": [0.5, 0.5]},
        {"task_cpu_s": {"a": 3.0, "b": 9.0}, "ref_cpu_s": [1.0, 2.0, 1.0]},  # a slow pass
        {"task_cpu_s": {"a": 0.5, "b": 4.0}, "ref_cpu_s": [0.5]},
    ]
    # a: 2, 3, 1 -> 2; b: 10, 9, 8 -> 9
    assert run.task_sum(passes) == 2.0 + 9.0


def test_tasks_and_suites_are_timed_without_the_reference_kernel(monkeypatch):
    monkeypatch.setattr(reference, "EVERY_S", 0.0)  # time the kernel at every chance
    result = worker.run_checks(workloads.build("verify_all", 3, "tiny"))
    assert sorted(result["task_cpu_s"]) == ["verify", "verify/cumulant"]
    # start, before the task, before its one suite, end
    assert len(result["ref_cpu_s"]) == 4
    # what is left of the task beside its suite is the command's own work,
    # not the kernel timed in between
    assert result["task_cpu_s"]["verify"] < min(result["ref_cpu_s"])
    assert sum(result["task_cpu_s"].values()) <= result["cpu_s"]


def test_corrupted_reference_makes_fail_ratio_positive():
    r = run.Run("partitions", 3, "tiny")
    # the worker, with one pinned Catalan number off by one
    r.worker_cmd = [sys.executable, "-c", (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; del sys.argv[1:3]; "
        "import workloads, worker; workloads.CATALAN[4] += 1; sys.exit(worker.main(sys.argv[1:]))"
    ), str(BENCH), str(ROOT / "src")]
    result = r.worker("pass")
    assert result is not None
    assert any("enumerate_nc_n4" in line for line in result["failures"])
    assert r.failed >= 2  # enumerate_nc_n4 and brute_noncrossing_count_n4
    assert r.fail_ratio > 0


def test_raising_check_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken route")

    monkeypatch.setattr(workloads.field, "wick_rule_expand", broken)
    tasks = workloads.build("wick", 3, "tiny")
    result = worker.run_checks(tasks)
    assert result["attempted"] == workloads.planned(tasks)
    assert 0 < result["failed"] < result["attempted"]


def test_dead_process_fails_its_planned_checks():
    r = run.Run("partitions", 3, "tiny")
    assert r.worker("setup") is not None
    r.workload = "no_such_workload"  # the worker exits with an error
    assert r.worker("pass") is None
    assert r.failed == r.attempted == r.planned > 0
    assert r.fail_ratio == 1


def test_missing_check_counts_as_failed(monkeypatch):
    real_main = workloads.cli.main

    def drops_one(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real_main(argv)
        report = json.loads(out.getvalue())
        report["checks"].pop()
        print(json.dumps(report))
        return code

    monkeypatch.setattr(workloads.cli, "main", drops_one)
    result = worker.run_checks(workloads.build("verify_all", 3, "tiny"))
    assert result["attempted"] == workloads.VERIFY_CHECKS["tiny"]
    assert result["failed"] == 1


def test_counts_are_taken_once_per_layer_boundary():
    script = """
import sys
sys.path[:0] = sys.argv[1:3]
import freewick.cli
from freewick import fock, ncpart
from freewick.grid import make_grid
from tracer import Tracer
tracer = Tracer()
tracer.install()
v = fock.vacuum(make_grid(3), 2)  # vacuum builds its vector with fock.zero
w = -v                            # __neg__ calls __mul__
marked = ncpart.brute_gn(4)       # brute_gn consumes all_set_partitions
nbytes = sum(a.nbytes for a in v.levels)
assert tracer.counts["fock.bytes_out"] == 2 * nbytes, tracer.counts
assert tracer.counts["ncpart.partitions_out"] == len(marked) == 19, tracer.counts
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
