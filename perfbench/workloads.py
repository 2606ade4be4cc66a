"""The benchmark's workloads: seeded inputs and pinned reference checks.

Each workload is built from a seed into a list of tasks.  A task calls into
``freewick`` and returns its checks as ``(name, residual, tolerance)``; a
check passes when ``residual <= tolerance``.  A task that raises fails all
the checks it planned.  See README.md for why each workload exists.

``full`` is the measured scale; ``tiny`` only exercises the harness.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable

import numpy as np

from freewick import cli, field, fock, ncpart, suites
from freewick.grid import make_grid

# Reference counts pinned in the benchmark, independent of the program:
# Catalan numbers (non-crossing partitions), Bell numbers (all set
# partitions) and the size of the admissible marked family G_n.
CATALAN = [math.comb(2 * n, n) // (n + 1) for n in range(13)]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
GN = [0, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953]

WICK_TOL = 1e-10
GRID_SIZE = 6
KERNELS_PER_ORDER = 2

# Checks of `freewick verify` at the default config, charged as failed when
# the process dies before it reports.
VERIFY_CHECKS = {"full": 69, "tiny": 9}
VERIFY_SUITE = {"full": "all", "tiny": "cumulant"}


@dataclass
class Task:
    name: str
    planned: int
    run: Callable[[], list[tuple[str, float, float]]]
    # CPU seconds of named steps inside ``run``, filled in as it runs
    parts: dict[str, float] = dataclass_field(default_factory=dict)
    # called by ``run`` between its timed steps; set by the worker
    pause: Callable[[], None] = lambda: None


def build(workload: str, seed: int, scale: str) -> list[Task]:
    if workload == "partitions":
        return _partitions(seed, scale)
    if workload == "wick":
        return _wick(seed, scale)
    if workload == "verify_all":
        task = Task("verify", VERIFY_CHECKS[scale], lambda: _verify(seed, scale, task))
        return [task]
    raise ValueError(f"unknown workload {workload!r}")


def planned(tasks: list[Task]) -> int:
    return sum(t.planned for t in tasks)


# ---------------------------------------------------------------------------
# partitions: the criterion-1 shape
# ---------------------------------------------------------------------------

def _partitions(seed: int, scale: str) -> list[Task]:
    # nc stops at 11: brute_noncrossing_count(12) alone takes 6 to 9 s,
    # which would leave one pass per run
    nc_max, gn_max = (11, 10) if scale == "full" else (5, 4)
    tasks = []
    for n in range(1, nc_max + 1):
        tasks.append(_exact(f"enumerate_nc_n{n}", lambda n=n: len(ncpart.enumerate_nc(n)), CATALAN[n]))
        tasks.append(_exact(
            f"brute_noncrossing_count_n{n}",
            lambda n=n: ncpart.brute_noncrossing_count(n), (BELL[n], CATALAN[n]),
        ))
    for n in range(1, gn_max + 1):
        tasks.append(_exact(f"enumerate_gn_n{n}", lambda n=n: len(ncpart.enumerate_gn(n)), GN[n]))
        tasks.append(_exact(f"gn_count_recursion_n{n}", lambda n=n: ncpart.gn_count_recursion(n), GN[n]))
        tasks.append(_exact(f"brute_gn_n{n}", lambda n=n: len(ncpart.brute_gn(n)), GN[n]))
    # the seed fixes the order in which the sizes are visited
    np.random.default_rng(seed).shuffle(tasks)
    return tasks


def _exact(name: str, compute, want) -> Task:
    def run():
        got = compute()
        if isinstance(want, tuple):
            residual = sum(abs(g - w) for g, w in zip(got, want))
        else:
            residual = abs(got - want)
        return [(name, float(residual), 0.0)]
    return Task(name, 1, run)


# ---------------------------------------------------------------------------
# wick: the criterion-2 shape
# ---------------------------------------------------------------------------

def _wick(seed: int, scale: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    m = GRID_SIZE
    # explicit vs recursive stops at order 4: the recursive form at order 5
    # costs 3-12 s per kernel, which would swamp the other checks
    mono_max, forms_max, per = (5, 4, KERNELS_PER_ORDER) if scale == "full" else (2, 2, 2)
    tasks = []
    for n in range(1, mono_max + 1):
        for k in range(per):
            g = make_grid(m, lam=rng.standard_normal(m))
            f = rng.standard_normal((m,) * n)
            tasks.append(_compare(
                f"monomial_vs_rule_n{n}_{k}",
                lambda f=f, g=g, n=n: field.monomial_apply(f, fock.vacuum(g, n), g),
                lambda f=f, g=g: field.wick_rule_expand(f, g),
            ))
    for n in range(1, forms_max + 1):
        for k in range(per):
            g = make_grid(m, lam=rng.standard_normal(m))
            f = rng.standard_normal((m,) * n)
            # content on levels 0 and 1, room for n creations above it
            v = fock.random_vector(g, n + 1, rng)
            for level in v.levels[2:]:
                level[...] = 0.0
            tasks.append(_compare(
                f"wick_forms_n{n}_{k}",
                lambda f=f, g=g, v=v: field.wick_apply(f, v, g, form="explicit"),
                lambda f=f, g=g, v=v: field.wick_apply(f, v, g, form="recursive"),
            ))
    return tasks


def _compare(name: str, route_a, route_b) -> Task:
    return Task(name, 1, lambda: [(name, rel_residual(route_a(), route_b()), WICK_TOL)])


def rel_residual(u, v) -> float:
    """Plain 2-norm of the level-wise difference over the larger norm."""
    diff = norm_u = norm_v = 0.0
    for a, b in itertools.zip_longest(u.levels, v.levels, fillvalue=np.zeros(())):
        diff += float(np.sum((a - b) ** 2))
        norm_u += float(np.sum(a * a))
        norm_v += float(np.sum(b * b))
    return math.sqrt(diff) / max(math.sqrt(norm_u), math.sqrt(norm_v), 1e-30)


# ---------------------------------------------------------------------------
# verify_all: the command users run
# ---------------------------------------------------------------------------

def _verify(seed: int, scale: str, task: Task) -> list[tuple[str, float, float]]:
    run_suite = suites.run_suite

    def timed(name, params):
        # each suite is timed on its own, between timings of the reference
        task.pause()
        start = time.process_time()
        try:
            return run_suite(name, params)
        finally:
            task.parts[name] = time.process_time() - start

    out = io.StringIO()
    suites.run_suite = timed
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", VERIFY_SUITE[scale], "--seed", str(seed)])
    finally:
        suites.run_suite = run_suite
    report = json.loads(out.getvalue())
    # the command's own verdict counts too: a check it flags fails, and a
    # nonzero exit or a failed report with nothing flagged fails them all
    fail_all = (code != 0 or report["passed"] is not True) and all(
        c["passed"] for c in report["checks"]
    )
    return [
        (c["name"], c["residual"], c["tol"] if c["passed"] and not fail_all else -1.0)
        for c in report["checks"]
    ]
