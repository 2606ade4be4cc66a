"""Seeded verification suites shared by the CLI and the acceptance tests.

Each check is a record, a :class:`Pair`: two independently built routes to
one quantity, the scale that turns their two results into a gap, and a
tolerance, the one fixed :data:`TOL` or exactly 0 where the routes are
exact.  A suite is a generator of ``(record, inputs)``: it builds its models
and draws each check's inputs from a seeded generator, so reports are
reproducible, and it runs no route.  :func:`run_suite` alone runs the
records.  Suite parameters (grid size, fiber nodes, degree budget) default
to the desk scale the package is tuned for.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cumulant, field, fock, jacobi, ncpart, xfock
from .errors import ConfigError, require_int
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fiber, semicircle_fibers

__all__ = ["Check", "Pair", "run_suite", "SUITE_NAMES", "SuiteParams", "TOL"]

# the gate of every check that is not exact; no parameter or config widens it
TOL = 1e-10

# the coefficients of the Meixner-regime model that the suites check
_MEIXNER_POINT = {"lam": 1.0, "eta": 1.0}


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float
    elapsed: float  # seconds from the suite's previous check to this one

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)


@dataclass(frozen=True)
class Pair:
    """One check: two routes to one quantity, compared input by input.

    Both routes are called with an input's arguments, and ``scale`` maps
    their two results to a gap: one number, or an array of them.  A route
    reads only its arguments and the models its suite built: a suite
    computes no route result while it draws, so every route runs inside
    its check.
    """

    name: str
    routes: tuple[Callable, Callable]
    scale: Callable
    tol: float = TOL


@dataclass(frozen=True)
class SuiteParams:
    m: int = 6
    fiber_nodes: int = 8
    degree: int = 6
    n_max: int = 4
    seed: int = 0

    def __post_init__(self):
        # refused here, so no suite runs on a setting it cannot check
        for name, low in (("m", 1), ("degree", 1), ("n_max", 1), ("seed", 0)):
            require_int(name, getattr(self, name), low)
        require_int("fiber_nodes", self.fiber_nodes, 4,
                    ": the xfock suite reads the node polynomials up to degree 4")
        for name, high, why in (("degree", ncpart.NC_LIMIT, "the nc_sum bound"),
                                ("n_max", 6, "expansion cost grows fast")):
            if getattr(self, name) > high:
                raise ConfigError(f"{name} must lie in 1..{high} ({why})")


def _rel(a: float, b: float) -> float:
    """The gap of two results over its scale, the larger of the two."""
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _rel_vec(u: fock.FockVector, v: fock.FockVector) -> float:
    """The distance of two vectors over its scale, the larger of their norms."""
    return fock.distance(u, v) / max(fock.norm(u), fock.norm(v), 1e-30)


def _rel_first(u: fock.FockVector, v: fock.FockVector) -> float:
    """The distance of two vectors over the norm of the first, the result under test."""
    return fock.distance(u, v) / max(fock.norm(u), 1e-30)


def _gap(a, b):
    """The absolute gap of two results, entry by entry; results that are
    sequences (Fock levels, coefficient tables) are compared item by item,
    the shorter one padded with zeros, so a missing level is a gap too."""
    if isinstance(a, (list, tuple)):
        return [np.max(_gap(x, y)) for x, y in itertools.zip_longest(a, b, fillvalue=0.0)]
    return np.abs(np.subtract(a, b))


def _random_grid(m: int, rng: np.random.Generator) -> GridMeasure:
    return make_grid(m, lam=rng.standard_normal(m))


def _random_word(n: int, m: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [rng.standard_normal(m) for _ in range(n)]


def _meixner_model(p: SuiteParams) -> jacobi.JacobiSystem:
    g = make_grid(p.m, **_MEIXNER_POINT)
    pg = ProductGrid(g, semicircle_fibers(g, p.fiber_nodes))
    return jacobi.JacobiSystem(pg, p.fiber_nodes)


def _random_fibers(m: int, nodes: int, rng: np.random.Generator) -> list[FiberMeasure]:
    fibers = []
    for _ in range(m):
        atoms = np.sort(rng.uniform(-1.5, 1.5, size=nodes))
        weights = rng.uniform(0.2, 1.0, size=nodes)
        fibers.append(FiberMeasure(atoms, weights / weights.sum()))
    return fibers


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_wick(p: SuiteParams):
    rng = np.random.default_rng(p.seed)

    # one enumeration per size, read by both checks that count it
    nc_count = functools.cache(lambda n: len(ncpart.enumerate_nc(n)))
    gn_count = functools.cache(lambda n: len(ncpart.enumerate_gn(n)))
    counts = (
        ("nc_count_brute", nc_count, lambda n: ncpart.brute_noncrossing_count(n)[1]),
        ("gn_count_brute", gn_count, lambda n: len(ncpart.brute_gn(n))),
        ("gn_count_recursion", gn_count, ncpart.gn_count_recursion),
    )
    for n in range(1, 11):
        yield Pair(f"nc_count_catalan_n{n}", (nc_count, ncpart.catalan), _gap, tol=0.0), [(n,)]
    for n in range(1, 9):
        for label, direct, oracle in counts:
            yield Pair(f"{label}_n{n}", (direct, oracle), _gap, tol=0.0), [(n,)]

    for n in range(1, p.n_max + 1):
        inputs = [(_random_grid(p.m, rng), rng.standard_normal((p.m,) * n)) for _ in range(3)]
        yield Pair(f"wick_rule_n{n}", (
            lambda g, f: field.monomial_apply(f, fock.vacuum(g, f.ndim), g),
            lambda g, f: field.wick_rule_expand(f, g)), _rel_vec), inputs

    for n in range(2, p.n_max + 1):
        inputs = [(_random_grid(p.m, rng), [rng.standard_normal((p.m,) * k) for k in comp])
                  for parts in range(2, min(3, n) + 1) for comp in ncpart.compositions(n, parts)]
        yield Pair(f"normal_product_rule_n{n}", (
            lambda g, ks: field.wick_product_sequential(ks, g),
            lambda g, ks: field.wick_product_expand([k.ndim for k in ks], _outer(ks), g),
        ), _rel_vec), inputs

    inputs = []
    for n in range(1, min(p.n_max, 4) + 1):
        g, f = _random_grid(p.m, rng), rng.standard_normal((p.m,) * n)
        # levels 0..2 hold content under the budget n + 2
        inputs.append((g, f, fock.FockVector(g, fock.random_vector(g, 2, rng).levels, n + 2)))
    yield Pair("wick_forms_agree", (
        lambda g, f, v: field.wick_apply(f, v, g, form="explicit"),
        lambda g, f, v: field.wick_apply(f, v, g, form="recursive")), _rel_vec), inputs

    # on the vacuum, the Wick product leaves its kernel at the kernel's level alone
    inputs = [(_random_grid(p.m, rng), rng.standard_normal((p.m,) * n)) for n in range(1, p.n_max + 1)]
    yield Pair("wick_projection_property", (
        lambda g, f: field.wick_apply(f, fock.vacuum(g, f.ndim), g).levels,
        lambda g, f: [0.0] * f.ndim + [f]), _gap), inputs


def suite_cumulant(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 1)

    lam_pg = ProductGrid(_random_grid(p.m, rng))
    fib_pg = ProductGrid(make_grid(p.m), _random_fibers(p.m, p.fiber_nodes, rng))
    moments = (cumulant.moment, cumulant.nc_moment_sum)
    for label, pg in (("lambda", lam_pg), ("fiber", fib_pg)):
        inputs = [(_random_word(n, p.m, rng), pg) for n in range(1, p.degree + 1)]
        yield Pair(f"moment_cumulant_{label}", moments, _rel), inputs

    # the scale is the larger of the two cumulants, not the moments the
    # recursion subtracts (the one-cell failure at seed 6)
    inputs = [(_random_word(n, p.m, rng), lam_pg) for n in range(2, 5)]
    routes = (cumulant.cumulant_from_moments, cumulant.cumulant_direct)
    yield Pair("cumulant_recursion_vs_direct", routes, _rel), inputs

    # disjointly supported functions: mixed cumulants vanish exactly
    half = p.m // 2
    fa = np.concatenate([np.abs(rng.standard_normal(half)) + 0.5, np.zeros(p.m - half)])
    fb = np.concatenate([np.zeros(half), np.abs(rng.standard_normal(p.m - half)) + 0.5])
    words = [[fa, fb], [fa, fb, fa], [fa, fa, fb, fb], [fa, fb, fa, fb]]
    routes = (cumulant.cumulant_direct, lambda word, pg: 0.0)
    yield Pair("mixed_cumulants_vanish", routes, _gap, tol=0.0), [(w, lam_pg) for w in words]
    yield Pair("free_independence_moments", moments, _rel), [(words[3], lam_pg), (words[2], lam_pg)]

    # a word's moment is unchanged when its two halves trade places
    fs = _random_word(3, p.m, rng)
    halves = [(fs[:cut], fs[cut:]) for cut in range(1, 3)] + [
        (_random_word(na, p.m, rng), _random_word(nb, p.m, rng))
        for na, nb in ((2, 2), (2, 4), (3, 3))
    ]
    yield Pair("traciality", (
        lambda a, b: cumulant.moment(a + b, lam_pg),
        lambda a, b: cumulant.moment(b + a, lam_pg)), _rel), halves

    ones_grid = make_grid(p.m, **_MEIXNER_POINT)
    # the closed form is the series plus its exact remainder past degree 30;
    # with atoms in [-1.5, 1.5], f = 0.5 keeps |s f| <= 0.75 inside the radius
    # and large enough that a remainder off by one degree misses the gate
    transform = functools.partial(cumulant.cumulant_transform, degree=30)
    for label, pg in (("lambda", ProductGrid(ones_grid)), ("fiber", fib_pg)):
        yield Pair(f"transform_{label}_closed_vs_series", (
            lambda f, pg: (tr := transform(f, pg)).closed_form - tr.series,
            lambda f, pg: transform(f, pg).remainder), _gap), [(0.5 * np.ones(p.m), pg)]
    # the closed form is the continuous law's; the series reads its moments
    # through degree 28, and an M-atom Gauss rule matches them through 2M - 1
    mei_pg = ProductGrid(ones_grid, semicircle_fibers(ones_grid, max(p.fiber_nodes, 10)))
    yield Pair("transform_meixner_closed_vs_series", (
        lambda fv: cumulant.meixner_transform_closed_form(fv, ones_grid),
        lambda fv: cumulant.cumulant_transform(fv, mei_pg, degree=30).series), _gap), [
        ((1.0 / 6.0) * np.ones(p.m),)]


def suite_xfock(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 2)
    sys = _meixner_model(p)
    pg, g = sys.model, sys.grid
    moments = (lambda word, sys: cumulant.moment(word, sys.model), xfock.xmoment)

    # words over a fixed pair of kernels, all patterns up to the budget
    fa, fb = _random_word(2, p.m, rng)
    words = [(list(word), sys) for d in range(1, p.degree + 1) for word in (
        itertools.product((fa, fb), repeat=d) if d <= 4
        else (_random_word(d, p.m, rng) for _ in range(8)))]
    yield Pair("moments_big_fock_vs_extended", moments, _rel), words

    # general (non-semicircle) fibers as well
    gen_pg = ProductGrid(g, _random_fibers(p.m, p.fiber_nodes, rng))
    gen_sys = jacobi.JacobiSystem(gen_pg, p.fiber_nodes)
    words = [(_random_word(d, p.m, rng), gen_sys) for d in range(1, p.degree + 1)]
    yield Pair("moments_general_fibers", moments, _rel), words

    # one list of draws feeds both checks of the transform
    inputs = [(fock.FockVector(pg, fock.random_vector(pg, 2, rng).levels, 3), rng.standard_normal(p.m))
              for _ in range(20)]
    yield Pair("k_transform_isometry", (
        lambda v, f: fock.norm(xfock.k_transform(v, sys)),
        lambda v, f: fock.norm(v)), _rel), inputs

    yield Pair("k_transform_intertwines", (
        lambda v, f: xfock.k_transform(xfock.big_fock_realize(f, v), sys),
        lambda v, f: xfock.xfield(f, xfock.k_transform(v, sys))), _rel_first), inputs

    inputs = [(fock.random_vector(pg, 2, rng),) for _ in range(5)]
    yield Pair("k_transform_roundtrip", (
        lambda v: v,
        lambda v: xfock.k_inverse(xfock.k_transform(v, sys))), _rel_first), inputs

    inputs = [(_random_word(n, p.m, rng), _random_word(n, p.m, rng)) for n in range(1, 5)]
    yield Pair("inner_product_formula", (
        lambda fs, gs: xfock.inner_product_formula(_outer(fs), _outer(gs), sys),
        lambda fs, gs: fock.inner(_xplus_word(fs, sys), _xplus_word(gs, sys))), _rel), inputs

    delta = np.zeros(p.m, dtype=bool)
    delta[: p.m // 2 + 1] = True
    om = fock.vacuum(pg, 1)

    def jump(l, orthogonal=True):
        return xfock.power_jump(l, delta, om, sys, orthogonal=orthogonal)

    def squared_norm(l):
        x = jump(l)
        return fock.inner(x, x)

    inputs = [(l1, l2) for l1 in range(0, 4) for l2 in range(l1 + 1, 5)]
    yield Pair("power_jump_orthogonality", (
        lambda l1, l2: fock.inner(jump(l2), jump(l1, orthogonal=False)),
        lambda l1, l2: 0.0), _gap), inputs
    yield Pair("power_jump_norm", (
        squared_norm,
        lambda l: float(np.sum(g.weights * delta * sys.g[l]))), _rel), [(l,) for l in range(4)]


def suite_meixner(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 3)
    lam0, eta0 = _MEIXNER_POINT["lam"], _MEIXNER_POINT["eta"]
    sys = _meixner_model(p)
    pg, g = sys.model, sys.grid

    # recovery through degree 8 needs atoms past the breakdown point
    degree = 8
    fiber = [(semicircle_fiber(lam0, eta0, max(p.fiber_nodes, 10)),)]
    rec = functools.partial(jacobi.coeffs_from_measure, max_degree=degree)
    yield Pair("semicircle_recovers_b", (lambda fb: rec(fb).b, lambda fb: lam0), _gap), fiber
    yield Pair("semicircle_recovers_a", (lambda fb: rec(fb).a[1:], lambda fb: eta0), _gap), fiber
    eta_powers = (lambda fb: rec(fb).g, lambda fb: eta0 ** np.arange(degree + 1))
    yield Pair("norms_are_eta_powers", eta_powers, _gap), fiber

    # one atom: b[0] is the atom, and every other coefficient and norm is exact
    def one_atom():
        c = jacobi.coeffs_from_measure(semicircle_fiber(0.7, 0.0, p.fiber_nodes), p.fiber_nodes)
        return c.b, c.a, c.g, float(c.finite_support_n == 1)

    unit = np.eye(1, p.fiber_nodes + 1)[0]
    routes = (one_atom, lambda: (0.7 * unit, 0.0 * unit, unit, 1.0))
    yield Pair("one_atom_zero_pattern", routes, _gap, tol=0.0), [()]

    # constant-coefficient actions reduce to the closed slotwise forms
    inputs = [(rng.standard_normal((p.m,) * n), rng.standard_normal(p.m)) for n in range(1, 4)]
    yield Pair("representation_second_order_form", (
        lambda kern, f: xfock.xfield(f, xfock.kernel_lift(kern, sys, max_degree=kern.ndim + 1)),
        lambda kern, f: _second_order_form(f, kern, sys)), _rel_first), inputs

    # a level-inhomogeneous fiber makes the preserving part level-dependent:
    # the gap is the shortfall of the spread of its two levels below 0.1
    skew = FiberMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    skew_sys = jacobi.JacobiSystem(ProductGrid(g, [skew] * p.m), p.fiber_nodes)

    def xzero_at(l):
        v = xfock.x_vacuum(skew_sys, 3) * 0.0
        xfock.set_component(v, (l,), np.ones(p.m))
        return float(xfock.component(xfock.xzero(np.ones(p.m), v), (l,))[0])

    yield Pair("xzero_level_dependence", (lambda: xzero_at(0), lambda: xzero_at(1)),
               lambda r0, r1: [0.0, 0.1 - abs(r0 - r1)], tol=0.0), [()]

    words = [[np.ones(p.m)] * k for k in range(1, 9)]
    for label, route, model in (
        ("big_fock", cumulant.moment, pg),
        ("extended", xfock.xmoment, sys),
        ("nc_sum", cumulant.nc_moment_sum, pg),
    ):
        routes = (lambda word, model: jacobi.meixner_moments(lam0, eta0, 1.0, 8)[len(word)], route)
        yield Pair(f"meixner_moments_vs_{label}", routes, _rel), [(w, model) for w in words]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _outer(kernels) -> np.ndarray:
    out = np.asarray(kernels[0], dtype=float)
    for k in kernels[1:]:
        out = np.multiply.outer(out, np.asarray(k, dtype=float))
    return out


def _xplus_word(fs, sys) -> fock.FockVector:
    v = xfock.x_vacuum(sys, len(fs))
    for f in reversed(fs):
        v = xfock.xplus(f, v)
    return v


def _second_order_kernels(f, kern, g: GridMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field of ``f`` on the order-n chaos kernel ``kern`` by its
    second-order form, as the kernels of orders n + 1, n and n - 1: the
    created ``f (x) kern``; ``kern`` times ``lambda f`` on its first slot;
    and the contraction with ``w f``, plus ``eta f`` times ``kern`` on the
    diagonal of its first two slots (none on an order-1 kernel)."""
    n = kern.ndim
    neutral = (g.lambda_values * f).reshape((-1,) + (1,) * (n - 1)) * kern
    lowered = np.tensordot(g.weights * f, kern, axes=(0, 0))
    if n >= 2:
        diag = np.moveaxis(np.diagonal(kern, axis1=0, axis2=1), -1, 0)
        lowered += (g.eta_values * f).reshape((-1,) + (1,) * (n - 2)) * diag
    return np.multiply.outer(f, kern), neutral, lowered


def _second_order_form(f, kern, sys) -> fock.FockVector:
    """The field on a lifted kernel by the closed slotwise forms, lifted term by term."""
    created, neutral, lowered = _second_order_kernels(f, kern, sys.grid)
    lift = functools.partial(xfock.kernel_lift, sys=sys, max_degree=kern.ndim + 1)
    # the lower lifts stop below the top level, so they are added into the
    # created lift's own levels and no sum copies its top level
    lower = lift(neutral) + lift(lowered)
    expected = lift(created)
    for k, level in enumerate(lower.levels):
        expected.levels[k] += level
    return expected


def _runners() -> dict:
    # built on each call, so a suite function replaced on the module runs
    return {"wick": suite_wick, "cumulant": suite_cumulant, "xfock": suite_xfock,
            "meixner": suite_meixner}


SUITE_NAMES = tuple(_runners())


def run_suite(name: str, params: SuiteParams) -> list[Check]:
    """The checks of suite ``name``, in the order the suite yields them.

    For each record the suite yields, both routes run on each input in
    turn, and that input's gap, reduced by ``np.max``, is kept before the
    next input runs.  The check's residual is the largest gap, by
    ``np.max``, so a NaN from any route fails it.  Its ``elapsed`` is the
    time from the suite's previous check (or its start) to this one,
    the drawing of its inputs included.
    """
    runners = _runners()
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    checks = []
    start = time.perf_counter()
    for pair, inputs in runners[name](params):
        a, b = pair.routes
        gaps = [np.max(pair.scale(a(*args), b(*args))) for args in inputs]
        now = time.perf_counter()
        checks.append(Check(pair.name, float(np.max(gaps)), pair.tol, now - start))
        start = now
    return checks
