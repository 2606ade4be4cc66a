"""Seeded verification suites shared by the CLI and the acceptance tests.

Each check compares two independently computed quantities and reports a
residual against one fixed tolerance, :data:`TOL`, or against exactly 0
where the routes are exact.  A suite is a generator of ``(name, tol,
samples)``; :func:`run_suite` alone reduces the samples and times each
check.  Randomness is always drawn from a seeded generator so reports are
reproducible; suite parameters (grid size, fiber nodes, degree budget)
default to the desk scale the package is tuned for.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import cumulant, field, fock, jacobi, ncpart, xfock
from .errors import ConfigError, require_int
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fiber, semicircle_fibers

__all__ = ["Check", "run_suite", "SUITE_NAMES", "SuiteParams", "TOL"]

# the gate of every check that is not exact; no parameter or config widens it
TOL = 1e-10


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
        if self.n_max > 6:
            raise ConfigError("n_max must lie in 1..6 (expansion cost grows fast)")


def _rel(a: float, b: float) -> float:
    """The gap of two results over its scale, the larger of the two."""
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _rel_vec(u: fock.FockVector, v: fock.FockVector) -> float:
    """The distance of two vectors over its scale, the larger of their norms."""
    return fock.distance(u, v) / max(fock.norm(u), fock.norm(v), 1e-30)


def _random_grid(m: int, rng: np.random.Generator) -> GridMeasure:
    return make_grid(m, lam=rng.standard_normal(m))


def _meixner_model(p: SuiteParams, lam=1.0, eta=1.0) -> jacobi.JacobiSystem:
    g = make_grid(p.m, lam=lam, eta=eta)
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

    nc_counts = {n: len(ncpart.enumerate_nc(n)) for n in range(1, 11)}
    for n, direct in nc_counts.items():
        yield f"nc_count_catalan_n{n}", 0.0, abs(direct - ncpart.catalan(n))
    for n in range(1, 9):
        _, brute = ncpart.brute_noncrossing_count(n)
        yield f"nc_count_brute_n{n}", 0.0, abs(nc_counts[n] - brute)
        gn = len(ncpart.enumerate_gn(n))
        yield f"gn_count_brute_n{n}", 0.0, abs(gn - len(ncpart.brute_gn(n)))
        yield f"gn_count_recursion_n{n}", 0.0, abs(gn - ncpart.gn_count_recursion(n))

    for n in range(1, p.n_max + 1):
        samples = []
        for _ in range(3):
            g = _random_grid(p.m, rng)
            f = rng.standard_normal((p.m,) * n)
            mono = field.monomial_apply(f, fock.vacuum(g, n), g)
            expanded = field.wick_rule_expand(f, g)
            # scale: the larger norm of the monomial and of its expansion
            samples.append(_rel_vec(mono, expanded))
        yield f"wick_rule_n{n}", TOL, samples

    for n in range(2, p.n_max + 1):
        samples = []
        for parts in range(2, min(3, n) + 1):
            for comp in ncpart.compositions(n, parts):
                g = _random_grid(p.m, rng)
                kernels = [rng.standard_normal((p.m,) * k) for k in comp]
                joint = _outer(kernels)
                seq = field.wick_product_sequential(kernels, g)
                exp = field.wick_product_expand(comp, joint, g)
                # scale: the larger norm of the sequential and the expanded product
                samples.append(_rel_vec(seq, exp))
        yield f"normal_product_rule_n{n}", TOL, samples

    samples = []
    for n in range(1, min(p.n_max, 4) + 1):
        g = _random_grid(p.m, rng)
        f = rng.standard_normal((p.m,) * n)
        # levels 0..2 hold content under the budget n + 2
        v = fock.FockVector(g, fock.random_vector(g, 2, rng).levels, n + 2)
        explicit = field.wick_apply(f, v, g, form="explicit")
        recursive = field.wick_apply(f, v, g, form="recursive")
        # scale: the larger norm of the two forms' results
        samples.append(_rel_vec(explicit, recursive))
    yield "wick_forms_agree", TOL, samples

    samples = []
    for n in range(1, p.n_max + 1):
        g = _random_grid(p.m, rng)
        f = rng.standard_normal((p.m,) * n)
        proj = field.wick_apply(f, fock.vacuum(g, n), g)
        samples.append(np.abs(proj.levels[n] - f).max())
        samples += [np.abs(proj.levels[k]).max() for k in range(n)]
    yield "wick_projection_property", TOL, samples


def suite_cumulant(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 1)

    lam_pg = ProductGrid(_random_grid(p.m, rng))
    fib_pg = ProductGrid(make_grid(p.m), _random_fibers(p.m, p.fiber_nodes, rng))
    for label, pg in (("lambda", lam_pg), ("fiber", fib_pg)):
        samples = []
        for n in range(1, p.degree + 1):
            fs = [rng.standard_normal(p.m) for _ in range(n)]
            # scale: the larger of the moment and the partition sum
            samples.append(_rel(cumulant.moment(fs, pg), cumulant.nc_moment_sum(fs, pg)))
        yield f"moment_cumulant_{label}", TOL, samples

    samples = []
    for n in range(2, 5):
        fs = [rng.standard_normal(p.m) for _ in range(n)]
        # scale: the larger of the two cumulants, not the moments the
        # recursion subtracts (the one-cell failure at seed 6)
        samples.append(
            _rel(cumulant.cumulant_from_moments(fs, lam_pg), cumulant.cumulant_direct(fs, lam_pg))
        )
    yield "cumulant_recursion_vs_direct", TOL, samples

    # disjointly supported functions: mixed cumulants vanish exactly
    half = p.m // 2
    fa = np.concatenate([np.abs(rng.standard_normal(half)) + 0.5, np.zeros(p.m - half)])
    fb = np.concatenate([np.zeros(half), np.abs(rng.standard_normal(p.m - half)) + 0.5])
    samples = [
        abs(cumulant.cumulant_direct(word, lam_pg))
        for word in ([fa, fb], [fa, fb, fa], [fa, fa, fb, fb], [fa, fb, fa, fb])
    ]
    yield "mixed_cumulants_vanish", 0.0, samples
    samples = [
        # scale: the larger of the moment and the partition sum
        _rel(cumulant.moment(word, lam_pg), cumulant.nc_moment_sum(word, lam_pg))
        for word in ([fa, fb, fa, fb], [fa, fa, fb, fb])
    ]
    yield "free_independence_moments", TOL, samples

    samples = []
    fs = [rng.standard_normal(p.m) for _ in range(3)]
    for cut in range(1, 3):
        ab = cumulant.moment(fs, lam_pg)
        ba = cumulant.moment(fs[cut:] + fs[:cut], lam_pg)
        # scale: the larger of the moments of the word and of its rotation
        samples.append(_rel(ab, ba))
    for na, nb in ((2, 2), (2, 4), (3, 3)):
        a = [rng.standard_normal(p.m) for _ in range(na)]
        b = [rng.standard_normal(p.m) for _ in range(nb)]
        # scale: the larger of the moments of ab and ba
        samples.append(_rel(cumulant.moment(a + b, lam_pg), cumulant.moment(b + a, lam_pg)))
    yield "traciality", TOL, samples

    ones_grid = make_grid(p.m, lam=1.0, eta=1.0)
    # the closed form is the series plus its exact remainder past degree 30;
    # with atoms in [-1.5, 1.5], f = 0.5 keeps |s f| <= 0.75 inside the radius
    # and large enough that a remainder off by one degree misses the gate
    for label, fv, pg in (("lambda", 0.5, ProductGrid(ones_grid)), ("fiber", 0.5, fib_pg)):
        tr = cumulant.cumulant_transform(fv * np.ones(p.m), pg, degree=30)
        yield f"transform_{label}_closed_vs_series", TOL, abs(tr.closed_form - tr.series - tr.remainder)
    # the closed form is the continuous law's; the series reads its moments
    # through degree 28, and an M-atom Gauss rule matches them through 2M - 1
    mei_pg = ProductGrid(ones_grid, semicircle_fibers(ones_grid, max(p.fiber_nodes, 10)))
    fv = (1.0 / 6.0) * np.ones(p.m)
    closed = cumulant.meixner_transform_closed_form(fv, ones_grid)
    series = cumulant.cumulant_transform(fv, mei_pg, degree=30).series
    yield "transform_meixner_closed_vs_series", TOL, abs(closed - series)


def suite_xfock(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 2)
    sys = _meixner_model(p)
    pg, g = sys.model, sys.grid

    # words over a fixed pair of kernels, all patterns up to the budget
    fa, fb = rng.standard_normal(p.m), rng.standard_normal(p.m)
    samples = []
    for d in range(1, p.degree + 1):
        if d <= 4:
            words = itertools.product((fa, fb), repeat=d)
        else:
            words = ([rng.standard_normal(p.m) for _ in range(d)] for _ in range(8))
        for word in words:
            word = list(word)
            # scale: the larger of the big-Fock and the extended moment
            samples.append(_rel(cumulant.moment(word, pg), xfock.xmoment(word, sys)))
    yield "moments_big_fock_vs_extended", TOL, samples

    # general (non-semicircle) fibers as well
    gen_pg = ProductGrid(g, _random_fibers(p.m, p.fiber_nodes, rng))
    gen_sys = jacobi.JacobiSystem(gen_pg, p.fiber_nodes)
    samples = []
    for d in range(1, p.degree + 1):
        word = [rng.standard_normal(p.m) for _ in range(d)]
        # scale: the larger of the big-Fock and the extended moment
        samples.append(_rel(cumulant.moment(word, gen_pg), xfock.xmoment(word, gen_sys)))
    yield "moments_general_fibers", TOL, samples

    norm_samples, tw_samples = [], []
    for _ in range(20):
        v = fock.FockVector(pg, fock.random_vector(pg, 2, rng).levels, 3)
        f = rng.standard_normal(p.m)
        lhs = xfock.k_transform(xfock.big_fock_realize(f, v), sys)
        # one transform serves both checks: its lmax is sys.max_degree either way
        xv = xfock.k_transform(v, sys, max_degree=lhs.max_level + 1)
        # scale: the larger of the two norms
        norm_samples.append(_rel(fock.norm(xv), fock.norm(v)))
        # scale: the norm of the transformed big-Fock field, the result
        tw_samples.append(fock.distance(lhs, xfock.xfield(f, xv)) / max(fock.norm(lhs), 1e-30))
    yield "k_transform_isometry", TOL, norm_samples
    yield "k_transform_intertwines", TOL, tw_samples

    samples = []
    for _ in range(5):
        v = fock.random_vector(pg, 2, rng)
        back = xfock.k_inverse(xfock.k_transform(v, sys))
        # scale: the norm of the input vector
        samples.append(fock.distance(back, v) / max(fock.norm(v), 1e-30))
    yield "k_transform_roundtrip", TOL, samples

    samples = []
    for n in range(1, 5):
        fs = [rng.standard_normal(p.m) for _ in range(n)]
        gs = [rng.standard_normal(p.m) for _ in range(n)]
        formula = xfock.inner_product_formula(_outer(fs), _outer(gs), sys)
        left = _xplus_word(fs, sys)
        right = _xplus_word(gs, sys)
        # scale: the larger of the formula and the inner product
        samples.append(_rel(formula, fock.inner(left, right)))
    yield "inner_product_formula", TOL, samples

    delta = np.zeros(p.m, dtype=bool)
    delta[: p.m // 2 + 1] = True
    om = fock.vacuum(pg, 1)
    samples = []
    for l1 in range(0, 4):
        for l2 in range(l1 + 1, 5):
            y = xfock.power_jump(l1, delta, om, sys, orthogonal=False)
            x = xfock.power_jump(l2, delta, om, sys, orthogonal=True)
            samples.append(abs(fock.inner(x, y)))
    yield "power_jump_orthogonality", TOL, samples

    samples = []
    for l in range(0, 4):
        x = xfock.power_jump(l, delta, om, sys)
        lhs = fock.inner(x, x)
        rhs = float(np.sum(g.weights * delta * sys.g[l]))
        # scale: the larger of the squared norm and the window weight
        samples.append(_rel(lhs, rhs))
    yield "power_jump_norm", TOL, samples


def suite_meixner(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 3)
    lam0, eta0 = 1.0, 1.0
    sys = _meixner_model(p, lam=lam0, eta=eta0)
    pg, g = sys.model, sys.grid

    # recovery through degree 8 needs atoms past the breakdown point
    rec_nodes = max(p.fiber_nodes, 10)
    rec = jacobi.coeffs_from_measure(semicircle_fiber(lam0, eta0, rec_nodes), 8)
    yield "semicircle_recovers_b", TOL, np.abs(rec.b - lam0)
    yield "semicircle_recovers_a", TOL, np.abs(rec.a[1:] - eta0)
    yield "norms_are_eta_powers", TOL, np.abs(rec.g - eta0 ** np.arange(rec.g.size))

    point = jacobi.coeffs_from_measure(semicircle_fiber(0.7, 0.0, p.fiber_nodes), p.fiber_nodes)
    pattern_err = abs(point.b[0] - 0.7) + float(np.abs(point.b[1:]).max())
    pattern_err += float(np.abs(point.a).max())
    pattern_err += float(np.abs(point.g - np.eye(1, point.g.size)[0]).max())
    pattern_err += 0.0 if point.finite_support_n == 1 else 1.0
    yield "one_atom_zero_pattern", 0.0, pattern_err

    # constant-coefficient actions reduce to the closed slotwise forms
    samples = []
    for n in range(1, 4):
        kern = rng.standard_normal((p.m,) * n)
        f = rng.standard_normal(p.m)
        applied = xfock.xfield(f, xfock.kernel_lift(kern, sys, max_degree=n + 1))
        # the lift is linear, so the two order-(n-1) kernels are lifted as one
        lowered = _kernel_annihilate(f, kern, g) + _kernel_eta_term(f, kern, g.eta_values)
        expected = (
            xfock.kernel_lift(_kernel_create(f, kern), sys, max_degree=n + 1)
            + xfock.kernel_lift(_kernel_neutral(f, kern, g.lambda_values), sys, max_degree=n + 1)
            + xfock.kernel_lift(lowered, sys, max_degree=n + 1)
        )
        # scale: the norm of the applied field, the result
        samples.append(fock.distance(applied, expected) / max(fock.norm(applied), 1e-30))
    yield "representation_second_order_form", TOL, samples

    # a level-inhomogeneous fiber makes the preserving part level-dependent:
    # the residual is the shortfall of the observed spread below 0.1
    skew = FiberMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    skew_sys = jacobi.JacobiSystem(ProductGrid(g, [skew] * p.m), p.fiber_nodes)
    f = np.ones(p.m)
    r = []
    for l in (0, 1):
        v = xfock.x_vacuum(skew_sys, 3) * 0.0
        xfock.set_component(v, (l,), np.ones(p.m))
        r.append(float(xfock.component(xfock.xzero(f, v), (l,))[0]))
    r0, r1 = r
    yield "xzero_level_dependence", 0.0, [0.0, 0.1 - abs(r0 - r1)]

    sigma_delta = 1.0
    window = np.ones(p.m, dtype=bool)
    chi = window.astype(float)
    tri = jacobi.meixner_moments(lam0, eta0, sigma_delta, 8)
    for label, route, model in (
        ("big_fock", cumulant.moment, pg),
        ("extended", xfock.xmoment, sys),
        ("nc_sum", cumulant.nc_moment_sum, pg),
    ):
        # scale: the larger of the closed-form moment and the route's value
        samples = [_rel(tri[k], route([chi] * k, model)) for k in range(1, 9)]
        yield f"meixner_moments_vs_{label}", TOL, samples


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


def _kernel_create(f, kern) -> np.ndarray:
    return np.multiply.outer(f, kern)


def _kernel_neutral(f, kern, lam) -> np.ndarray:
    shape = (-1,) + (1,) * (kern.ndim - 1)
    return (lam * f).reshape(shape) * kern


def _kernel_annihilate(f, kern, g) -> np.ndarray:
    return np.tensordot(g.weights * f, kern, axes=(0, 0))


def _kernel_eta_term(f, kern, eta) -> np.ndarray:
    # second-order contraction: evaluate the first two slots on the diagonal;
    # vanishes on order-1 kernels
    if kern.ndim < 2:
        return np.asarray(0.0)
    diag = np.moveaxis(np.diagonal(kern, axis1=0, axis2=1), -1, 0)
    shape = (-1,) + (1,) * (kern.ndim - 2)
    return (eta * f).reshape(shape) * diag


def _runners() -> dict:
    # built on each call, so a suite function replaced on the module runs
    return {"wick": suite_wick, "cumulant": suite_cumulant, "xfock": suite_xfock,
            "meixner": suite_meixner}


SUITE_NAMES = tuple(_runners())


def run_suite(name: str, params: SuiteParams) -> list[Check]:
    """The checks of suite ``name``, in the order the suite yields them.

    A suite yields ``(name, tol, samples)`` for each check and reduces
    nothing: here each check's residual is the largest of its samples, by
    ``np.max``, so a NaN sample fails it, and its ``elapsed`` is the time
    from the suite's previous yield (or its start) to this one.
    """
    runners = _runners()
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    checks = []
    start = time.perf_counter()
    for check, tol, samples in runners[name](params):
        now = time.perf_counter()
        checks.append(Check(check, float(np.max(samples)), tol, now - start))
        start = now
    return checks
