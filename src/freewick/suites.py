"""Seeded verification suites shared by the CLI and the acceptance tests.

Each check compares two independently computed quantities and reports a
residual against one fixed tolerance, :data:`TOL`, or against exactly 0
where the routes are exact.  Randomness is always drawn from a seeded
generator so reports are reproducible; suite parameters (grid size, fiber
nodes, degree budget) default to the desk scale the package is tuned for.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import cumulant, field, fock, jacobi, ncpart, xfock
from .errors import ConfigError
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fiber, semicircle_fibers

__all__ = ["Check", "SuiteReport", "run_suite", "SUITE_NAMES", "SuiteParams", "TOL"]

# the gate of every check that is not exact; no parameter or config widens it
TOL = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float

    def __post_init__(self):
        # plain floats keep the report JSON-serializable
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = dataclass_field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class SuiteParams:
    m: int = 6
    fiber_nodes: int = 8
    degree: int = 6
    n_max: int = 4
    seed: int = 0

    def __post_init__(self):
        # refused here, so no suite runs on a setting it cannot check
        if min(self.m, self.degree) < 1:
            raise ConfigError("m and degree must be at least 1")
        if self.fiber_nodes < 4:
            raise ConfigError("fiber_nodes must be at least 4: the xfock suite reads "
                              "the node polynomials up to degree 4")
        if not 1 <= self.n_max <= 6:
            raise ConfigError("n_max must lie in 1..6 (expansion cost grows fast)")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


def _worst(samples) -> float:
    """The largest residual sample; NaN if any sample is, so that it fails."""
    return float(np.max(samples))


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

def suite_wick(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed)
    checks = []

    nc_counts = {n: len(ncpart.enumerate_nc(n)) for n in range(1, 11)}
    for n, direct in nc_counts.items():
        checks.append(Check(f"nc_count_catalan_n{n}", abs(direct - ncpart.catalan(n)), 0))
    for n in range(1, 9):
        _, brute = ncpart.brute_noncrossing_count(n)
        checks.append(Check(f"nc_count_brute_n{n}", abs(nc_counts[n] - brute), 0))
        gn = len(ncpart.enumerate_gn(n))
        checks.append(Check(f"gn_count_brute_n{n}", abs(gn - len(ncpart.brute_gn(n))), 0))
        checks.append(Check(f"gn_count_recursion_n{n}", abs(gn - ncpart.gn_count_recursion(n)), 0))

    for n in range(1, p.n_max + 1):
        samples = []
        for _ in range(3):
            g = _random_grid(p.m, rng)
            f = rng.standard_normal((p.m,) * n)
            mono = field.monomial_apply(f, fock.vacuum(g, n), g)
            expanded = field.wick_rule_expand(f, g)
            # scale: the larger norm of the monomial and of its expansion
            samples.append(_rel_vec(mono, expanded))
        checks.append(Check(f"wick_rule_n{n}", _worst(samples), TOL))

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
        checks.append(Check(f"normal_product_rule_n{n}", _worst(samples), TOL))

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
    checks.append(Check("wick_forms_agree", _worst(samples), TOL))

    samples = []
    for n in range(1, p.n_max + 1):
        g = _random_grid(p.m, rng)
        f = rng.standard_normal((p.m,) * n)
        proj = field.wick_apply(f, fock.vacuum(g, n), g)
        samples.append(np.abs(proj.levels[n] - f).max())
        samples += [np.abs(proj.levels[k]).max() for k in range(n)]
    checks.append(Check("wick_projection_property", _worst(samples), TOL))
    return checks


def suite_cumulant(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed + 1)
    checks = []

    lam_pg = ProductGrid(_random_grid(p.m, rng))
    fib_pg = ProductGrid(make_grid(p.m), _random_fibers(p.m, p.fiber_nodes, rng))
    for label, pg in (("lambda", lam_pg), ("fiber", fib_pg)):
        samples = []
        for n in range(1, p.degree + 1):
            fs = [rng.standard_normal(p.m) for _ in range(n)]
            # scale: the larger of the moment and the partition sum
            samples.append(_rel(cumulant.moment(fs, pg), cumulant.nc_moment_sum(fs, pg)))
        checks.append(Check(f"moment_cumulant_{label}", _worst(samples), TOL))

    samples = []
    for n in range(2, 5):
        fs = [rng.standard_normal(p.m) for _ in range(n)]
        # scale: the larger of the two cumulants, not the moments the
        # recursion subtracts (the one-cell failure at seed 6)
        samples.append(
            _rel(cumulant.cumulant_from_moments(fs, lam_pg), cumulant.cumulant_direct(fs, lam_pg))
        )
    checks.append(Check("cumulant_recursion_vs_direct", _worst(samples), TOL))

    # disjointly supported functions: mixed cumulants vanish exactly
    half = p.m // 2
    fa = np.concatenate([np.abs(rng.standard_normal(half)) + 0.5, np.zeros(p.m - half)])
    fb = np.concatenate([np.zeros(half), np.abs(rng.standard_normal(p.m - half)) + 0.5])
    samples = [
        abs(cumulant.cumulant_direct(word, lam_pg))
        for word in ([fa, fb], [fa, fb, fa], [fa, fa, fb, fb], [fa, fb, fa, fb])
    ]
    checks.append(Check("mixed_cumulants_vanish", _worst(samples), 0))
    samples = [
        # scale: the larger of the moment and the partition sum
        _rel(cumulant.moment(word, lam_pg), cumulant.nc_moment_sum(word, lam_pg))
        for word in ([fa, fb, fa, fb], [fa, fa, fb, fb])
    ]
    checks.append(Check("free_independence_moments", _worst(samples), TOL))

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
    checks.append(Check("traciality", _worst(samples), TOL))

    ones_grid = make_grid(p.m, lam=1.0, eta=1.0)
    # the closed form is the series plus its exact remainder past degree 30;
    # with atoms in [-1.5, 1.5], f = 0.5 keeps |s f| <= 0.75 inside the radius
    # and large enough that a remainder off by one degree misses the gate
    for label, fv, pg in (("lambda", 0.5, ProductGrid(ones_grid)), ("fiber", 0.5, fib_pg)):
        tr = cumulant.cumulant_transform(fv * np.ones(p.m), pg, degree=30)
        residual = abs(tr.closed_form - tr.series - tr.remainder)
        checks.append(Check(f"transform_{label}_closed_vs_series", residual, TOL))
    # the closed form is the continuous law's; the series reads its moments
    # through degree 28, and an M-atom Gauss rule matches them through 2M - 1
    mei_pg = ProductGrid(ones_grid, semicircle_fibers(ones_grid, max(p.fiber_nodes, 10)))
    fv = (1.0 / 6.0) * np.ones(p.m)
    closed = cumulant.meixner_transform_closed_form(fv, ones_grid)
    series = cumulant.cumulant_transform(fv, mei_pg, degree=30).series
    checks.append(Check("transform_meixner_closed_vs_series", abs(closed - series), TOL))
    return checks


def suite_xfock(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed + 2)
    checks = []
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
    checks.append(Check("moments_big_fock_vs_extended", _worst(samples), TOL))

    # general (non-semicircle) fibers as well
    gen_pg = ProductGrid(g, _random_fibers(p.m, p.fiber_nodes, rng))
    gen_sys = jacobi.JacobiSystem(gen_pg, p.fiber_nodes)
    samples = []
    for d in range(1, p.degree + 1):
        word = [rng.standard_normal(p.m) for _ in range(d)]
        # scale: the larger of the big-Fock and the extended moment
        samples.append(_rel(cumulant.moment(word, gen_pg), xfock.xmoment(word, gen_sys)))
    checks.append(Check("moments_general_fibers", _worst(samples), TOL))

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
    checks.append(Check("k_transform_isometry", _worst(norm_samples), TOL))
    checks.append(Check("k_transform_intertwines", _worst(tw_samples), TOL))

    samples = []
    for _ in range(5):
        v = fock.random_vector(pg, 2, rng)
        back = xfock.k_inverse(xfock.k_transform(v, sys))
        # scale: the norm of the input vector
        samples.append(fock.distance(back, v) / max(fock.norm(v), 1e-30))
    checks.append(Check("k_transform_roundtrip", _worst(samples), TOL))

    samples = []
    for n in range(1, 5):
        fs = [rng.standard_normal(p.m) for _ in range(n)]
        gs = [rng.standard_normal(p.m) for _ in range(n)]
        formula = xfock.inner_product_formula(_outer(fs), _outer(gs), sys)
        left = _xplus_word(fs, sys)
        right = _xplus_word(gs, sys)
        # scale: the larger of the formula and the inner product
        samples.append(_rel(formula, fock.inner(left, right)))
    checks.append(Check("inner_product_formula", _worst(samples), TOL))

    delta = np.zeros(p.m, dtype=bool)
    delta[: p.m // 2 + 1] = True
    om = fock.vacuum(pg, 1)
    samples = []
    for l1 in range(0, 4):
        for l2 in range(l1 + 1, 5):
            y = xfock.power_jump(l1, delta, om, sys, orthogonal=False)
            x = xfock.power_jump(l2, delta, om, sys, orthogonal=True)
            samples.append(abs(fock.inner(x, y)))
    checks.append(Check("power_jump_orthogonality", _worst(samples), TOL))

    samples = []
    for l in range(0, 4):
        x = xfock.power_jump(l, delta, om, sys)
        lhs = fock.inner(x, x)
        rhs = float(np.sum(g.weights * delta * sys.g[l]))
        # scale: the larger of the squared norm and the window weight
        samples.append(_rel(lhs, rhs))
    checks.append(Check("power_jump_norm", _worst(samples), TOL))
    return checks


def suite_meixner(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed + 3)
    checks = []
    lam0, eta0 = 1.0, 1.0
    sys = _meixner_model(p, lam=lam0, eta=eta0)
    pg, g = sys.model, sys.grid

    # recovery through degree 8 needs atoms past the breakdown point
    rec_nodes = max(p.fiber_nodes, 10)
    rec = jacobi.coeffs_from_measure(semicircle_fiber(lam0, eta0, rec_nodes), 8)
    worst_b = float(np.abs(rec.b - lam0).max())
    worst_a = float(np.abs(rec.a[1:] - eta0).max())
    checks.append(Check("semicircle_recovers_b", worst_b, TOL))
    checks.append(Check("semicircle_recovers_a", worst_a, TOL))
    worst = float(np.abs(rec.g - eta0 ** np.arange(rec.g.size)).max())
    checks.append(Check("norms_are_eta_powers", worst, TOL))

    point = jacobi.coeffs_from_measure(semicircle_fiber(0.7, 0.0, p.fiber_nodes), p.fiber_nodes)
    pattern_err = abs(point.b[0] - 0.7) + float(np.abs(point.b[1:]).max())
    pattern_err += float(np.abs(point.a).max())
    pattern_err += float(np.abs(point.g - np.eye(1, point.g.size)[0]).max())
    pattern_err += 0.0 if point.finite_support_n == 1 else 1.0
    checks.append(Check("one_atom_zero_pattern", pattern_err, 0))

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
    checks.append(Check("representation_second_order_form", _worst(samples), TOL))

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
    checks.append(Check("xzero_level_dependence", _worst([0.0, 0.1 - abs(r0 - r1)]), 0))

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
        checks.append(Check(f"meixner_moments_vs_{label}", _worst(samples), TOL))
    return checks


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


def run_suite(name: str, params: SuiteParams) -> SuiteReport:
    runners = _runners()
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    start = time.perf_counter()
    checks = runners[name](params)
    return SuiteReport(name, checks, time.perf_counter() - start)
