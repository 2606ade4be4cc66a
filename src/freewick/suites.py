"""Seeded verification suites shared by the CLI and the acceptance tests.

Each check compares two independently computed quantities and reports a
residual against a tolerance.  Randomness is always drawn from a seeded
generator so reports are reproducible; suite parameters (grid size, fiber
nodes, degree budget) default to the desk scale the package is tuned for.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import cumulant, field, fock, jacobi, ncpart, xfock
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fiber, semicircle_fibers

__all__ = ["Check", "SuiteReport", "run_suite", "SUITE_NAMES", "SuiteParams"]

SUITE_NAMES = ("wick", "cumulant", "xfock", "meixner")


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

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class SuiteParams:
    m: int = 6
    fiber_nodes: int = 8
    degree: int = 6
    n_max: int = 4
    seed: int = 0
    tol: float = 1e-10


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _rel_vec(u: fock.FockVector, v: fock.FockVector) -> float:
    return fock.norm(u - v) / max(fock.norm(u), fock.norm(v), 1e-30)


def _random_grid(m: int, rng: np.random.Generator) -> GridMeasure:
    return make_grid(m, lam=rng.standard_normal(m))


def _meixner_model(p: SuiteParams, lam=1.0, eta=1.0):
    g = make_grid(p.m, lam=lam, eta=eta)
    pg = ProductGrid(g, semicircle_fibers(g, p.fiber_nodes))
    return pg, jacobi.JacobiSystem.from_fibers(g, pg.fibers, p.fiber_nodes)


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
        worst = 0.0
        for _ in range(3):
            g = _random_grid(p.m, rng)
            f = rng.standard_normal((p.m,) * n)
            mono = field.monomial_apply(f, fock.vacuum(g, n), g)
            expanded = field.wick_rule_expand(f, g)
            worst = max(worst, _rel_vec(mono, expanded))
        checks.append(Check(f"wick_rule_n{n}", worst, p.tol))

    for n in range(2, p.n_max + 1):
        worst = 0.0
        for parts in range(2, min(3, n) + 1):
            for comp in ncpart._compositions(n, parts):
                g = _random_grid(p.m, rng)
                kernels = [rng.standard_normal((p.m,) * k) for k in comp]
                joint = _outer(kernels)
                seq = field.wick_product_sequential(kernels, g)
                exp = field.wick_product_expand(comp, joint, g)
                worst = max(worst, _rel_vec(seq, exp))
        checks.append(Check(f"normal_product_rule_n{n}", worst, p.tol))

    worst = 0.0
    for n in range(1, min(p.n_max, 4) + 1):
        g = _random_grid(p.m, rng)
        f = rng.standard_normal((p.m,) * n)
        # levels 0..2 hold content under the budget n + 2
        v = fock.FockVector(g, fock.random_vector(g, 2, rng).levels, n + 2)
        explicit = field.wick_apply(f, v, g, form="explicit")
        recursive = field.wick_apply(f, v, g, form="recursive")
        worst = max(worst, _rel_vec(explicit, recursive))
    checks.append(Check("wick_forms_agree", worst, p.tol))

    worst = 0.0
    for n in range(1, p.n_max + 1):
        g = _random_grid(p.m, rng)
        f = rng.standard_normal((p.m,) * n)
        proj = field.wick_apply(f, fock.vacuum(g, n), g)
        err = float(np.abs(proj.levels[n] - f).max())
        for k in range(n):
            err = max(err, float(np.abs(proj.levels[k]).max()))
        worst = max(worst, err)
    checks.append(Check("wick_projection_property", worst, p.tol))
    return checks


def suite_cumulant(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed + 1)
    checks = []

    lam_pg = ProductGrid(_random_grid(p.m, rng))
    fib_pg = ProductGrid(make_grid(p.m), _random_fibers(p.m, p.fiber_nodes, rng))
    for label, pg in (("lambda", lam_pg), ("fiber", fib_pg)):
        worst = 0.0
        for n in range(1, p.degree + 1):
            fs = [rng.standard_normal(p.m) for _ in range(n)]
            worst = max(worst, _rel(cumulant.moment(fs, pg), cumulant.nc_moment_sum(fs, pg)))
        checks.append(Check(f"moment_cumulant_{label}", worst, p.tol))

    worst = 0.0
    for n in range(2, 5):
        fs = [rng.standard_normal(p.m) for _ in range(n)]
        worst = max(
            worst,
            _rel(cumulant.cumulant_from_moments(fs, lam_pg), cumulant.cumulant_direct(fs, lam_pg)),
        )
    checks.append(Check("cumulant_recursion_vs_direct", worst, p.tol))

    # disjointly supported functions: mixed cumulants vanish exactly
    half = p.m // 2
    fa = np.concatenate([np.abs(rng.standard_normal(half)) + 0.5, np.zeros(p.m - half)])
    fb = np.concatenate([np.zeros(half), np.abs(rng.standard_normal(p.m - half)) + 0.5])
    worst = 0.0
    for word in ([fa, fb], [fa, fb, fa], [fa, fa, fb, fb], [fa, fb, fa, fb]):
        worst = max(worst, abs(cumulant.cumulant_direct(word, lam_pg)))
    checks.append(Check("mixed_cumulants_vanish", worst, 0))
    worst = 0.0
    for word in ([fa, fb, fa, fb], [fa, fa, fb, fb]):
        worst = max(worst, _rel(cumulant.moment(word, lam_pg), cumulant.nc_moment_sum(word, lam_pg)))
    checks.append(Check("free_independence_moments", worst, p.tol))

    worst = 0.0
    fs = [rng.standard_normal(p.m) for _ in range(3)]
    for cut in range(1, 3):
        ab = cumulant.moment(fs, lam_pg)
        ba = cumulant.moment(fs[cut:] + fs[:cut], lam_pg)
        worst = max(worst, _rel(ab, ba))
    for na, nb in ((2, 2), (2, 4), (3, 3)):
        a = [rng.standard_normal(p.m) for _ in range(na)]
        b = [rng.standard_normal(p.m) for _ in range(nb)]
        worst = max(worst, _rel(cumulant.moment(a + b, lam_pg), cumulant.moment(b + a, lam_pg)))
    checks.append(Check("traciality", worst, p.tol))

    ones_grid = make_grid(p.m, lam=1.0, eta=1.0)
    tr = cumulant.cumulant_transform(0.5 * np.ones(p.m), ProductGrid(ones_grid), degree=30)
    checks.append(Check("transform_lambda_closed_vs_series", tr.gap, 1e-8))
    tr = cumulant.cumulant_transform(0.25 * np.ones(p.m), fib_pg, degree=30)
    checks.append(Check("transform_fiber_closed_vs_series", tr.gap, 1e-8))
    mei_pg = ProductGrid(ones_grid, semicircle_fibers(ones_grid, p.fiber_nodes))
    fv = (1.0 / 6.0) * np.ones(p.m)
    closed = cumulant.meixner_transform_closed_form(fv, ones_grid)
    series = cumulant.cumulant_transform(fv, mei_pg, degree=30).series
    checks.append(Check("transform_meixner_closed_vs_series", abs(closed - series), 1e-8))
    return checks


def suite_xfock(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed + 2)
    checks = []
    pg, sys = _meixner_model(p)
    g = pg.grid

    # words over a fixed pair of kernels, all patterns up to the budget
    fa, fb = rng.standard_normal(p.m), rng.standard_normal(p.m)
    worst = 0.0
    for d in range(1, p.degree + 1):
        if d <= 4:
            words = itertools.product((fa, fb), repeat=d)
        else:
            words = ([rng.standard_normal(p.m) for _ in range(d)] for _ in range(8))
        for word in words:
            word = list(word)
            worst = max(worst, _rel(cumulant.moment(word, pg), xfock.xmoment(word, sys)))
    checks.append(Check("moments_big_fock_vs_extended", worst, p.tol))

    # general (non-semicircle) fibers as well
    gen_pg = ProductGrid(g, _random_fibers(p.m, p.fiber_nodes, rng))
    gen_sys = jacobi.JacobiSystem.from_fibers(g, gen_pg.fibers, p.fiber_nodes)
    worst = 0.0
    for d in range(1, p.degree + 1):
        word = [rng.standard_normal(p.m) for _ in range(d)]
        worst = max(worst, _rel(cumulant.moment(word, gen_pg), xfock.xmoment(word, gen_sys)))
    checks.append(Check("moments_general_fibers", worst, p.tol))

    worst_norm = 0.0
    worst_tw = 0.0
    for _ in range(20):
        v = fock.FockVector(pg, fock.random_vector(pg, 2, rng).levels, 3)
        f = rng.standard_normal(p.m)
        lhs = xfock.k_transform(xfock.big_fock_realize(f, v, pg), sys)
        # one transform serves both checks: its lmax is sys.max_degree either way
        xv = xfock.k_transform(v, sys, max_degree=lhs.max_degree + 1)
        worst_norm = max(worst_norm, _rel(xfock.x_norm(xv, sys), fock.norm(v)))
        diff = lhs - xfock.xfield(f, xv, sys)
        worst_tw = max(
            worst_tw,
            xfock.x_norm(diff, sys) / max(xfock.x_norm(lhs, sys), 1e-30),
        )
    checks.append(Check("k_transform_isometry", worst_norm, p.tol))
    checks.append(Check("k_transform_intertwines", worst_tw, p.tol))

    worst = 0.0
    for _ in range(5):
        v = fock.random_vector(pg, 2, rng)
        back = xfock.k_inverse(xfock.k_transform(v, sys), sys, pg)
        worst = max(worst, fock.norm(back - v) / max(fock.norm(v), 1e-30))
    checks.append(Check("k_transform_roundtrip", worst, p.tol))

    worst = 0.0
    for n in range(1, 5):
        fs = [rng.standard_normal(p.m) for _ in range(n)]
        gs = [rng.standard_normal(p.m) for _ in range(n)]
        formula = xfock.inner_product_formula(_outer(fs), _outer(gs), sys)
        left = _xplus_word(fs, sys)
        right = _xplus_word(gs, sys)
        worst = max(worst, _rel(formula, xfock.x_inner(left, right, sys)))
    checks.append(Check("inner_product_formula", worst, p.tol))

    delta = np.zeros(p.m, dtype=bool)
    delta[: p.m // 2 + 1] = True
    om = fock.vacuum(pg, 1)
    worst = 0.0
    for l1 in range(0, 4):
        for l2 in range(l1 + 1, 5):
            y = xfock.power_jump(l1, delta, om, pg, sys, orthogonal=False)
            x = xfock.power_jump(l2, delta, om, pg, sys, orthogonal=True)
            worst = max(worst, abs(fock.inner(x, y)))
    checks.append(Check("power_jump_orthogonality", worst, p.tol))

    worst = 0.0
    for l in range(0, 4):
        x = xfock.power_jump(l, delta, om, pg, sys)
        lhs = fock.inner(x, x)
        rhs = float(np.sum(g.weights * delta * sys.g_values(l)))
        worst = max(worst, _rel(lhs, rhs))
    checks.append(Check("power_jump_norm", worst, p.tol))
    return checks


def suite_meixner(p: SuiteParams) -> list[Check]:
    rng = np.random.default_rng(p.seed + 3)
    checks = []
    lam0, eta0 = 1.0, 1.0
    pg, sys = _meixner_model(p, lam=lam0, eta=eta0)
    g = pg.grid

    # recovery through degree 8 needs atoms past the breakdown point
    rec_nodes = max(p.fiber_nodes, 10)
    rec = jacobi.coeffs_from_measure(semicircle_fiber(lam0, eta0, rec_nodes), 8)
    worst_b = float(np.abs(rec.b - lam0).max())
    worst_a = float(np.abs(rec.a[1:] - eta0).max())
    checks.append(Check("semicircle_recovers_b", worst_b, 1e-9))
    checks.append(Check("semicircle_recovers_a", worst_a, 1e-9))
    worst = float(np.abs(rec.g - eta0 ** np.arange(rec.g.size)).max())
    checks.append(Check("norms_are_eta_powers", worst, 1e-10))

    point = jacobi.coeffs_from_measure(semicircle_fiber(0.7, 0.0, p.fiber_nodes), p.fiber_nodes)
    pattern_err = abs(point.b[0] - 0.7) + float(np.abs(point.b[1:]).max())
    pattern_err += float(np.abs(point.a).max())
    pattern_err += float(np.abs(point.g - np.eye(1, point.g.size)[0]).max())
    pattern_err += 0.0 if point.finite_support_n == 1 else 1.0
    checks.append(Check("one_atom_zero_pattern", pattern_err, 0))

    # constant-coefficient actions reduce to the closed slotwise forms
    worst = 0.0
    for n in range(1, 4):
        kern = rng.standard_normal((p.m,) * n)
        f = rng.standard_normal(p.m)
        lifted = xfock.kernel_lift(kern, g, max_degree=n + 1)
        applied = xfock.xfield(f, lifted, sys)
        expected = (
            xfock.kernel_lift(_kernel_create(f, kern), g, max_degree=n + 1)
            + xfock.kernel_lift(_kernel_neutral(f, kern, g.lambda_values), g, max_degree=n + 1)
            + xfock.kernel_lift(_kernel_annihilate(f, kern, g), g, max_degree=n + 1)
            + xfock.kernel_lift(_kernel_eta_term(f, kern, g.eta_values), g, max_degree=n + 1)
        )
        diff = applied - expected
        worst = max(worst, xfock.x_norm(diff, sys) / max(xfock.x_norm(applied, sys), 1e-30))
    checks.append(Check("representation_second_order_form", worst, p.tol))

    # a level-inhomogeneous fiber makes the preserving part level-dependent:
    # the residual is the shortfall of the observed spread below 0.1
    skew = FiberMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    skew_sys = jacobi.JacobiSystem.from_fibers(g, [skew] * p.m, p.fiber_nodes)
    f = np.ones(p.m)
    v0 = xfock.XFockVector(g, 3)
    v0.set_component((0,), np.ones(p.m))
    v1 = xfock.XFockVector(g, 3)
    v1.set_component((1,), np.ones(p.m))
    r0 = float(xfock.xzero(f, v0, skew_sys).component((0,))[0])
    r1 = float(xfock.xzero(f, v1, skew_sys).component((1,))[0])
    checks.append(Check("xzero_level_dependence", max(0.0, 0.1 - abs(r0 - r1)), 0))

    sigma_delta = 1.0
    window = np.ones(p.m, dtype=bool)
    chi = window.astype(float)
    tri = jacobi.meixner_moments(lam0, eta0, sigma_delta, 8)
    worst_big = worst_x = worst_nc = 0.0
    for k in range(1, 9):
        word = [chi] * k
        worst_big = max(worst_big, _rel(tri[k], cumulant.moment(word, pg)))
        worst_x = max(worst_x, _rel(tri[k], xfock.xmoment(word, sys)))
        worst_nc = max(worst_nc, _rel(tri[k], cumulant.nc_moment_sum(word, pg)))
    checks.append(Check("meixner_moments_vs_big_fock", worst_big, p.tol))
    checks.append(Check("meixner_moments_vs_extended", worst_x, p.tol))
    checks.append(Check("meixner_moments_vs_nc_sum", worst_nc, p.tol))
    return checks


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _outer(kernels) -> np.ndarray:
    out = np.asarray(kernels[0], dtype=float)
    for k in kernels[1:]:
        out = np.multiply.outer(out, np.asarray(k, dtype=float))
    return out


def _xplus_word(fs, sys) -> xfock.XFockVector:
    v = xfock.x_vacuum(sys.grid, len(fs))
    for f in reversed(fs):
        v = xfock.xplus(f, v, sys)
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


def run_suite(name: str, params: SuiteParams) -> SuiteReport:
    runners = {
        "wick": suite_wick,
        "cumulant": suite_cumulant,
        "xfock": suite_xfock,
        "meixner": suite_meixner,
    }
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    start = time.perf_counter()
    checks = runners[name](params)
    return SuiteReport(name, checks, time.perf_counter() - start)
