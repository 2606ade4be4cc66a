"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Tolerances and timing budgets are pinned here and never
loosened.
"""

import itertools
import time

import numpy as np

from freewick import cumulant, field, fock, grid, jacobi, ncpart, suites, xfock
from freewick.grid import ProductGrid, make_grid, semicircle_fiber
from freewick.jacobi import JacobiSystem

M = 6
FIBER_NODES = 8
DEGREE = 6


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def rel_vec(u, v):
    return fock.norm(u - v) / max(fock.norm(u), fock.norm(v), 1e-30)


def outer(kernels):
    out = np.asarray(kernels[0], dtype=float)
    for k in kernels[1:]:
        out = np.multiply.outer(out, np.asarray(k, dtype=float))
    return out


def test_criterion_1_partition_counts():
    start = time.perf_counter()
    for n in range(1, 13):
        direct = len(ncpart.enumerate_nc(n))
        _, brute = ncpart.brute_noncrossing_count(n)
        assert direct == brute == ncpart.catalan(n), f"count mismatch at n={n}"
    for n in range(1, 11):
        direct = len(ncpart.enumerate_gn(n))
        assert direct == ncpart.gn_count_recursion(n), f"marked count mismatch at n={n}"
        assert direct == len(ncpart.brute_gn(n)), f"marked brute mismatch at n={n}"
    elapsed = time.perf_counter() - start
    report("criterion-1 partition counts", elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_wick_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for n in range(1, 6):
        for _ in range(20):
            g = make_grid(M, lam=rng.standard_normal(M))
            f = rng.standard_normal((M,) * n)
            mono = field.monomial_apply(f, fock.vacuum(g, n), g)
            expanded = field.wick_rule_expand(f, g)
            worst = max(worst, rel_vec(mono, expanded))
    elapsed = time.perf_counter() - start
    report(
        "criterion-2 wick rule",
        worst <= 1e-10 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_normal_product_rule():
    rng = np.random.default_rng(30)
    worst = 0.0
    for n in range(1, 6):
        for parts in range(1, min(3, n) + 1):
            for comp in ncpart.compositions(n, parts):
                g = make_grid(M, lam=rng.standard_normal(M))
                kernels = [rng.standard_normal((M,) * k) for k in comp]
                seq = field.wick_product_sequential(kernels, g)
                exp = field.wick_product_expand(comp, outer(kernels), g)
                worst = max(worst, rel_vec(seq, exp))
    report("criterion-3 normal product rule", worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_4_moment_cumulant():
    rng = np.random.default_rng(40)
    lam_pg = ProductGrid(make_grid(M, lam=rng.standard_normal(M)))
    fibers = []
    for _ in range(M):
        atoms = np.sort(rng.uniform(-1.0, 1.0, size=FIBER_NODES))
        w = rng.uniform(0.2, 1.0, size=FIBER_NODES)
        fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
    fib_pg = ProductGrid(make_grid(M), fibers)
    worst = 0.0
    for pg in (lam_pg, fib_pg):
        for n in range(1, 7):
            fs = [rng.standard_normal(M) for _ in range(n)]
            worst = max(worst, rel(cumulant.moment(fs, pg), cumulant.nc_moment_sum(fs, pg)))
    fa = np.array([1.0, 0.5, 2.0, 0.0, 0.0, 0.0])
    fb = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 0.5])
    mixed = 0.0
    for word in ([fa, fb], [fa, fb, fa], [fa, fa, fb], [fa, fb, fa, fb]):
        mixed = max(mixed, abs(cumulant.cumulant_direct(word, lam_pg)))
    report(
        "criterion-4 moment-cumulant recursion",
        worst <= 1e-10 and mixed == 0.0,
        f"max rel err {worst:.2e}, mixed {mixed:.1e}",
    )


def test_criterion_5_cumulant_transforms():
    # half the admissible radius in both regimes
    g1 = make_grid(M, lam=1.0)
    res = cumulant.cumulant_transform(0.5 * np.ones(M), ProductGrid(g1), degree=30)
    gap_lambda = res.gap

    gm = make_grid(M, lam=1.0, eta=1.0)
    fibers = [semicircle_fiber(1.0, 1.0, FIBER_NODES) for _ in range(M)]
    pg = ProductGrid(gm, fibers)
    fv = (1.0 / 6.0) * np.ones(M)  # support radius 3, half of 1/3
    closed = cumulant.meixner_transform_closed_form(fv, gm)
    series = cumulant.cumulant_transform(fv, pg, degree=30).series
    gap_meixner = abs(closed - series)
    report(
        "criterion-5 cumulant transforms",
        gap_lambda <= 1e-8 and gap_meixner <= 1e-8,
        f"gaps {gap_lambda:.2e}, {gap_meixner:.2e}",
    )


def test_criterion_6_jacobi_layer():
    lam0, eta0 = 0.8, 1.7
    node = jacobi.coeffs_from_measure(semicircle_fiber(lam0, eta0, 10), 8)
    err_b = float(np.abs(node.b - lam0).max())
    err_a = float(np.abs(node.a[1:] - eta0).max())
    err_g = float(np.abs(jacobi.norms(node) - eta0 ** np.arange(9)).max())

    point = jacobi.coeffs_from_measure(grid.point_fiber(0.6), 6)
    zero_pattern = (
        point.finite_support_n == 1
        and point.b[0] == 0.6
        and not np.any(point.b[1:])
        and not np.any(point.a)
        and point.g[0] == 1.0
        and not np.any(point.g[1:])
    )
    report(
        "criterion-6 jacobi layer",
        err_b <= 1e-9 and err_a <= 1e-9 and err_g <= 1e-10 and zero_pattern,
        f"b {err_b:.2e}, a {err_a:.2e}, g {err_g:.2e}",
    )


def test_criterion_7_extended_fock_consistency():
    rng = np.random.default_rng(70)
    g = make_grid(M, lam=0.4, eta=0.9)
    fibers = []
    for _ in range(M):
        atoms = np.sort(rng.uniform(-1.3, 1.3, size=FIBER_NODES))
        w = rng.uniform(0.2, 1.0, size=FIBER_NODES)
        fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
    pg = ProductGrid(g, fibers)
    sys = JacobiSystem(pg, FIBER_NODES)

    # all words over a fixed kernel pair up to the degree budget, plus
    # fresh random kernels at each degree
    fa, fb = rng.standard_normal(M), rng.standard_normal(M)
    worst = 0.0
    for d in range(1, DEGREE + 1):
        for word in itertools.product((fa, fb), repeat=d):
            word = list(word)
            worst = max(worst, rel(cumulant.moment(word, pg), xfock.xmoment(word, sys)))
        for _ in range(5):
            word = [rng.standard_normal(M) for _ in range(d)]
            worst = max(worst, rel(cumulant.moment(word, pg), xfock.xmoment(word, sys)))

    worst_norm = worst_tw = 0.0
    for _ in range(20):
        v = fock.random_vector(pg, 3, rng)
        v.levels[3][:] = 0
        xv = xfock.k_transform(v, sys)
        worst_norm = max(worst_norm, rel(fock.norm(xv), fock.norm(v)))
        f = rng.standard_normal(M)
        lhs = xfock.k_transform(xfock.big_fock_realize(f, v), sys)
        rhs = xfock.xfield(f, xfock.k_transform(v, sys, max_degree=lhs.max_level + 1))
        worst_tw = max(worst_tw, fock.norm(lhs - rhs) / max(fock.norm(lhs), 1e-30))
    ok = worst <= 1e-10 and worst_norm <= 1e-10 and worst_tw <= 1e-10
    report(
        "criterion-7 extended fock consistency",
        ok,
        f"moments {worst:.2e}, isometry {worst_norm:.2e}, intertwine {worst_tw:.2e}",
    )


def test_criterion_8_inner_product_formula():
    rng = np.random.default_rng(80)
    g = make_grid(M, lam=0.7, eta=1.2)
    pg = ProductGrid(g, grid.semicircle_fibers(g, FIBER_NODES))
    sys = JacobiSystem(pg, FIBER_NODES)
    worst = 0.0
    for n in range(1, 5):
        fs = [rng.standard_normal(M) for _ in range(n)]
        hs = [rng.standard_normal(M) for _ in range(n)]
        formula = xfock.inner_product_formula(outer(fs), outer(hs), sys)
        left, right = _raise_word(fs, sys), _raise_word(hs, sys)
        direct = fock.inner(left, right)
        worst = max(worst, abs(formula - direct) / max(abs(direct), 1.0))
    report("criterion-8 inner-product formula", worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_9_meixner_characterization():
    rng = np.random.default_rng(90)
    lam0, eta0, mass = 1.0, 1.0, 1.0
    g = make_grid(M, lam=lam0, eta=eta0)
    fibers = [semicircle_fiber(lam0, eta0, FIBER_NODES) for _ in range(M)]
    pg = ProductGrid(g, fibers)
    sys = JacobiSystem(pg, FIBER_NODES)

    # slotwise closed forms of the graded actions, exact for constant coefficients
    worst_slot = 0.0
    for n in (1, 2, 3):
        kern = rng.standard_normal((M,) * n)
        f = rng.standard_normal(M)
        applied = xfock.xfield(f, xfock.kernel_lift(kern, sys, max_degree=n + 1))
        expect = xfock.kernel_lift(np.multiply.outer(f, kern), sys, max_degree=n + 1)
        shape = (-1,) + (1,) * (n - 1)
        expect = expect + xfock.kernel_lift((g.lambda_values * f).reshape(shape) * kern, sys, n + 1)
        expect = expect + xfock.kernel_lift(np.tensordot(g.weights * f, kern, axes=(0, 0)), sys, n + 1)
        if n >= 2:
            diag = np.moveaxis(np.diagonal(kern, axis1=0, axis2=1), -1, 0)
            shape2 = (-1,) + (1,) * (n - 2)
            expect = expect + xfock.kernel_lift((g.eta_values * f).reshape(shape2) * diag, sys, n + 1)
        worst_slot = max(worst_slot, fock.norm(applied - expect) / max(fock.norm(applied), 1e-30))

    # converse mechanism: a two-atom fiber with unequal masses has a
    # level-dependent preserving part
    skew = grid.FiberMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    skew_sys = JacobiSystem(ProductGrid(g, [skew] * M), 4)
    f = np.ones(M)
    vals = []
    for l in (0, 1):
        v = xfock.x_vacuum(skew_sys, 4) * 0.0
        xfock.set_component(v, (l,), np.ones(M))
        vals.append(float(xfock.component(xfock.xzero(f, v), (l,))[0]))
    level_dependent = abs(vals[0] - vals[1]) > 0.1

    tri = jacobi.meixner_moments(lam0, eta0, mass, 8)
    frozen_ok = np.allclose(tri[1:5], [0.0, 1.0, 1.0, 4.0], atol=1e-12)
    chi = np.ones(M)
    worst_mom = 0.0
    for k in range(1, 9):
        word = [chi] * k
        worst_mom = max(worst_mom, rel(tri[k], cumulant.moment(word, pg)))
        worst_mom = max(worst_mom, rel(tri[k], xfock.xmoment(word, sys)))
        worst_mom = max(worst_mom, rel(tri[k], cumulant.nc_moment_sum(word, pg)))
    ok = worst_slot <= 1e-10 and level_dependent and frozen_ok and worst_mom <= 1e-10
    report(
        "criterion-9 meixner characterization",
        ok,
        f"slot {worst_slot:.2e}, moments {worst_mom:.2e}",
    )


def test_criterion_10_power_jump_orthogonality():
    rng = np.random.default_rng(100)
    g = make_grid(M, lam=0.2, eta=0.8)
    fibers = []
    for _ in range(M):
        atoms = np.sort(rng.uniform(-1.1, 1.1, size=FIBER_NODES))
        w = rng.uniform(0.2, 1.0, size=FIBER_NODES)
        fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
    pg = ProductGrid(g, fibers)
    sys = JacobiSystem(pg, FIBER_NODES)
    delta = np.ones(M, dtype=bool)
    om = fock.vacuum(pg, 1)
    worst = 0.0
    for l1 in range(0, 4):
        for l2 in range(l1 + 1, 5):
            y = xfock.power_jump(l1, delta, om, sys, orthogonal=False)
            x = xfock.power_jump(l2, delta, om, sys, orthogonal=True)
            worst = max(worst, abs(fock.inner(x, y)))
    report("criterion-10 power-jump orthogonality", worst <= 1e-10, f"max |tau| {worst:.2e}")


def test_full_verification_under_budget():
    start = time.perf_counter()
    reports = [suites.run_suite(name, suites.SuiteParams()) for name in suites.SUITE_NAMES]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 60.0
    report("full verification suite", ok, f"{elapsed:.1f}s")


def _raise_word(fs, sys):
    v = xfock.x_vacuum(sys, len(fs))
    for f in reversed(fs):
        v = xfock.xplus(f, v)
    return v
