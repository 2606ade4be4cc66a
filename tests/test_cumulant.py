import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from freewick import cumulant, field, fock, grid, jacobi, ncpart, suites, xfock
from freewick.grid import ProductGrid
from freewick.errors import DomainBoundError

from conftest import charge_models, peak_bytes


@pytest.fixture
def lam_spec(rng):
    return ProductGrid(grid.make_grid(6, lam=rng.standard_normal(6)))


@pytest.fixture
def fiber_spec(rng):
    g = grid.make_grid(4)
    fibers = []
    for _ in range(4):
        atoms = np.sort(rng.uniform(-1.0, 1.0, size=5))
        w = rng.uniform(0.2, 1.0, size=5)
        fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
    return ProductGrid(g, fibers)


class TestPointMassDefault:
    # oracle: the formulas of a model given by the lambda table alone

    def test_coefficient_moments_are_lambda_powers(self, rng):
        lam = np.append(rng.standard_normal(5), 0.0)
        spec = ProductGrid(grid.make_grid(6, lam=lam))
        assert spec.size == 6
        for k in range(7):
            assert np.array_equal(spec.coefficient_moment(k), lam**k)

    def test_closed_form_is_the_lambda_sum(self, rng):
        lam = np.append(rng.uniform(-1.5, 1.5, 5), 0.0)
        g = grid.make_grid(6, lam=lam)
        f = rng.uniform(-0.5, 0.5, 6) + 0.1j * rng.uniform(-0.5, 0.5, 6)
        want = np.sum(g.weights * f**2 / (1.0 - lam * f))
        got = cumulant.cumulant_transform(f, ProductGrid(g)).closed_form
        assert abs(got - want) <= 1e-15 * max(abs(want), 1.0)

    def test_radius_is_lambda(self):
        spec = ProductGrid(grid.make_grid(4, lam=[0.0, 1.0, -2.0, 0.5]))
        # the node at lambda = 0 bounds nothing
        res = cumulant.cumulant_transform(np.array([5.0, 0.1, 0.1, 0.1]), spec)
        assert res.gap < 1e-14
        cumulant.cumulant_transform(np.full(4, 0.49), spec)
        for f in (0.5, 0.6):  # |lambda f| >= 1 at the node lambda = -2
            with pytest.raises(DomainBoundError):
                cumulant.cumulant_transform(np.full(4, f), spec)


class TestMoment:
    def test_first_moment_vanishes(self, lam_spec, rng):
        assert cumulant.moment([rng.standard_normal(6)], lam_spec) == 0.0

    def test_gaussian_moments(self):
        spec = ProductGrid(grid.make_grid(6, lam=0.0))
        chi = np.ones(6)
        got = [cumulant.moment([chi] * k, spec) for k in (2, 4, 6)]
        assert np.allclose(got, [1.0, 2.0, 5.0], atol=1e-12)

    def test_centered_poisson_moments(self):
        spec = ProductGrid(grid.make_grid(6, lam=1.0))
        chi = np.ones(6)
        got = [cumulant.moment([chi] * k, spec) for k in (2, 3, 4)]
        assert np.allclose(got, [1.0, 1.0, 3.0], atol=1e-12)

    def test_odd_moments_vanish_when_symmetric(self):
        spec = ProductGrid(grid.make_grid(6, lam=0.0))
        chi = np.ones(6)
        for k in (1, 3, 5):
            assert abs(cumulant.moment([chi] * k, spec)) < 1e-14

    def test_split_matches_full_application(self, lam_spec, rng):
        # dense oracle: the whole word applied to the vacuum on the Fock levels
        fs = [rng.standard_normal(6) for _ in range(4)]
        base = lam_spec.grid
        v = fock.vacuum(base, len(fs))
        for f in reversed(fs):
            v = field.monomial_apply(f, v, base)
        assert abs(cumulant.moment(fs, lam_spec) - float(v.levels[0])) < 1e-12


def _close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


class TestMomentEdges:
    @pytest.mark.parametrize("law", ["lambda", "fiber"])
    def test_one_cell(self, law, rng):
        fibers = [grid.FiberMeasure(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))]
        spec = ProductGrid(grid.make_grid(1, lam=0.7), fibers if law == "fiber" else None)
        for n in range(1, 8):
            fs = [rng.standard_normal(1) for _ in range(n)]
            assert _close(cumulant.moment(fs, spec), cumulant.nc_moment_sum(fs, spec))

    def test_point_mass_fibers(self):
        # eta = 0 collapses every node law to the point mass at lambda
        g = grid.make_grid(5, lam=1.5, eta=0.0)
        spec = ProductGrid(g, [grid.semicircle_fiber(1.5, 0.0, 8) for _ in range(5)])
        assert spec.size == 5
        tri = jacobi.meixner_moments(1.5, 0.0, 1.0, 8)
        for k in range(1, 9):
            assert _close(cumulant.moment([np.ones(5)] * k, spec), tri[k])

    def test_large_atoms(self, rng):
        g = grid.make_grid(3)
        fibers = [grid.FiberMeasure(np.array([-40.0, 0.0, 55.0]), np.array([0.3, 0.4, 0.3]))] * 3
        spec = ProductGrid(g, fibers)
        for n in range(2, 7):
            fs = [rng.standard_normal(3) for _ in range(n)]
            assert _close(cumulant.moment(fs, spec), cumulant.nc_moment_sum(fs, spec))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_words(self, n, fiber_spec, rng):
        fs = [rng.standard_normal(4) for _ in range(n)]
        assert _close(cumulant.moment(fs, fiber_spec), cumulant.nc_moment_sum(fs, fiber_spec))

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_zero_factor(self, at, lam_spec, rng):
        fs = [rng.standard_normal(6) for _ in range(5)]
        fs[at] = np.zeros(6)
        assert cumulant.nc_moment_sum(fs, lam_spec) == 0.0
        assert abs(cumulant.moment(fs, lam_spec)) < 1e-10

    def test_pairing_in_blocks(self, fiber_spec, rng, monkeypatch):
        fs = [rng.standard_normal(4) for _ in range(6)]
        whole = cumulant.moment(fs, fiber_spec)
        monkeypatch.setattr(cumulant, "_PAIR_BLOCK", 5)
        assert _close(cumulant.moment(fs, fiber_spec), whole, 1e-13)

    def test_degree_eight_meixner_at_scale(self):
        # N = 24 * 8 = 192 joint nodes: a dense level 4 alone takes 10 GiB
        g = grid.make_grid(24, lam=1.0, eta=1.0)
        spec = ProductGrid(g, [grid.semicircle_fiber(1.0, 1.0, 8) for _ in range(24)])
        tracemalloc.start()
        try:
            got = cumulant.moment([np.ones(24)] * 8, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.size == 192
        assert _close(got, jacobi.meixner_moments(1.0, 1.0, 1.0, 8)[8])
        assert peak < 5 * 2**20


@pytest.mark.parametrize("model", ["default", "two_laws"])
def test_moment_peak_within_its_charge(model):
    # the charge moments checks before the route runs holds for every word
    # length the route is admitted at
    pg = charge_models()[model]
    f = pg.grid.indicator(0.0, 1.0)
    for n in range(1, ncpart.NC_LIMIT + 1):
        assert peak_bytes(lambda: cumulant.moment([f] * n, pg)) <= cumulant.moment_bytes(n, pg), n


@pytest.mark.parametrize("model", ["default", "two_laws"])
def test_nc_moment_sum_peak_within_its_charge(model):
    # its records dominate from n = 8; past 10 the route takes seconds
    pg = charge_models()[model]
    f = pg.grid.indicator(0.0, 1.0)
    for n in range(1, 11):
        assert peak_bytes(lambda: cumulant.nc_moment_sum([f] * n, pg)) <= cumulant.nc_moment_sum_bytes(n), n


def test_moment_and_xmoment_share_no_fock_route(monkeypatch, lam_spec, fiber_spec, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("route called the other route's machinery")

    def forbid_fock():
        for name in ("vacuum", "create", "annihilate", "neutral", "inner"):
            monkeypatch.setattr(fock, name, forbidden)
        monkeypatch.setattr(field, "monomial_apply", forbidden)

    forbid_fock()
    for name in ("_jacobi_band", "_half_terms", "_pair_terms"):
        monkeypatch.setattr(xfock, name, forbidden)
    for spec, m in ((lam_spec, 6), (fiber_spec, 4)):
        fs = [rng.standard_normal(m) for _ in range(5)]
        assert _close(cumulant.moment(fs, spec), cumulant.nc_moment_sum(fs, spec))
    monkeypatch.undo()
    forbid_fock()
    for name in ("_rank_one_terms", "_pair"):
        monkeypatch.setattr(cumulant, name, forbidden)
    g = grid.make_grid(4, lam=1.0, eta=1.0)
    fibers = [grid.semicircle_fiber(1.0, 1.0, 4) for _ in range(4)]
    spec = ProductGrid(g, fibers)
    sys_ = jacobi.JacobiSystem(spec, 4)
    fs = [rng.standard_normal(4) for _ in range(5)]
    assert _close(xfock.xmoment(fs, sys_), cumulant.nc_moment_sum(fs, spec))


class TestCumulantDirect:
    def test_order_two_is_mass(self, rng):
        spec = ProductGrid(grid.make_grid(6, lam=rng.standard_normal(6)))
        chi = np.ones(6)
        assert abs(cumulant.cumulant_direct([chi, chi], spec) - 1.0) < 1e-12

    def test_order_three_poisson(self):
        spec = ProductGrid(grid.make_grid(6, lam=1.0))
        chi = np.ones(6)
        assert abs(cumulant.cumulant_direct([chi] * 3, spec) - 1.0) < 1e-12

    def test_fiber_semicircle_fourth(self):
        g = grid.make_grid(5, lam=1.0, eta=1.0)
        fibers = [grid.semicircle_fiber(1.0, 1.0, 6) for _ in range(5)]
        spec = ProductGrid(g, fibers)
        chi = np.ones(5)
        # second raw moment of the node law: variance + mean^2 = 2
        assert abs(cumulant.cumulant_direct([chi] * 4, spec) - 2.0) < 1e-12

    def test_order_one_zero(self, lam_spec, rng):
        assert cumulant.cumulant_direct([rng.standard_normal(6)], lam_spec) == 0.0


class TestMomentCumulantConsistency:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_lambda_mode(self, n, lam_spec, rng):
        fs = [rng.standard_normal(6) for _ in range(n)]
        a = cumulant.moment(fs, lam_spec)
        b = cumulant.nc_moment_sum(fs, lam_spec)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fiber_mode(self, n, fiber_spec, rng):
        fs = [rng.standard_normal(4) for _ in range(n)]
        a = cumulant.moment(fs, fiber_spec)
        b = cumulant.nc_moment_sum(fs, fiber_spec)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    @pytest.mark.parametrize("law", ["lambda", "fiber"])
    def test_one_cumulant_per_distinct_block(self, law, lam_spec, fiber_spec, rng, monkeypatch):
        spec = lam_spec if law == "lambda" else fiber_spec
        fs = [rng.standard_normal(spec.grid.size) for _ in range(7)]
        # reference: one cumulant per block of every partition, same order
        want = 0.0
        requested = set()
        for p in ncpart.enumerate_nc(len(fs)):
            term = 1.0
            for block in p.blocks:
                requested.add(block)
                term *= cumulant.cumulant_direct([fs[x - 1] for x in block], spec)
                if term == 0.0:
                    break
            want += term
        calls = 0
        direct = cumulant.cumulant_direct

        def counted(*args):
            nonlocal calls
            calls += 1
            return direct(*args)

        monkeypatch.setattr(cumulant, "cumulant_direct", counted)
        assert cumulant.nc_moment_sum(fs, spec) == want
        assert calls == len(requested) < 2 ** len(fs)


class TestCumulantFromMoments:
    def test_order_one(self, lam_spec, rng):
        assert abs(cumulant.cumulant_from_moments([rng.standard_normal(6)], lam_spec)) < 1e-14

    def test_order_two_is_moment(self, lam_spec, rng):
        fs = [rng.standard_normal(6) for _ in range(2)]
        a = cumulant.cumulant_from_moments(fs, lam_spec)
        assert abs(a - cumulant.moment(fs, lam_spec)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_direct_lambda(self, n, lam_spec, rng):
        fs = [rng.standard_normal(6) for _ in range(n)]
        a = cumulant.cumulant_from_moments(fs, lam_spec)
        b = cumulant.cumulant_direct(fs, lam_spec)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    def test_matches_direct_fiber(self, fiber_spec, rng):
        fs = [rng.standard_normal(4) for _ in range(4)]
        a = cumulant.cumulant_from_moments(fs, fiber_spec)
        b = cumulant.cumulant_direct(fs, fiber_spec)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    def test_leaves_no_cyclic_garbage(self, lam_spec, rng):
        # the solved subwords are freed by reference counting when the call returns
        fs = [rng.standard_normal(6) for _ in range(4)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            cumulant.cumulant_from_moments(fs, lam_spec)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestFreeIndependence:
    def test_mixed_cumulants_exactly_zero(self, rng):
        spec = ProductGrid(grid.make_grid(6, lam=rng.standard_normal(6)))
        fa = np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0])
        fb = np.array([0.0, 0.0, 0.0, 1.5, 1.0, 2.0])
        for word in ([fa, fb], [fa, fb, fa], [fa, fa, fb, fb], [fb, fa, fb]):
            assert cumulant.cumulant_direct(word, spec) == 0.0

    def test_alternating_word_matches_prediction(self, rng):
        spec = ProductGrid(grid.make_grid(6, lam=rng.standard_normal(6)))
        fa = np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0])
        fb = np.array([0.0, 0.0, 0.0, 1.5, 1.0, 2.0])
        word = [fa, fb, fa, fb]
        a = cumulant.moment(word, spec)
        b = cumulant.nc_moment_sum(word, spec)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


class TestTraciality:
    def test_cyclic_shifts(self, lam_spec, rng):
        fs = [rng.standard_normal(6) for _ in range(6)]
        base = cumulant.moment(fs, lam_spec)
        for cut in range(1, 6):
            rotated = cumulant.moment(fs[cut:] + fs[:cut], lam_spec)
            assert abs(base - rotated) <= 1e-10 * max(abs(base), 1.0)


class TestTransform:
    def test_gaussian_is_quadratic(self):
        spec = ProductGrid(grid.make_grid(6, lam=0.0))
        res = cumulant.cumulant_transform(0.5 * np.ones(6), spec)
        assert abs(res.closed_form - 0.25) < 1e-14
        assert abs(res.series - 0.25) < 1e-14

    def test_poisson_geometric_series(self):
        spec = ProductGrid(grid.make_grid(6, lam=1.0))
        res = cumulant.cumulant_transform(0.5 * np.ones(6), spec, degree=30)
        assert abs(res.closed_form - 0.5) < 1e-14
        assert res.gap <= 1e-8
        assert res.gap <= res.tail_bound * (1 + 1e-9)

    def test_remainder_closes_the_truncation(self, fiber_spec):
        # past degree d the series at a joint node is geometric in s f: its
        # tail w f**2 (s f)**(d-1) / (1 - s f) sums to 2**-30 here
        res = cumulant.cumulant_transform(0.5 * np.ones(6), ProductGrid(grid.make_grid(6, lam=1.0)))
        assert abs(res.remainder - 2.0**-30) < 1e-22
        assert abs(res.closed_form - res.series - res.remainder) < 1e-15
        for fv in (0.3 * np.ones(4), (0.3 + 0.2j) * np.ones(4)):
            res = cumulant.cumulant_transform(fv, fiber_spec, degree=8)
            assert abs(res.remainder) > 1e-8
            assert abs(res.closed_form - res.series - res.remainder) < 1e-15

    def test_fiber_mode_consistency(self, fiber_spec):
        fv = 0.3 * np.ones(4)
        res = cumulant.cumulant_transform(fv, fiber_spec, degree=40)
        # the analytic tail bound holds up to accumulated roundoff
        assert res.gap <= res.tail_bound + 1e-14
        assert res.gap < 1e-8

    def test_meixner_closed_form(self):
        g = grid.make_grid(6, lam=1.0, eta=1.0)
        fibers = [grid.semicircle_fiber(1.0, 1.0, 8) for _ in range(6)]
        spec = ProductGrid(g, fibers)
        fv = (1.0 / 6.0) * np.ones(6)
        closed = cumulant.meixner_transform_closed_form(fv, g)
        res = cumulant.cumulant_transform(fv, spec, degree=30)
        assert abs(closed - res.series) < 1e-8

    def test_complex_arguments(self):
        spec = ProductGrid(grid.make_grid(4, lam=1.0))
        fv = (0.3 + 0.2j) * np.ones(4)
        res = cumulant.cumulant_transform(fv, spec, degree=60)
        assert abs(res.closed_form - res.series) < 1e-10

    @pytest.mark.parametrize("shift", [-1, 1], ids=["one_degree_early", "one_degree_late"])
    def test_suite_catches_remainder_off_by_one(self, shift, monkeypatch):
        # the suite's closed-vs-series checks fail when the remainder starts a
        # degree early or late; at f = 0.25 the fiber check missed it
        exact = cumulant.cumulant_transform

        def mutant(fvals, pg, degree=30):
            shifted = exact(fvals, pg, degree + shift).remainder
            return dataclasses.replace(exact(fvals, pg, degree), remainder=shifted)

        names = {"transform_lambda_closed_vs_series", "transform_fiber_closed_vs_series"}
        checks = [c for c in suites.run_suite("cumulant", suites.SuiteParams()) if c.name in names]
        assert len(checks) == 2 and all(c.passed for c in checks)
        monkeypatch.setattr(cumulant, "cumulant_transform", mutant)
        checks = [c for c in suites.run_suite("cumulant", suites.SuiteParams()) if c.name in names]
        assert len(checks) == 2 and not any(c.passed for c in checks)

    def test_radius_violation(self):
        spec = ProductGrid(grid.make_grid(4, lam=2.0))
        with pytest.raises(DomainBoundError):
            cumulant.cumulant_transform(0.6 * np.ones(4), spec)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "one cell at seed 6 draws lambda = 0.00123, so kappa_4 = 1.8e-7 is solved out of "
        "an order-4 moment of 0.234: the float moments already carry the 1.127e-10 gap, "
        "which exact Fraction arithmetic on them reproduces"
    ),
)
def test_one_cell_recursion_vs_direct_at_seed_6():
    checks = suites.run_suite("cumulant", suites.SuiteParams(m=1, seed=6))
    assert all(c.passed for c in checks), [(c.name, c.residual) for c in checks if not c.passed]
