import numpy as np
import pytest

from freewick import cumulant, fock, grid, xfock
from freewick.errors import CapacityError
from freewick.grid import ProductGrid
from freewick.jacobi import JacobiSystem
from freewick.xfock import XFockVector


M_GRID = 5
M_FIBER = 8


@pytest.fixture
def meixner():
    g = grid.make_grid(M_GRID, lam=1.0, eta=1.0)
    fibers = grid.semicircle_fibers(g, M_FIBER)
    pg = ProductGrid(g, fibers)
    sys = JacobiSystem.from_fibers(g, fibers, M_FIBER)
    return g, fibers, pg, sys


@pytest.fixture
def general(rng):
    g = grid.make_grid(M_GRID, lam=0.3, eta=0.5)
    fibers = []
    for _ in range(M_GRID):
        atoms = np.sort(rng.uniform(-1.2, 1.2, size=M_FIBER))
        w = rng.uniform(0.2, 1.0, size=M_FIBER)
        fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
    pg = ProductGrid(g, fibers)
    sys = JacobiSystem.from_fibers(g, fibers, M_FIBER)
    return g, fibers, pg, sys


def headroom(pg, rng, top=2, budget=3):
    v = fock.random_vector(pg, budget, rng)
    for k in range(top + 1, budget + 1):
        v.levels[k][:] = 0
    return v


class TestGradedActions:
    def test_raising_on_vacuum(self, meixner, rng):
        g, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        out = xfock.xplus(f, xfock.x_vacuum(g, 2), sys)
        assert list(out.components) == [(0,)]
        assert np.allclose(out.component((0,)), f)
        assert xfock.xzero(f, xfock.x_vacuum(g, 2), sys).scalar == 0.0
        assert xfock.xminus(f, xfock.x_vacuum(g, 2), sys).scalar == 0.0

    def test_lower_after_raise_contracts(self, meixner, rng):
        g, _, _, sys = meixner
        f, h = rng.standard_normal(M_GRID), rng.standard_normal(M_GRID)
        v = xfock.xminus(f, xfock.xplus(h, xfock.x_vacuum(g, 2), sys), sys)
        assert abs(v.scalar - g.inner(f, h)) < 1e-12
        assert not v.components

    def test_grading_degrees(self, meixner, rng):
        g, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        v = XFockVector(g, 5)
        v.set_component((1, 0), rng.standard_normal((M_GRID, M_GRID)))
        deg = 3
        for ls in xfock.xplus(f, v, sys).components:
            assert xfock.multi_index_degree(ls) == deg + 1
        for ls in xfock.xzero(f, v, sys).components:
            assert xfock.multi_index_degree(ls) == deg
        for ls in xfock.xminus(f, v, sys).components:
            assert xfock.multi_index_degree(ls) == deg - 1

    def test_meixner_preserving_part_is_uniform(self, meixner, rng):
        # constant recurrence coefficients: one multiplier at every level
        g, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        for l in (0, 1, 2):
            v = XFockVector(g, 6)
            v.set_component((l,), np.ones(M_GRID))
            out = xfock.xzero(f, v, sys).component((l,))
            assert np.abs(out - g.lambda_values * f).max() < 1e-10

    def test_capacity(self, meixner, rng):
        g, _, _, sys = meixner
        v = XFockVector(g, 2)
        v.set_component((1,), rng.standard_normal(M_GRID))
        with pytest.raises(CapacityError):
            xfock.xplus(rng.standard_normal(M_GRID), v, sys)


class TestMoments:
    def test_field_centered(self, meixner, rng):
        _, _, _, sys = meixner
        assert xfock.xmoment([rng.standard_normal(M_GRID)], sys) == 0.0

    def test_window_variance(self, meixner):
        g, fibers, _, sys = meixner
        chi = np.ones(M_GRID)
        assert abs(xfock.xmoment([chi, chi], sys) - 1.0) < 1e-12

    def test_meixner_fourth_moment(self, meixner):
        _, _, _, sys = meixner
        chi = np.ones(M_GRID)
        assert abs(xfock.xmoment([chi] * 4, sys) - 4.0) < 1e-10

    def test_big_fock_gaussian_fourth(self):
        g = grid.make_grid(M_GRID, lam=0.0, eta=1.0)
        fibers = [grid.semicircle_fiber(0.0, 1.0, M_FIBER) for _ in range(M_GRID)]
        pg = ProductGrid(g, fibers)
        chi = np.ones(M_GRID)
        assert abs(cumulant.moment([chi] * 4, pg) - 3.0) < 1e-10

    def test_big_fock_field_centered(self, general, rng):
        _, _, pg, _ = general
        assert cumulant.moment([rng.standard_normal(M_GRID)], pg) == 0.0

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_paths_agree(self, degree, general, rng):
        _, _, pg, sys = general
        fs = [rng.standard_normal(M_GRID) for _ in range(degree)]
        a = cumulant.moment(fs, pg)
        b = xfock.xmoment(fs, sys)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)


class TestKTransform:
    def test_constant_slot(self, meixner, rng):
        g, _, pg, sys = meixner
        f = rng.standard_normal(M_GRID)
        v = fock.zero(pg, 1)
        v.levels[1] = pg.lift(f)
        xv = xfock.k_transform(v, sys)
        assert np.abs(xv.component((0,)) - f).max() < 1e-12

    def test_linear_slot(self, meixner, rng):
        # coordinate profile decomposes into degree one plus its mean
        g, _, pg, sys = meixner
        f = rng.standard_normal(M_GRID)
        v = fock.zero(pg, 1)
        v.levels[1] = pg.lift(f) * pg.svalues
        xv = xfock.k_transform(v, sys)
        assert np.abs(xv.component((1,)) - f).max() < 1e-12
        assert np.abs(xv.component((0,)) - g.lambda_values * f).max() < 1e-12

    def test_isometry(self, general, rng):
        g, _, pg, sys = general
        for _ in range(10):
            v = headroom(pg, rng)
            xv = xfock.k_transform(v, sys)
            a, b = xfock.x_norm(xv, sys), fock.norm(v)
            assert abs(a - b) <= 1e-10 * b

    def test_intertwines_field(self, general, rng):
        g, _, pg, sys = general
        for _ in range(5):
            v = headroom(pg, rng)
            f = rng.standard_normal(M_GRID)
            lhs = xfock.k_transform(xfock.big_fock_realize(f, v, pg), sys)
            rhs = xfock.xfield(f, xfock.k_transform(v, sys, max_degree=lhs.max_degree + 1), sys)
            num = xfock.x_norm(lhs - rhs, sys)
            assert num <= 1e-10 * max(xfock.x_norm(lhs, sys), 1.0)

    def test_roundtrip(self, general, rng):
        g, _, pg, sys = general
        v = headroom(pg, rng)
        back = xfock.k_inverse(xfock.k_transform(v, sys), sys, pg)
        assert fock.norm(back - v) <= 1e-10 * fock.norm(v)

    def test_intertwines_word_on_vacuum(self, general, rng):
        # transformed field words applied to the vacuum agree componentwise
        # at reachable degrees; beyond the word length the exact content is
        # zero and only weighted-norm noise remains (tiny squared norms
        # amplify roundoff in raw coefficients)
        g, _, pg, sys = general
        fs = [rng.standard_normal(M_GRID) for _ in range(3)]
        big = fock.vacuum(pg, 3)
        for f in reversed(fs):
            big = xfock.big_fock_realize(f, big, pg)
        lhs = xfock.k_transform(big, sys)
        rhs = xfock.x_vacuum(g, 3)
        for f in reversed(fs):
            rhs = xfock.xfield(f, rhs, sys)
        for ls in set(lhs.components) | set(rhs.components):
            if xfock.multi_index_degree(ls) <= 3:
                diff = np.abs(lhs.component(ls) - rhs.component(ls)).max()
                assert diff < 1e-10, ls
        assert abs(lhs.scalar - rhs.scalar) < 1e-10
        assert xfock.x_norm(lhs - rhs, sys) < 1e-10

    def test_distinct_components_orthogonal(self, meixner, rng):
        g, _, pg, sys = meixner
        u = XFockVector(g, 4)
        u.set_component((1, 0), rng.standard_normal((M_GRID, M_GRID)))
        w = XFockVector(g, 4)
        w.set_component((0, 1), rng.standard_normal((M_GRID, M_GRID)))
        assert xfock.x_inner(u, w, sys) == 0.0

    def test_requires_product_grid(self, rng):
        g = grid.make_grid(3, lam=1.0, eta=1.0)
        sys = JacobiSystem.meixner(g, 4)
        v = fock.vacuum(g, 2)
        with pytest.raises(TypeError):
            xfock.k_transform(v, sys)

    def test_requires_spanning_degree(self, meixner, rng):
        g, fibers, pg, _ = meixner
        shallow = JacobiSystem.from_fibers(g, fibers, M_FIBER - 2)
        v = fock.random_vector(pg, 1, rng)
        with pytest.raises(ValueError):
            xfock.k_transform(v, shallow)


class TestInnerProductFormula:
    def test_order_one_is_base_inner(self, meixner, rng):
        g, _, _, sys = meixner
        f, h = rng.standard_normal(M_GRID), rng.standard_normal(M_GRID)
        got = xfock.inner_product_formula(f, h, sys)
        assert abs(got - g.inner(f, h)) < 1e-12

    def test_order_two_meixner_form(self, meixner, rng):
        g, _, _, sys = meixner
        fk = rng.standard_normal((M_GRID, M_GRID))
        hk = rng.standard_normal((M_GRID, M_GRID))
        w, eta = g.weights, g.eta_values
        expect = np.einsum("ab,ab,a,b->", fk, hk, w, w)
        expect += float(np.sum(np.diagonal(fk) * np.diagonal(hk) * eta * w))
        assert abs(xfock.inner_product_formula(fk, hk, sys) - expect) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_raising_word(self, n, general, rng):
        g, _, _, sys = general
        fs = [rng.standard_normal(M_GRID) for _ in range(n)]
        hs = [rng.standard_normal(M_GRID) for _ in range(n)]
        fk, hk = _outer(fs), _outer(hs)
        formula = xfock.inner_product_formula(fk, hk, sys)
        lhs = _raise_word(fs, sys)
        rhs = _raise_word(hs, sys)
        direct = xfock.x_inner(lhs, rhs, sys)
        assert abs(formula - direct) <= 1e-10 * max(abs(direct), 1.0)


class TestPowerJump:
    def test_degree_zero_is_window_field(self, meixner, rng):
        g, fibers, pg, sys = meixner
        delta = np.array([True, True, False, False, True])
        v = headroom(pg, rng)
        a = xfock.power_jump(0, delta, v, pg, sys)
        b = xfock.big_fock_realize(delta.astype(float), v, pg)
        assert fock.norm(a - b) <= 1e-12 * fock.norm(a)

    def test_orthogonalized_vs_raw(self, general, rng):
        g, _, pg, sys = general
        delta = np.ones(M_GRID, dtype=bool)
        om = fock.vacuum(pg, 1)
        for l1 in range(4):
            for l2 in range(l1 + 1, 5):
                y = xfock.power_jump(l1, delta, om, pg, sys, orthogonal=False)
                x = xfock.power_jump(l2, delta, om, pg, sys, orthogonal=True)
                assert abs(fock.inner(x, y)) < 1e-10

    def test_norm_is_window_weight(self, general):
        g, _, pg, sys = general
        delta = np.array([True, False, True, False, True])
        om = fock.vacuum(pg, 1)
        for l in range(4):
            x = xfock.power_jump(l, delta, om, pg, sys)
            expect = float(np.sum(g.weights * delta * sys.g_values(l)))
            assert abs(fock.inner(x, x) - expect) < 1e-10

    def test_index_window(self, general, rng):
        g, _, pg, sys = general
        om = fock.vacuum(pg, 1)
        mask = np.array([True, False, True, False, False])
        a = xfock.power_jump(1, mask, om, pg, sys)
        b = xfock.power_jump(1, np.array([0, 2]), om, pg, sys)
        assert fock.norm(a - b) == 0.0


class TestMeixnerRepresentation:
    def test_second_order_form_on_kernels(self, meixner, rng):
        # field action on lifted kernels: creation + coefficient-weighted
        # neutral + contraction + second-order diagonal term
        g, _, _, sys = meixner
        for n in (1, 2, 3):
            kern = rng.standard_normal((M_GRID,) * n)
            f = rng.standard_normal(M_GRID)
            applied = xfock.xfield(f, xfock.kernel_lift(kern, g, max_degree=n + 1), sys)
            expect = xfock.kernel_lift(np.multiply.outer(f, kern), g, max_degree=n + 1)
            shape = (-1,) + (1,) * (n - 1)
            expect = expect + xfock.kernel_lift(
                (g.lambda_values * f).reshape(shape) * kern, g, max_degree=n + 1
            )
            expect = expect + xfock.kernel_lift(
                np.tensordot(g.weights * f, kern, axes=(0, 0)), g, max_degree=n + 1
            )
            if n >= 2:
                diag = np.moveaxis(np.diagonal(kern, axis1=0, axis2=1), -1, 0)
                shape2 = (-1,) + (1,) * (n - 2)
                expect = expect + xfock.kernel_lift(
                    (g.eta_values * f).reshape(shape2) * diag, g, max_degree=n + 1
                )
            diff = applied - expect
            assert xfock.x_norm(diff, sys) <= 1e-10 * xfock.x_norm(applied, sys)

    def test_inhomogeneous_fiber_breaks_uniformity(self):
        g = grid.make_grid(M_GRID, lam=0.75, eta=1.0)
        skew = grid.FiberMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
        sys = JacobiSystem.from_fibers(g, [skew] * M_GRID, 4)
        assert abs(sys.nodes[0].b[0] - sys.nodes[0].b[1]) > 0.4
        f = np.ones(M_GRID)
        outs = []
        for l in (0, 1):
            v = XFockVector(g, 4)
            v.set_component((l,), np.ones(M_GRID))
            outs.append(xfock.xzero(f, v, sys).component((l,))[0])
        assert abs(outs[0] - outs[1]) > 0.4


def random_content(g, budget, rng):
    """Dense random content on every multi-index of degree below the budget."""
    v = XFockVector(g, budget, scalar=rng.standard_normal())
    for n in range(1, budget):
        for ls in xfock.multi_indices_exact(n):
            v.set_component(ls, rng.standard_normal((g.size,) * len(ls)))
    return v


class TestDenseLayout:
    @pytest.mark.parametrize("system", ["meixner", "general"])
    def test_field_is_symmetric(self, system, request, rng):
        # xmoment's half-split relies on this symmetry
        g, _, _, sys = request.getfixturevalue(system)
        for _ in range(3):
            u, v = random_content(g, 4, rng), random_content(g, 4, rng)
            f = rng.standard_normal(M_GRID)
            lhs = xfock.x_inner(u, xfock.xfield(f, v, sys), sys)
            rhs = xfock.x_inner(xfock.xfield(f, u, sys), v, sys)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_levels_sized_by_tabulated_degree(self, meixner, rng):
        g, _, pg, sys = meixner
        v = headroom(pg, rng)
        xv = xfock.k_transform(v, sys, max_degree=40)
        assert xv.lmax == sys.max_degree
        out = xfock.xfield(rng.standard_normal(M_GRID), xv, sys)
        size = (sys.max_degree + 1) * M_GRID
        assert [a.shape for a in out.levels] == [(size,) * k for k in range(4)]
        assert XFockVector(g, 5).lmax == 4

    def test_small_meixner_degree_raises(self):
        g = grid.make_grid(M_GRID, lam=1.0, eta=1.0)
        sys = JacobiSystem.meixner(g, 1)
        with pytest.raises(CapacityError):
            xfock.xmoment([np.ones(M_GRID)] * 6, sys)

    def test_null_content_past_tabulation_dropped(self):
        # one-atom laws: g_l = a_l = 0 from l = 1 on
        g = grid.make_grid(M_GRID, lam=0.5, eta=1.0)
        fibers = [grid.point_fiber(0.5)] * M_GRID
        sys = JacobiSystem.from_fibers(g, fibers, 1)
        assert np.all(sys.g_values(1) == 0.0)
        chi = np.ones(M_GRID)
        a, b = cumulant.moment([chi] * 6, ProductGrid(g, fibers)), xfock.xmoment([chi] * 6, sys)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


@pytest.mark.parametrize("case", ["one_cell", "point_mass"])
class TestEdges:
    """One cell (m=1), and point-mass fibers (eta=0: g_l = 0 for l >= 1)."""

    def model(self, case):
        if case == "one_cell":
            g = grid.make_grid(1, lam=0.4, eta=0.7)
        else:
            g = grid.make_grid(M_GRID, lam=np.linspace(-1.0, 1.0, M_GRID), eta=0.0)
        fibers = grid.semicircle_fibers(g, M_FIBER)
        pg = ProductGrid(g, fibers)
        return g, fibers, pg, JacobiSystem.from_fibers(g, fibers, M_FIBER)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_moments_agree(self, case, degree, rng):
        g, _, pg, sys = self.model(case)
        fs = [rng.standard_normal(g.size) for _ in range(degree)]
        a, b = cumulant.moment(fs, pg), xfock.xmoment(fs, sys)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    def test_transform_isometry_and_roundtrip(self, case, rng):
        _, _, pg, sys = self.model(case)
        for _ in range(3):
            v = headroom(pg, rng)
            xv = xfock.k_transform(v, sys)
            assert abs(xfock.x_norm(xv, sys) - fock.norm(v)) <= 1e-10 * fock.norm(v)
            back = xfock.k_inverse(xv, sys, pg)
            assert fock.norm(back - v) <= 1e-10 * fock.norm(v)


class TestSerialization:
    def test_json_dict(self, meixner, rng):
        g, _, _, sys = meixner
        v = XFockVector(g, 3)
        v.scalar = 2.0
        v.set_component((1,), rng.standard_normal(M_GRID))
        v.set_component((0, 0), rng.standard_normal((M_GRID, M_GRID)))
        payload = v.to_json_dict()
        assert payload["scalar"] == 2.0
        # equal degree, then lexicographic
        assert list(payload["components"]) == ["0,0", "1"]


def _outer(kernels):
    out = np.asarray(kernels[0], dtype=float)
    for k in kernels[1:]:
        out = np.multiply.outer(out, np.asarray(k, dtype=float))
    return out


def _raise_word(fs, sys):
    v = xfock.x_vacuum(sys.grid, len(fs))
    for f in reversed(fs):
        v = xfock.xplus(f, v, sys)
    return v
