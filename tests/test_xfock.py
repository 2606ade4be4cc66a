import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freewick import cumulant, field, fock, grid, jacobi, ncpart, suites, xfock
from freewick.errors import CapacityError
from freewick.grid import ProductGrid
from freewick.jacobi import JacobiSystem

from conftest import charge_models, peak_bytes


M_GRID = 5
M_FIBER = 8


@pytest.fixture
def meixner():
    g = grid.make_grid(M_GRID, lam=1.0, eta=1.0)
    fibers = grid.semicircle_fibers(g, M_FIBER)
    pg = ProductGrid(g, fibers)
    sys = JacobiSystem(pg, M_FIBER)
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
    sys = JacobiSystem(pg, M_FIBER)
    return g, fibers, pg, sys


def empty(sys, budget):
    """The zero vector with the given degree budget, to write components into."""
    return xfock.x_vacuum(sys, budget) * 0.0


def components(v):
    """The nonzero components of ``v`` by degree, then lexicographically."""
    found = {}
    for i in range(1, len(v.levels)):
        for ls in itertools.product(range(v.base.lmax + 1), repeat=i):
            comp = xfock.component(v, ls)
            if np.any(comp):
                found[ls] = comp
    return {ls: found[ls] for ls in sorted(found, key=lambda ls: (sum(ls) + len(ls), ls))}


def headroom(pg, rng, top=2, budget=3):
    v = fock.random_vector(pg, budget, rng)
    for k in range(top + 1, budget + 1):
        v.levels[k][:] = 0
    return v


class TestGradedActions:
    def test_raising_on_vacuum(self, meixner, rng):
        g, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        out = xfock.xplus(f, xfock.x_vacuum(sys, 2))
        assert list(components(out)) == [(0,)]
        assert np.allclose(xfock.component(out, (0,)), f)
        assert float(xfock.xzero(f, xfock.x_vacuum(sys, 2)).levels[0]) == 0.0
        assert float(xfock.xminus(f, xfock.x_vacuum(sys, 2)).levels[0]) == 0.0

    def test_lower_after_raise_contracts(self, meixner, rng):
        g, _, _, sys = meixner
        f, h = rng.standard_normal(M_GRID), rng.standard_normal(M_GRID)
        v = xfock.xminus(f, xfock.xplus(h, xfock.x_vacuum(sys, 2)))
        assert abs(float(v.levels[0]) - g.inner(f, h)) < 1e-12
        assert not components(v)

    def test_grading_degrees(self, meixner, rng):
        g, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        v = empty(sys, 5)
        xfock.set_component(v, (1, 0), rng.standard_normal((M_GRID, M_GRID)))
        deg = 3
        for ls in components(xfock.xplus(f, v)):
            assert xfock.multi_index_degree(ls) == deg + 1
        for ls in components(xfock.xzero(f, v)):
            assert xfock.multi_index_degree(ls) == deg
        for ls in components(xfock.xminus(f, v)):
            assert xfock.multi_index_degree(ls) == deg - 1

    def test_meixner_preserving_part_is_uniform(self, meixner, rng):
        # constant recurrence coefficients: one multiplier at every level
        g, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        for l in (0, 1, 2):
            v = empty(sys, 6)
            xfock.set_component(v, (l,), np.ones(M_GRID))
            out = xfock.component(xfock.xzero(f, v), (l,))
            assert np.abs(out - g.lambda_values * f).max() < 1e-10

    def test_capacity(self, meixner, rng):
        g, _, _, sys = meixner
        v = empty(sys, 2)
        xfock.set_component(v, (1,), rng.standard_normal(M_GRID))
        with pytest.raises(CapacityError):
            xfock.xplus(rng.standard_normal(M_GRID), v)


class TestSlotSpace:
    def test_one_base_per_system_and_budget(self, meixner):
        _, _, _, sys = meixner
        u, v = xfock.x_vacuum(sys, 4), xfock.kernel_lift(np.ones((M_GRID,) * 2), sys, 4)
        assert u.base is v.base and u.base.size == 4 * M_GRID
        with pytest.raises(ValueError):
            u.base.weights[0] = 1.0
        assert xfock.xfield(np.ones(M_GRID), v).base is u.base

    def test_two_systems_do_not_mix(self, meixner, general, rng):
        # slot spaces of equal size whose weights w g_l differ from l = 1 on
        u = xfock.kernel_lift(rng.standard_normal((M_GRID,) * 2), meixner[3])
        v = xfock.kernel_lift(rng.standard_normal((M_GRID,) * 2), general[3])
        assert u.base.size == v.base.size
        for op in (fock.inner, lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(ValueError):
                op(u, v)


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


def dense_xmoment(fs, sys):
    """Oracle: the split word run on dense levels by ``xfield``, its halves
    paired by ``fock.inner``.  Both halves run at the budget of the longer
    one, so they share a slot space; the shorter half only gains zero slots."""
    split = len(fs) // 2
    budget = len(fs) - split
    right = xfock.x_vacuum(sys, budget)
    for f in reversed(fs[split:]):
        right = xfock.xfield(f, right)
    left = xfock.x_vacuum(sys, budget)
    for f in fs[:split]:
        left = xfock.xfield(f, left)
    return fock.inner(right, left)


def oracle_model(case, rng):
    """Semicircle laws, random laws, point masses (eta = 0) or one cell."""
    if case == "random":
        g = grid.make_grid(4, lam=0.3, eta=0.5)
        fibers = []
        for _ in range(4):
            atoms = np.sort(rng.uniform(-1.5, 1.5, size=M_FIBER))
            w = rng.uniform(0.2, 1.0, size=M_FIBER)
            fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
    else:
        g = {
            "semicircle": lambda: grid.make_grid(4, lam=1.0, eta=1.0),
            "point_mass": lambda: grid.make_grid(4, lam=np.linspace(-1.0, 1.0, 4), eta=0.0),
            "one_cell": lambda: grid.make_grid(1, lam=0.4, eta=0.7),
        }[case]()
        fibers = grid.semicircle_fibers(g, M_FIBER)
    return g, JacobiSystem(ProductGrid(g, fibers), M_FIBER)


class TestRankOneMoments:
    @pytest.mark.parametrize("case", ["semicircle", "random", "point_mass", "one_cell"])
    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_dense_oracle(self, case, length, rng):
        g, sys = oracle_model(case, rng)
        for _ in range(2):
            fs = [rng.standard_normal(g.size) for _ in range(length)]
            a, b = xfock.xmoment(fs, sys), dense_xmoment(fs, sys)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_tabulated_below_half_word(self, general, rng):
        # L = sys.max_degree < half - 1: raising at L fails as in the dense route
        _, _, pg, _ = general
        sys = JacobiSystem(pg, 2)
        fs = [rng.standard_normal(M_GRID) for _ in range(8)]
        with pytest.raises(CapacityError):
            dense_xmoment(fs, sys)
        with pytest.raises(CapacityError):
            xfock.xmoment(fs, sys)
        a, b = xfock.xmoment(fs[:6], sys), dense_xmoment(fs[:6], sys)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_pairing_in_blocks(self, general, rng, monkeypatch):
        _, _, _, sys = general
        fs = [rng.standard_normal(M_GRID) for _ in range(7)]
        whole = xfock.xmoment(fs, sys)
        monkeypatch.setattr(xfock, "_PAIR_BLOCK", 5)
        assert abs(xfock.xmoment(fs, sys) - whole) <= 1e-13 * max(abs(whole), 1.0)

    def test_degree_eight_meixner_at_scale(self):
        # slots {0..3} x 24 nodes: a dense level 4 alone would take 648 MiB
        g = grid.make_grid(24, lam=1.0, eta=1.0)
        sys = JacobiSystem(ProductGrid(g, grid.semicircle_fibers(g, M_FIBER)), 4)
        tracemalloc.start()
        try:
            got = xfock.xmoment([np.ones(24)] * 8, sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - jacobi.meixner_moments(1.0, 1.0, 1.0, 8)[8]) <= 1e-10 * 269
        assert peak < 5 * 2**20


@pytest.mark.parametrize("model", ["default", "two_laws"])
def test_xmoment_peak_within_its_charge(model):
    # the charge moments checks before the route runs holds for every word
    # length the route is admitted at, on the system moments builds for it
    pg = charge_models()[model]
    f = pg.grid.indicator(0.0, 1.0)
    for n in range(1, ncpart.NC_LIMIT + 1):
        sys = JacobiSystem(pg, (n + 1) // 2)
        assert peak_bytes(lambda: xfock.xmoment([f] * n, sys)) <= xfock.xmoment_bytes(n, pg), n


class TestKTransform:
    def test_poly_table_matches_node_path(self, rng):
        # one evaluation over the joint nodes gives each law's own polynomials,
        # bit for bit, on both sides of the tabulated degree
        g = grid.make_grid(M_GRID, lam=0.3, eta=0.5)
        fibers = []
        for n in [2, 10, *rng.integers(2, 11, size=M_GRID - 2)]:
            w = rng.uniform(0.2, 1.0, size=n)
            fibers.append(grid.FiberMeasure(rng.uniform(-1.5, 1.5, size=n), w / w.sum()))
        pg = ProductGrid(g, fibers)
        sys = JacobiSystem(pg, M_FIBER)
        table = xfock._poly_table(sys, M_FIBER)
        for t, fb in enumerate(fibers):
            node = jacobi.coeffs_from_measure(fb, M_FIBER)
            values = jacobi.poly_values(node.b, node.a, node.finite_support_n or np.inf, fb.atoms)
            assert np.array_equal(table[:, pg.tindex == t], values)

    def test_constant_slot(self, meixner, rng):
        g, _, pg, sys = meixner
        f = rng.standard_normal(M_GRID)
        v = fock.FockVector(pg, [0.0, pg.lift(f)])
        xv = xfock.k_transform(v, sys)
        assert np.abs(xfock.component(xv, (0,)) - f).max() < 1e-12

    def test_linear_slot(self, meixner, rng):
        # coordinate profile decomposes into degree one plus its mean
        g, _, pg, sys = meixner
        f = rng.standard_normal(M_GRID)
        v = fock.FockVector(pg, [0.0, pg.lift(f) * pg.svalues])
        xv = xfock.k_transform(v, sys)
        assert np.abs(xfock.component(xv, (1,)) - f).max() < 1e-12
        assert np.abs(xfock.component(xv, (0,)) - g.lambda_values * f).max() < 1e-12

    def test_isometry(self, general, rng):
        g, _, pg, sys = general
        for _ in range(10):
            v = headroom(pg, rng)
            xv = xfock.k_transform(v, sys)
            a, b = fock.norm(xv), fock.norm(v)
            assert abs(a - b) <= 1e-10 * b

    def test_intertwines_field(self, general, rng):
        g, _, pg, sys = general
        for _ in range(5):
            v = headroom(pg, rng)
            f = rng.standard_normal(M_GRID)
            lhs = xfock.k_transform(xfock.big_fock_realize(f, v), sys)
            rhs = xfock.xfield(f, xfock.k_transform(v, sys, max_degree=lhs.max_level + 1))
            num = fock.norm(lhs - rhs)
            assert num <= 1e-10 * max(fock.norm(lhs), 1.0)

    def test_roundtrip(self, general, rng):
        g, _, pg, sys = general
        v = headroom(pg, rng)
        back = xfock.k_inverse(xfock.k_transform(v, sys))
        assert fock.norm(back - v) <= 1e-10 * fock.norm(v)

    def test_intertwines_word_on_vacuum(self, general, rng):
        # transformed field words applied to the vacuum agree componentwise
        # at reachable degrees; beyond the word length the exact content is
        # zero and only weighted-norm noise remains (tiny squared norms
        # amplify roundoff in raw coefficients); both sides are built at one
        # budget, so they share a slot space
        g, _, pg, sys = general
        fs = [rng.standard_normal(M_GRID) for _ in range(3)]
        big = fock.vacuum(pg, 3)
        for f in reversed(fs):
            big = xfock.big_fock_realize(f, big)
        lhs = xfock.k_transform(big, sys)
        rhs = xfock.x_vacuum(sys, lhs.max_level)
        for f in reversed(fs):
            rhs = xfock.xfield(f, rhs)
        assert rhs.base is lhs.base
        for ls in set(components(lhs)) | set(components(rhs)):
            if xfock.multi_index_degree(ls) <= 3:
                diff = np.abs(xfock.component(lhs, ls) - xfock.component(rhs, ls)).max()
                assert diff < 1e-10, ls
        assert abs(float(lhs.levels[0]) - float(rhs.levels[0])) < 1e-10
        assert fock.norm(lhs - rhs) < 1e-10

    def test_distinct_components_orthogonal(self, meixner, rng):
        g, _, pg, sys = meixner
        u = empty(sys, 4)
        xfock.set_component(u, (1, 0), rng.standard_normal((M_GRID, M_GRID)))
        w = empty(sys, 4)
        xfock.set_component(w, (0, 1), rng.standard_normal((M_GRID, M_GRID)))
        assert fock.inner(u, w) == 0.0

    def test_requires_product_grid(self, rng):
        g = grid.make_grid(3, lam=1.0, eta=1.0)
        sys = JacobiSystem(ProductGrid(g, grid.semicircle_fibers(g, 6)), 4)
        v = fock.vacuum(g, 2)
        with pytest.raises(ValueError, match="system's model"):
            xfock.k_transform(v, sys)

    def test_slot_maps_built_once_per_system(self, meixner, general, rng):
        _, _, pg, sys = meixner

        def stacks(blocks):
            return [x for run in blocks.runs for x in (run.proj, run.synth)]

        blocks = xfock._slot_maps(sys)
        xfock.k_inverse(xfock.k_transform(headroom(pg, rng), sys))
        again = xfock._slot_maps(sys)
        assert len(stacks(again)) == len(stacks(blocks)) > 0
        assert all(a is b for a, b in zip(stacks(again), stacks(blocks)))
        assert not any(a.flags.writeable for a in stacks(blocks))
        # another system, even of the same model, gets blocks of its own
        assert xfock._slot_maps(general[3]).runs[0].proj is not blocks.runs[0].proj
        assert xfock._slot_maps(JacobiSystem(pg, M_FIBER)).runs[0].proj is not blocks.runs[0].proj

    def test_transform_scratch_is_a_node_slab(self, meixner, rng):
        # the result is the one level-sized array: the rest is two arrays of
        # one node's slab, 1/5 of the level here each, where a level-sized
        # array per axis, as a transform axis by axis makes, takes 2 to 2.8
        # times the result; the inverse first copies its slab node-major, and
        # that copy is the first of its two
        _, _, pg, sys = meixner
        v = fock.random_vector(pg, 3, rng)
        xv = xfock.k_transform(v, sys)  # the slot blocks, built once
        for transform in (lambda: xfock.k_transform(v, sys), lambda: xfock.k_inverse(xv)):
            tracemalloc.start()
            try:
                result = transform()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.6 * result.levels[3].nbytes

    def test_requires_spanning_degree(self, meixner, rng):
        _, _, pg, _ = meixner
        shallow = JacobiSystem(pg, M_FIBER - 2)
        v = fock.random_vector(pg, 1, rng)
        with pytest.raises(ValueError):
            xfock.k_transform(v, shallow)


class TestRaggedBlocks:
    """The stacked slot blocks against the dense joint-to-slot map, on every
    layout the runs of equal atom counts can take: fibers of unequal sizes
    (a point mass, laws with fewer atoms than ``L + 1``, and laws of 3, 5
    and 8 atoms; one run per node), five equal laws (one run), one cell,
    and runs of two and three nodes side by side."""

    L = 9

    @pytest.fixture(params=[[3, 1, 8, 2, 5], [5] * 5, [6], [2, 2, 6, 6, 6]],
                    ids=["ragged", "equal", "one-cell", "runs"])
    def sys(self, request, rng):
        g = grid.make_grid(len(request.param), lam=0.3, eta=0.5)
        fibers = []
        for n in request.param:
            w = rng.uniform(0.2, 1.0, size=n)
            fibers.append(grid.FiberMeasure(np.sort(rng.uniform(-1.5, 1.5, size=n)), w / w.sum()))
        return JacobiSystem(ProductGrid(g, fibers), self.L)

    @staticmethod
    def dense_maps(sys):
        """The ``((L+1)m) x joint`` projection and synthesis, node blocks and zeros."""
        pg, lmax = sys.model, sys.max_degree
        t = pg.tindex
        table = jacobi.poly_values(sys.b[: lmax + 1, t], sys.a[: lmax + 1, t], sys.support[t],
                                   pg.svalues)
        on_node = t == np.arange(pg.grid.size)[:, None]
        synth = (table[:, None, :] * on_node).reshape(-1, pg.size)
        g = sys.g.reshape(-1, 1)
        proj = np.divide(synth * pg.fweights, g, out=np.zeros_like(synth), where=g > 0.0)
        return proj, synth

    @staticmethod
    def dense(mat, arr):
        for _ in range(arr.ndim):
            arr = np.tensordot(arr, mat, axes=(0, 1))
        return arr

    def test_transform_matches_the_dense_map(self, sys, rng):
        proj, _ = self.dense_maps(sys)
        v = fock.random_vector(sys.model, 3, rng)
        xv = xfock.k_transform(v, sys)
        assert len(xv.levels) == 4
        for got, a in zip(xv.levels, v.levels):
            want = self.dense(proj, a)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
        assert fock.distance(xfock.k_inverse(xv), v) <= 1e-12 * fock.norm(v)

    def test_inverse_below_the_tabulated_degree(self, sys, rng):
        # xfield over x_vacuum(sys, 3) has L = 2 < sys.max_degree
        _, synth = self.dense_maps(sys)
        xv = xfock.x_vacuum(sys, 3)
        for _ in range(3):
            xv = xfock.xfield(rng.standard_normal(sys.grid.size), xv)
        assert xv.base.lmax == 2 < sys.max_degree and len(xv.levels) == 4
        back = xfock.k_inverse(xv)
        assert back.base is sys.model
        rows = synth[: xv.base.size].T
        for got, a in zip(back.levels, xv.levels):
            want = self.dense(rows, a)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


class TestOneModel:
    """A system acts only on vectors over the joint quadrature of its own model."""

    @pytest.fixture
    def two_models(self, rng):
        # one base grid and equal sizes; only the atoms and weights differ
        g = grid.make_grid(4, lam=0.3, eta=0.5)
        systems = []
        for _ in range(2):
            fibers = []
            for _ in range(4):
                atoms, w = np.sort(rng.uniform(-1.2, 1.2, size=5)), rng.uniform(0.2, 1.0, size=5)
                fibers.append(grid.FiberMeasure(atoms, w / w.sum()))
            systems.append(JacobiSystem(ProductGrid(g, fibers), 5))
        return systems

    def test_refuses_a_vector_over_another_model(self, two_models, rng):
        sys1, sys2 = two_models
        v2 = headroom(sys2.model, rng)
        assert v2.base.size == sys1.model.size
        with pytest.raises(ValueError, match="system's model"):
            xfock.k_transform(v2, sys1)
        with pytest.raises(ValueError, match="system's model"):
            xfock.power_jump(1, np.ones(4, dtype=bool), v2, sys1)
        assert xfock.k_transform(v2, sys2).base.sys is sys2

    def test_inverse_lands_on_the_system_model(self, two_models, rng):
        for sys in two_models:
            v = headroom(sys.model, rng)
            back = xfock.k_inverse(xfock.k_transform(v, sys))
            assert back.base is sys.model
            assert fock.norm(back - v) <= 1e-10 * fock.norm(v)


class TestBudgetRefusals:
    """Content past a degree budget is refused, never truncated."""

    @pytest.fixture
    def sys(self):
        g = grid.make_grid(4, lam=1.0, eta=1.0)
        return JacobiSystem(ProductGrid(g, grid.semicircle_fibers(g, M_FIBER)), 6)

    def test_field_past_budget_raises(self, sys, rng):
        # (0, 1) has degree 3 = the budget; creation and the first-slot shift
        # raise it to degree 4, inside L = 2, so only the budget check sees it
        v = xfock.x_vacuum(sys, 3) * 0.0
        assert v.base.lmax == 2
        xfock.set_component(v, (0, 1), rng.standard_normal((4, 4)))
        with pytest.raises(CapacityError, match="content exceeds the degree budget 3"):
            xfock.xfield(np.ones(4), v)

    def test_field_refuses_before_it_allocates(self, rng):
        # at m = 40 one output level 3 over the slots {0..2} x 40 is 13.8 MB;
        # the refusal reads the input alone, so it peaks far below that
        g = grid.make_grid(40, lam=1.0, eta=1.0)
        sys = JacobiSystem(ProductGrid(g, grid.semicircle_fibers(g, M_FIBER)), 6)
        v = xfock.x_vacuum(sys, 3) * 0.0
        xfock.set_component(v, (0, 1), rng.standard_normal((40, 40)))
        f = np.ones(40)
        level3 = v.base.size**3 * 8
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="content exceeds the degree budget 3"):
                xfock.xfield(f, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < level3

    def test_set_component_past_budget_raises(self, sys, rng):
        v = xfock.x_vacuum(sys, 3) * 0.0
        with pytest.raises(CapacityError, match="exceeds degree budget 3"):
            xfock.set_component(v, (1, 1), rng.standard_normal((4, 4)))

    def test_k_transform_budget_must_span_the_slots(self, meixner, rng):
        _, _, pg, sys = meixner
        v = fock.random_vector(pg, 1, rng)
        with pytest.raises(ValueError, match="cannot hold the slots"):
            xfock.k_transform(v, sys, max_degree=sys.max_degree)
        assert xfock.k_transform(v, sys, max_degree=sys.max_degree + 1).max_level == sys.max_degree + 1

    def test_k_transform_of_the_vacuum(self, meixner):
        _, _, pg, sys = meixner
        xv = xfock.k_transform(2.5 * fock.vacuum(pg, 3), sys)
        assert xv.base.lmax == sys.max_degree and xv.max_level == sys.max_degree + 1
        assert len(xv.levels) == 1 and float(xv.levels[0]) == 2.5


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
        direct = fock.inner(lhs, rhs)
        assert abs(formula - direct) <= 1e-10 * max(abs(direct), 1.0)


class TestPowerJump:
    def test_degree_zero_is_window_field(self, meixner, rng):
        g, fibers, pg, sys = meixner
        delta = np.array([True, True, False, False, True])
        v = headroom(pg, rng)
        a = xfock.power_jump(0, delta, v, sys)
        b = xfock.big_fock_realize(delta.astype(float), v)
        assert fock.norm(a - b) <= 1e-12 * fock.norm(a)

    def test_orthogonalized_vs_raw(self, general, rng):
        g, _, pg, sys = general
        delta = np.ones(M_GRID, dtype=bool)
        om = fock.vacuum(pg, 1)
        for l1 in range(4):
            for l2 in range(l1 + 1, 5):
                y = xfock.power_jump(l1, delta, om, sys, orthogonal=False)
                x = xfock.power_jump(l2, delta, om, sys, orthogonal=True)
                assert abs(fock.inner(x, y)) < 1e-10

    def test_norm_is_window_weight(self, general):
        g, _, pg, sys = general
        delta = np.array([True, False, True, False, True])
        om = fock.vacuum(pg, 1)
        for l in range(4):
            x = xfock.power_jump(l, delta, om, sys)
            expect = float(np.sum(g.weights * delta * sys.g[l]))
            assert abs(fock.inner(x, x) - expect) < 1e-10

    def test_refuses_a_degree_out_of_range(self):
        # tabulated to degree 4: the orthogonal profile stops there, and no
        # profile has a negative degree
        g = grid.make_grid(4, lam=0.3, eta=0.5)
        pg = ProductGrid(g, grid.semicircle_fibers(g, 5))
        sys = JacobiSystem(pg, 4)
        om, delta = fock.vacuum(pg, 1), np.ones(4, dtype=bool)
        for l, orthogonal in ((5, True), (-1, True), (-1, False)):
            with pytest.raises(ValueError, match="degree"):
                xfock.power_jump(l, delta, om, sys, orthogonal=orthogonal)
        raw = xfock.power_jump(5, delta, om, sys, orthogonal=False)
        assert np.allclose(raw.levels[1], pg.svalues**5)

    def test_index_window(self, general):
        # the window is a boolean mask over the base nodes, nothing else
        g, _, pg, sys = general
        om = fock.vacuum(pg, 1)
        for window in (np.array([0, 2]), np.array([1.0, 0.0, 1.0, 0.0, 0.0]), np.ones(4, bool)):
            with pytest.raises(ValueError, match="boolean mask"):
                xfock.power_jump(1, window, om, sys)


class TestMeixnerRepresentation:
    def test_second_order_form_on_kernels(self, meixner, rng):
        # field action on lifted kernels: creation + coefficient-weighted
        # neutral + contraction + second-order diagonal term
        g, _, _, sys = meixner
        for n in (1, 2, 3):
            kern = rng.standard_normal((M_GRID,) * n)
            f = rng.standard_normal(M_GRID)
            applied = xfock.xfield(f, xfock.kernel_lift(kern, sys, max_degree=n + 1))
            expect = xfock.kernel_lift(np.multiply.outer(f, kern), sys, max_degree=n + 1)
            shape = (-1,) + (1,) * (n - 1)
            expect = expect + xfock.kernel_lift(
                (g.lambda_values * f).reshape(shape) * kern, sys, max_degree=n + 1
            )
            expect = expect + xfock.kernel_lift(
                np.tensordot(g.weights * f, kern, axes=(0, 0)), sys, max_degree=n + 1
            )
            if n >= 2:
                diag = np.moveaxis(np.diagonal(kern, axis1=0, axis2=1), -1, 0)
                shape2 = (-1,) + (1,) * (n - 2)
                expect = expect + xfock.kernel_lift(
                    (g.eta_values * f).reshape(shape2) * diag, sys, max_degree=n + 1
                )
            diff = applied - expect
            assert fock.norm(diff) <= 1e-10 * fock.norm(applied)

    def test_inhomogeneous_fiber_breaks_uniformity(self):
        g = grid.make_grid(M_GRID, lam=0.75, eta=1.0)
        skew = grid.FiberMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
        sys = JacobiSystem(ProductGrid(g, [skew] * M_GRID), 4)
        assert abs(sys.b[0, 0] - sys.b[1, 0]) > 0.4
        f = np.ones(M_GRID)
        outs = []
        for l in (0, 1):
            v = empty(sys, 4)
            xfock.set_component(v, (l,), np.ones(M_GRID))
            outs.append(xfock.component(xfock.xzero(f, v), (l,))[0])
        assert abs(outs[0] - outs[1]) > 0.4


def random_content(sys, budget, rng):
    """Dense random content on every multi-index of degree below the budget."""
    v = xfock.x_vacuum(sys, budget) * rng.standard_normal()
    for n in range(1, budget):
        for ls in xfock.multi_indices_exact(n):
            xfock.set_component(v, ls, rng.standard_normal((sys.grid.size,) * len(ls)))
    return v


def raises_capacity(call) -> bool:
    try:
        call()
    except CapacityError:
        return True
    return False


class TestOnePassField:
    """xfield writes its three parts into each level in one pass."""

    def vectors(self, meixner, general, rng):
        yield meixner[3], random_content(meixner[3], 4, rng)
        yield general[3], random_content(general[3], 4, rng)
        yield meixner[3], xfock.x_vacuum(meixner[3], 3)
        yield meixner[3], xfock.kernel_lift(rng.standard_normal((M_GRID,) * 3), meixner[3], 4)
        # L = sys.max_degree, with content in its last degree rows
        yield general[3], xfock.k_transform(headroom(general[2], rng), general[3])

    def test_equals_the_sum_of_its_parts(self, meixner, general, rng):
        for _, v in self.vectors(meixner, general, rng):
            f = rng.standard_normal(M_GRID)
            parts = xfock.xplus(f, v) + xfock.xzero(f, v) + xfock.xminus(f, v)
            one = xfock.xfield(f, v)
            assert one.max_level == parts.max_level and len(one.levels) == len(parts.levels)
            assert fock.distance(one, parts) <= 1e-14 * fock.norm(parts)

    def test_raises_where_the_raising_part_does(self, meixner, rng):
        _, _, _, sys = meixner
        f = rng.standard_normal(M_GRID)
        over_budget = xfock.x_vacuum(sys, 3) * 0.0  # (0, 1) raises to degree 4
        xfock.set_component(over_budget, (0, 1), rng.standard_normal((M_GRID, M_GRID)))
        past_l = xfock.x_vacuum(sys, 3) * 0.0  # L = 2: (2,) shifts past it
        xfock.set_component(past_l, (2,), rng.standard_normal(M_GRID))
        cases = [
            (f, over_budget),
            (f, past_l),
            (np.zeros(M_GRID), past_l),
            (f, xfock.x_vacuum(sys, 0)),
            (np.zeros(M_GRID), xfock.x_vacuum(sys, 0)),
            (f, random_content(sys, 4, rng)),
        ]
        seen = set()
        for h, v in cases:
            raised = raises_capacity(lambda: xfock.xfield(h, v))
            assert raised == raises_capacity(lambda: xfock.xplus(h, v))
            seen.add(raised)
        assert seen == {True, False}


def test_band_is_each_nodes_jacobi_matrix_times_f(general, rng):
    _, _, _, sys = general
    f, lmax = rng.standard_normal(M_GRID), 4

    def assert_jacobi_times_f(band):
        assert band.shape == (M_GRID, lmax + 1, lmax + 1)
        for t in range(M_GRID):
            jacobi_t = (np.diag(sys.b[: lmax + 1, t]) + np.diag(np.ones(lmax), -1)
                        + np.diag(sys.a[1 : lmax + 1, t], 1))
            assert np.array_equal(band[t], f[t] * jacobi_t)

    band = xfock._jacobi_band(sys, lmax, f, "+0-")
    assert_jacobi_times_f(band)
    parts = sum(xfock._jacobi_band(sys, lmax, f, part) for part in "+0-")
    assert np.array_equal(parts, band)
    # each call returns an array of its own: a caller that writes into its
    # band, as the mutant below does, leaves the next call's band unchanged
    again = xfock._jacobi_band(sys, lmax, f, "+0-")
    assert band.flags.writeable and again.flags.writeable
    assert not np.shares_memory(band, again)
    band[:] = np.nan
    again[:, 0, 0] = 7.0
    assert_jacobi_times_f(xfock._jacobi_band(sys, lmax, f, "+0-"))
    # the node matrices behind them are built once per (system, L, parts), read-only
    template = xfock._band_template(sys, lmax, "+0-")
    assert template is xfock._band_template(sys, lmax, "+0-") and not template.flags.writeable


def test_band_mutant_fails_a_field_and_a_moment_check(monkeypatch):
    # xfield and xmoment read the one band builder: a_l in place of a_{l+1}
    # above the diagonal must fail a check of each
    band = xfock._jacobi_band

    def mutant(sys, lmax, f, parts):
        out = band(sys, lmax, f, parts)
        if "-" in parts:
            l = np.arange(lmax)
            out[:, l, l + 1] = (sys.a[:lmax] * f).T
        return out

    monkeypatch.setattr(xfock, "_jacobi_band", mutant)
    params = suites.SuiteParams()
    failed = {c.name for suite in ("xfock", "meixner")
              for c in suites.run_suite(suite, params) if not c.passed}
    assert failed & {"k_transform_intertwines", "representation_second_order_form"}
    assert failed & {"moments_big_fock_vs_extended", "moments_general_fibers",
                     "meixner_moments_vs_extended"}


@pytest.mark.parametrize("table", ["eta_values", "lambda_values"])
def test_kernel_step_mutants_fail_the_second_order_form(table, monkeypatch):
    # the kernel step read at eta = 0 drops its eta f diagonal term, and at
    # lambda = 0 its lambda f term: each must fail the check at the default config
    kernels = suites._second_order_kernels

    def mutant(f, kern, g):
        return kernels(f, kern, dataclasses.replace(g, **{table: np.zeros(g.nodes.size)}))

    monkeypatch.setattr(suites, "_second_order_kernels", mutant)
    (check,) = [c for c in suites.run_suite("meixner", suites.SuiteParams())
                if c.name == "representation_second_order_form"]
    assert not check.passed, check.residual


def test_extended_field_runs_no_fock_field_primitive(meixner, rng, monkeypatch):
    # the big-Fock field that k_transform_intertwines compares it with runs
    # field's peel kernel, and tier-1 checks that against fock's primitives;
    # the extended field must share neither
    _, _, _, sys = meixner
    v, f = random_content(sys, 4, rng), rng.standard_normal(M_GRID)
    routes = (xfock.xplus, xfock.xzero, xfock.xminus, xfock.xfield)
    expected = [route(f, v) for route in routes]

    def forbidden(*args, **kwargs):
        raise AssertionError("the extended field ran a fock field primitive")

    for name in ("create", "annihilate", "neutral"):
        monkeypatch.setattr(fock, name, forbidden)
    for name in ("monomial_apply", "_peel"):
        monkeypatch.setattr(field, name, forbidden)
    for route, want in zip(routes, expected):
        got = route(f, v)
        assert all(np.array_equal(a, b) for a, b in zip(got.levels, want.levels))


class TestDenseLayout:
    @pytest.mark.parametrize("system", ["meixner", "general"])
    def test_field_is_symmetric(self, system, request, rng):
        # xmoment's half-split relies on this symmetry
        g, _, _, sys = request.getfixturevalue(system)
        for _ in range(3):
            u, v = random_content(sys, 4, rng), random_content(sys, 4, rng)
            f = rng.standard_normal(M_GRID)
            lhs = fock.inner(u, xfock.xfield(f, v))
            rhs = fock.inner(xfock.xfield(f, u), v)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_levels_sized_by_tabulated_degree(self, meixner, rng):
        g, _, pg, sys = meixner
        v = headroom(pg, rng)
        xv = xfock.k_transform(v, sys, max_degree=40)
        assert xv.base.lmax == sys.max_degree
        out = xfock.xfield(rng.standard_normal(M_GRID), xv)
        size = (sys.max_degree + 1) * M_GRID
        assert [a.shape for a in out.levels] == [(size,) * k for k in range(4)]
        assert xfock.x_vacuum(sys, 5).base.lmax == 4

    def test_small_meixner_degree_raises(self):
        g = grid.make_grid(M_GRID, lam=1.0, eta=1.0)
        sys = JacobiSystem(ProductGrid(g, grid.semicircle_fibers(g, M_FIBER)), 1)
        with pytest.raises(CapacityError):
            xfock.xmoment([np.ones(M_GRID)] * 6, sys)

    def test_null_content_past_tabulation_dropped(self):
        # one-atom laws: g_l = a_l = 0 from l = 1 on
        g = grid.make_grid(M_GRID, lam=0.5, eta=1.0)
        pg = ProductGrid(g, [grid.point_fiber(0.5)] * M_GRID)
        sys = JacobiSystem(pg, 1)
        assert np.all(sys.g[1] == 0.0)
        chi = np.ones(M_GRID)
        a, b = cumulant.moment([chi] * 6, pg), xfock.xmoment([chi] * 6, sys)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


    def test_lift_past_tabulation(self, meixner, rng):
        # L = 1 < n - 1: the (2,) component is dropped where g_2 vanishes
        # (one-atom laws) and refused where it does not
        g, _, pg, _ = meixner
        kern = rng.standard_normal((M_GRID,) * 3)
        point = JacobiSystem(ProductGrid(g, [grid.point_fiber(0.5)] * M_GRID), 1)
        lifted = xfock.kernel_lift(kern, point)
        assert lifted.base.lmax == 1 and (2,) not in components(lifted)
        assert np.array_equal(xfock.component(lifted, (1, 0)), np.einsum("aab->ab", kern))
        with pytest.raises(CapacityError):
            xfock.kernel_lift(kern, JacobiSystem(pg, 1))

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
        return g, fibers, pg, JacobiSystem(pg, M_FIBER)

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
            assert abs(fock.norm(xv) - fock.norm(v)) <= 1e-10 * fock.norm(v)
            back = xfock.k_inverse(xv)
            assert fock.norm(back - v) <= 1e-10 * fock.norm(v)


class TestSerialization:
    def test_components_order(self, meixner, rng):
        g, _, _, sys = meixner
        v = empty(sys, 3)
        xfock.set_component(v, (1,), rng.standard_normal(M_GRID))
        xfock.set_component(v, (0, 0), rng.standard_normal((M_GRID, M_GRID)))
        # equal degree, then lexicographic
        assert list(components(v)) == [(0, 0), (1,)]


def _outer(kernels):
    out = np.asarray(kernels[0], dtype=float)
    for k in kernels[1:]:
        out = np.multiply.outer(out, np.asarray(k, dtype=float))
    return out


def _raise_word(fs, sys):
    v = xfock.x_vacuum(sys, len(fs))
    for f in reversed(fs):
        v = xfock.xplus(f, v)
    return v


EDGE_LAWS = ("point_mass", "scaled", "clustered")


def edge_law(kind, exponent, rng):
    """A node law at an edge: a point mass (eta = 0), one to three atoms
    scaled by ``10**exponent``, or such atoms each paired with one 1e-11 above."""
    if kind == "point_mass":
        return grid.point_fiber(rng.uniform(-2.0, 2.0))
    atoms = np.sort(rng.uniform(-1.0, 1.0, size=rng.integers(1, 4))) * 10.0**exponent
    if kind == "clustered":
        atoms = np.sort(np.concatenate([atoms, atoms + 1e-11]))
    w = rng.uniform(0.2, 1.0, size=atoms.size)
    return grid.FiberMeasure(atoms, w / w.sum())


@given(
    st.lists(st.sampled_from(EDGE_LAWS), min_size=1, max_size=3),
    st.floats(-3.0, 3.0),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_edge_moments_agree(kinds, exponent, degree, seed):
    rng = np.random.default_rng(seed)
    g = grid.make_grid(len(kinds))
    fibers = [edge_law(kind, exponent, rng) for kind in kinds]
    pg = ProductGrid(g, fibers)
    fs = [rng.standard_normal(g.size) for _ in range(degree)]
    a = cumulant.moment(fs, pg)
    b = xfock.xmoment(fs, JacobiSystem(pg, 6))
    # the scale is the moment's path terms summed in absolute value: the
    # same word in |f| over the laws of |s|; the moment itself can cancel
    # far below it
    folded = [grid.FiberMeasure(np.abs(fb.atoms), fb.weights) for fb in fibers]
    terms = cumulant.moment([np.abs(f) for f in fs], ProductGrid(g, folded))
    assert abs(a - b) <= suites.TOL * terms
