import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freewick import fock, grid
from freewick.errors import CapacityError

finite_floats = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@pytest.fixture
def g():
    return grid.make_grid(5, lam=0.3)


def headroom_vector(g, rng, top=2, budget=4):
    v = fock.random_vector(g, budget, rng)
    for k in range(top + 1, budget + 1):
        v.levels[k][:] = 0
    return v


class TestBasics:
    def test_vacuum_norm(self, g):
        assert abs(fock.norm(fock.vacuum(g, 3)) - 1.0) < 1e-14

    def test_norm_positive_definite(self, g, rng):
        v = fock.random_vector(g, 3, rng)
        assert fock.norm(v) > 0

    def test_level_shapes_checked(self, g):
        with pytest.raises(ValueError):
            fock.FockVector(g, [np.zeros(()), np.zeros(4)])

    def test_node_value_shapes_checked(self, g):
        v = fock.vacuum(g, 2)
        for op in (fock.create, fock.annihilate, fock.neutral):
            with pytest.raises(ValueError):
                op(np.ones(4), v)


class TestCreate:
    def test_on_vacuum(self, g):
        f = np.arange(5.0)
        v = fock.create(f, fock.vacuum(g, 2))
        assert np.allclose(v.levels[1], f)
        assert not np.any(v.levels[0]) and fock.top_level(v) == 1 and v.max_level == 2

    def test_twice_gives_outer(self, g, rng):
        f1, f2 = rng.standard_normal(5), rng.standard_normal(5)
        v = fock.create(f1, fock.create(f2, fock.vacuum(g, 2)))
        assert np.allclose(v.levels[2], np.multiply.outer(f1, f2))

    def test_isometry_level_one(self, g, rng):
        f = rng.standard_normal(5)
        v = fock.create(f, fock.vacuum(g, 1))
        assert abs(fock.inner(v, v) - g.inner(f, f)) < 1e-12

    def test_capacity_error(self, g, rng):
        v = fock.random_vector(g, 2, rng)
        with pytest.raises(CapacityError):
            fock.create(np.ones(5), v)


class TestAnnihilate:
    def test_kills_vacuum(self, g):
        v = fock.annihilate(np.ones(5), fock.vacuum(g, 2))
        assert fock.norm(v) == 0.0

    def test_free_commutation_on_vacuum(self, g, rng):
        f, h = rng.standard_normal(5), rng.standard_normal(5)
        v = fock.annihilate(h, fock.create(f, fock.vacuum(g, 1)))
        assert abs(float(v.levels[0]) - g.inner(h, f)) < 1e-12

    def test_free_commutation_general(self, g, rng):
        f, h = rng.standard_normal(5), rng.standard_normal(5)
        v = headroom_vector(g, rng)
        lhs = fock.annihilate(h, fock.create(f, v))
        rhs = g.inner(h, f) * v
        assert fock.norm(lhs - rhs) < 1e-12 * fock.norm(v)

    def test_contracts_first_slot(self, g, rng):
        f, h = rng.standard_normal(5), rng.standard_normal(5)
        v = fock.FockVector(g, [np.zeros((5,) * k) for k in range(3)])
        v.levels[2] = np.multiply.outer(f, h)
        out = fock.annihilate(f, v)
        assert np.allclose(out.levels[1], g.inner(f, f) * h)


class TestNeutral:
    def test_kills_vacuum(self, g):
        assert fock.norm(fock.neutral(np.ones(5), fock.vacuum(g, 2))) == 0.0

    def test_pointwise_first_slot(self, g, rng):
        f, h = rng.standard_normal(5), rng.standard_normal(5)
        v = fock.neutral(f, fock.create(h, fock.vacuum(g, 1)))
        assert np.allclose(v.levels[1], f * h)

    def test_self_adjoint(self, g, rng):
        f = rng.standard_normal(5)
        u = fock.random_vector(g, 3, rng)
        v = fock.random_vector(g, 3, rng)
        lhs = fock.inner(fock.neutral(f, u), v)
        rhs = fock.inner(u, fock.neutral(f, v))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


class TestAdjointPair:
    def test_create_annihilate_adjoint(self, g, rng):
        f = rng.standard_normal(5)
        u = headroom_vector(g, rng)
        v = fock.random_vector(g, 4, rng)
        lhs = fock.inner(fock.create(f, u), v)
        rhs = fock.inner(u, fock.annihilate(f, v))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestGrading:
    def test_levels_shift_exactly(self, g, rng):
        v = fock.FockVector(g, [np.zeros((5,) * k) for k in range(4)])
        v.levels[1] = rng.standard_normal(5)
        f = rng.standard_normal(5)
        assert fock.top_level(fock.create(f, v)) == 2
        assert fock.top_level(fock.annihilate(f, v)) == 0
        assert fock.top_level(fock.neutral(f, v)) == 1


def padded(v):
    """``v`` with every level up to its budget stored, zeros above its content."""
    m = v.base.size
    pad = [np.zeros((m,) * k) for k in range(len(v.levels), v.max_level + 1)]
    return fock.FockVector(v.base, v.levels + pad, v.max_level)


class TestLevelRule:
    def test_vacuum_stores_level_zero_only(self, g):
        v = fock.vacuum(g, 6)
        assert len(v.levels) == 1 and v.max_level == 6

    def test_more_levels_than_budget_rejected(self, g, rng):
        levels = fock.random_vector(g, 3, rng).levels
        with pytest.raises(ValueError):
            fock.FockVector(g, levels, 2)
        assert fock.FockVector(g, levels[:2], 3).max_level == 3

    def test_missing_levels_read_as_zero(self, g, rng):
        u = fock.FockVector(g, fock.random_vector(g, 1, rng).levels, 3)
        v = fock.random_vector(g, 3, rng)
        for a, b in ((u, v), (v, u)):
            for op in (lambda x, y: x + y, lambda x, y: x - y):
                short, full = op(a, b), op(padded(a), padded(b))
                assert short.max_level == full.max_level == 3
                assert len(short.levels) == len(full.levels)
                for x, y in zip(short.levels, full.levels):
                    assert np.array_equal(x, y)
            assert fock.inner(a, b) == fock.inner(padded(a), padded(b))

    def test_create_raises_for_nonzero_top_content_only(self, g, rng):
        f = rng.standard_normal(5)
        v = fock.random_vector(g, 2, rng)
        with pytest.raises(CapacityError):
            fock.create(f, v)
        v.levels[2][:] = 0
        assert fock.top_level(fock.create(f, v)) == 2
        below = fock.FockVector(g, v.levels[:2], 2)
        assert len(fock.create(f, below).levels) == 3

    def test_cancelled_top_level_not_stored(self, g, rng):
        u = fock.random_vector(g, 3, rng)
        v = fock.FockVector(g, fock.random_vector(g, 2, rng).levels + [u.levels[3].copy()])
        for diff in (u - v, -v + u):
            assert len(diff.levels) == 3 and diff.max_level == 3
            assert fock.top_level(diff) == 2
        assert len((u - u).levels) == 1 and (u - u).max_level == 3

    def test_bases_of_equal_size_and_other_weights_do_not_mix(self, rng):
        a, b = grid.make_grid(4), grid.make_grid(4, (0.0, 2.0))
        u, v = fock.random_vector(a, 2, rng), fock.random_vector(b, 2, rng)
        for op in (fock.inner, lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(ValueError):
                op(u, v)
        # another grid object with the same weights is the same space
        same = fock.FockVector(grid.make_grid(4), v.levels)
        assert fock.inner(u, same) == fock.inner(u, fock.FockVector(a, v.levels))


class TestLinearity:
    @given(
        st.lists(finite_floats, min_size=3, max_size=3),
        st.lists(finite_floats, min_size=3, max_size=3),
        finite_floats,
        finite_floats,
    )
    def test_operators_linear_in_argument(self, fa, fb, a, b):
        g = grid.make_grid(3, lam=0.4)
        rng = np.random.default_rng(7)
        v = fock.random_vector(g, 3, rng)
        v.levels[3][:] = 0
        fa, fb = np.array(fa), np.array(fb)
        for op in (fock.create, fock.annihilate, fock.neutral):
            lhs = op(a * fa + b * fb, v)
            rhs = a * op(fa, v) + b * op(fb, v)
            assert fock.norm(lhs - rhs) <= 1e-11 * max(fock.norm(lhs), 1.0)


class TestDistance:
    def pairs(self, g, rng):
        u = fock.random_vector(g, 3, rng)
        short = fock.FockVector(g, fock.random_vector(g, 1, rng).levels, 3)
        # u - same_top cancels its top level
        same_top = fock.FockVector(g, fock.random_vector(g, 2, rng).levels + [u.levels[3].copy()])
        scalar = fock.FockVector(g, [2.5], 3)
        return [
            (u, short),
            (short, u),
            (u, same_top),
            (scalar, fock.vacuum(g, 2)),
            (scalar, u),
            (u, u),
        ]

    def test_agrees_with_norm_of_difference(self, g, rng):
        for u, v in self.pairs(g, rng):
            expect = fock.norm(u - v)
            assert abs(fock.distance(u, v) - expect) <= 1e-14 * expect

    @pytest.mark.parametrize("block", [1, 4, 30])
    def test_blocks_agree_with_one_pass(self, block, rng, monkeypatch):
        # 1: every row from level 2 on is longer than a block, so rows are
        # reduced row by row; 4 and 30: a few rows per block, or whole levels
        g = grid.make_grid(5, lam=0.3)
        u, v = fock.random_vector(g, 4, rng), fock.random_vector(g, 3, rng)
        routes = (fock.inner, fock.distance, lambda a, b: fock.norm(a))
        one_pass = [route(u, v) for route in routes]
        monkeypatch.setattr(fock, "_LEVEL_BLOCK", block)
        for route, expect in zip(routes, one_pass):
            assert abs(route(u, v) - expect) <= 1e-14 * abs(expect)

    def test_refuses_other_bases_as_inner_does(self, rng):
        a, b = grid.make_grid(4), grid.make_grid(4, (0.0, 2.0))
        u, v = fock.random_vector(a, 2, rng), fock.random_vector(b, 2, rng)
        refusals = []
        for op in (fock.inner, fock.distance):
            with pytest.raises(ValueError) as err:
                op(u, v)
            refusals.append(str(err.value))
        assert refusals[0] == refusals[1]
        same = fock.FockVector(grid.make_grid(4), v.levels)
        assert fock.distance(u, same) == fock.distance(u, fock.FockVector(a, v.levels))

    def test_scratch_is_a_fraction_of_a_level(self, rng):
        # a level 4 at m = 24 is 2.65 MB; a reduction holds a block of rows
        g = grid.make_grid(24)
        u, v = fock.random_vector(g, 4, rng), fock.random_vector(g, 4, rng)
        for route in (fock.inner, fock.distance):
            tracemalloc.start()
            try:
                route(u, v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < u.levels[4].nbytes / 8, route
