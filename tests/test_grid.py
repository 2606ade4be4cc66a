import numpy as np
import pytest

from conftest import tridiag_moments
from freewick import grid


class TestMakeGrid:
    def test_uniform_midpoint(self):
        g = grid.make_grid(4)
        assert np.allclose(g.weights, 0.25)
        assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])

    def test_single_cell(self):
        g = grid.make_grid(1)
        assert g.nodes[0] == 0.5 and g.weights[0] == 1.0

    def test_wider_interval(self):
        g = grid.make_grid(2, interval=(0, 2))
        assert np.allclose(g.nodes, [0.5, 1.5])
        assert np.allclose(g.weights, [1.0, 1.0])

    def test_total_mass(self):
        g = grid.make_grid(7, interval=(-1.0, 2.5))
        assert abs(g.weights.sum() - 3.5) < 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid.make_grid(0)
        with pytest.raises(ValueError):
            grid.make_grid(3, lam=np.inf)
        with pytest.raises(ValueError):
            grid.make_grid(3, eta=-1.0)

    def test_coefficient_specs(self):
        g = grid.make_grid(4, lam=[1, 2, 3, 4])
        assert np.allclose(g.lambda_values, [1, 2, 3, 4])
        g = grid.make_grid(4, lam=lambda t: 2 * t)
        assert np.allclose(g.lambda_values, 2 * g.nodes)
        g = grid.make_grid(4, lam={"segments": [[0, 0.5, 1.0], [0.5, 1.0, 3.0]]})
        assert np.allclose(g.lambda_values, [1, 1, 3, 3])
        with pytest.raises(ValueError):
            grid.make_grid(4, lam={"segments": [[0, 0.5, 1.0]]})


class TestIntegrate:
    def test_constant(self):
        g = grid.make_grid(6)
        assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_half_indicator(self):
        g = grid.make_grid(6)
        assert abs(g.weights @ g.indicator(0.0, 0.5) - 0.5) < 1e-12

    def test_window_mass(self):
        g = grid.make_grid(5, interval=(0.5, 1.5), lam=2.0)
        assert abs(g.weights @ g.indicator(0.5, 1.5) - 1.0) < 1e-12


class TestSemicircleFiber:
    def test_two_node_variance(self):
        fb = grid.semicircle_fiber(0.0, 1.0, 2)
        assert abs(fb.moment(2) - 1.0) < 1e-12

    def test_three_node_fourth_moment(self):
        fb = grid.semicircle_fiber(0.0, 1.0, 3)
        assert abs(fb.moment(4) - 2.0) < 1e-12

    def test_mean_shift(self):
        fb = grid.semicircle_fiber(1.0, 1.0, 4)
        assert abs(fb.moment(1) - 1.0) < 1e-12

    def test_normalized(self):
        fb = grid.semicircle_fiber(0.3, 2.0, 9)
        assert abs(fb.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("m_nodes", [2, 4, 8])
    def test_moments_match_recurrence_oracle(self, m_nodes):
        lam, eta = 0.4, 1.7
        fb = grid.semicircle_fiber(lam, eta, m_nodes)
        kmax = 2 * m_nodes - 1
        size = kmax // 2 + 2
        oracle = tridiag_moments(
            np.full(size, lam), np.full(size - 1, np.sqrt(eta)), kmax
        )
        for k in range(kmax + 1):
            assert abs(fb.moment(k) - oracle[k]) <= 1e-10 * max(1.0, abs(oracle[k]))

    def test_degenerate(self):
        fb = grid.semicircle_fiber(0.7, 0.0, 5)
        assert fb.size == 1 and fb.atoms[0] == 0.7

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            grid.semicircle_fiber(0.0, -1.0, 4)


class TestFiberMeasure:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            grid.FiberMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            grid.FiberMeasure(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_radius_bound(self):
        with pytest.raises(ValueError):
            grid.FiberMeasure(np.array([0.0, 2.0]), np.array([0.5, 0.5]), radius=1.0)

    @pytest.mark.parametrize(
        "atoms, weights, radius",
        [
            ([0.0, np.nan], [0.5, 0.5], 0.0),
            ([0.0, np.inf], [0.5, 0.5], 0.0),
            ([0.0, 1.0], [np.nan, 0.5], 0.0),
            ([0.0, 1.0], [0.5, 0.5], np.nan),
            ([0.0, 1.0], [0.5, 0.5], np.inf),
        ],
    )
    def test_non_finite_refused(self, atoms, weights, radius):
        # a NaN passes both the sign and the normalization test
        with pytest.raises(ValueError, match="finite"):
            grid.FiberMeasure(np.array(atoms), np.array(weights), radius=radius)

    def test_moments(self):
        fb = grid.FiberMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert np.allclose([fb.moment(k) for k in range(5)], [1, 0, 1, 0, 1])


class TestProductGrid:
    def test_shapes_and_mass(self, rng):
        g = grid.make_grid(3, lam=1.0, eta=1.0)
        fibers = [grid.semicircle_fiber(1.0, 1.0, k) for k in (2, 3, 4)]
        pg = grid.ProductGrid(g, fibers)
        assert pg.size == 9
        assert abs(pg.weights.sum() - g.weights.sum()) < 1e-12
        assert np.all(pg.lambda_values == pg.svalues)

    def test_lift(self):
        g = grid.make_grid(2)
        fibers = [grid.point_fiber(0.0), grid.semicircle_fiber(0.0, 1.0, 2)]
        pg = grid.ProductGrid(g, fibers)
        lifted = pg.lift(np.array([5.0, 7.0]))
        assert np.allclose(lifted, [5.0, 7.0, 7.0])

    def test_fiber_count_checked(self):
        g = grid.make_grid(3)
        with pytest.raises(ValueError):
            grid.ProductGrid(g, [grid.point_fiber(0.0)] * 2)
