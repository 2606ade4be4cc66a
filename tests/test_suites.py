import numpy as np
import pytest

from freewick import fock, grid, suites


def product_grid():
    g = grid.make_grid(3, lam=0.4)
    return grid.ProductGrid(g, [grid.semicircle_fiber(1.0, 1.0, 2) for _ in range(3)])


@pytest.mark.parametrize(
    "base,max_level,keep",
    [
        # the two call shapes of the suites: a plain grid with budget n + 2,
        # and a product grid whose top level is dropped
        (grid.make_grid(4, lam=0.3), 6, 3),
        (product_grid(), 3, 3),
    ],
)
def test_random_low_levels_keeps_the_stream(base, max_level, keep):
    full_rng = np.random.default_rng(7)
    full = fock.random_vector(base, max_level, full_rng)
    low_rng = np.random.default_rng(7)
    low = suites._random_low_levels(base, max_level, keep, low_rng)
    assert low.max_level == max_level and len(low.levels) == keep
    for a, b in zip(low.levels, full.levels):
        assert np.array_equal(a, b)
    assert low_rng.bit_generator.state == full_rng.bit_generator.state
    assert low_rng.standard_normal() == full_rng.standard_normal()
