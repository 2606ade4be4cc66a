"""Each refusal of an invalid argument, one row per raise: the call, the
exception it must raise and a fragment of its message."""

import re

import numpy as np
import pytest

from freewick import cumulant, field, fock, grid, jacobi, ncpart, suites, xfock

G = grid.make_grid(3, lam=0.5, eta=0.2)
PG = grid.ProductGrid(G, grid.semicircle_fibers(G, 2))
SYS = jacobi.JacobiSystem(PG, 2)
ONE, TWO = [0.0, 1.0], [1.0, 1.0]


def x_vacuum():
    return xfock.x_vacuum(SYS, 3)


REFUSALS = {
    # grid
    "grid_misaligned": (
        lambda: grid.GridMeasure(ONE, [1.0], ONE, ONE), ValueError, "aligned with nodes"),
    "grid_no_node": (
        lambda: grid.GridMeasure([], [], [], []), ValueError, "at least one node"),
    "grid_weight_not_positive": (
        lambda: grid.GridMeasure(ONE, [1.0, 0.0], ONE, ONE), ValueError, "strictly positive"),
    "grid_nodes_not_increasing": (
        lambda: grid.GridMeasure([1.0, 0.0], TWO, ONE, ONE), ValueError, "strictly increasing"),
    "fiber_mismatched": (
        lambda: grid.FiberMeasure(ONE, [1.0]), ValueError, "matching 1-d arrays"),
    "tabulate_no_segments": (
        lambda: grid.make_grid(3, lam={"values": [1.0]}), ValueError, "supply 'segments'"),
    "tabulate_misaligned": (
        lambda: grid.make_grid(3, lam=ONE), ValueError, "must have shape (3,), got (2,)"),
    "lift_wrong_shape": (
        lambda: PG.lift(ONE), ValueError, "must have shape (3,), got (2,)"),
    "semicircle_no_node": (
        lambda: grid.semicircle_fiber(0.0, 1.0, 0), ValueError, "at least one quadrature node"),
    # jacobi
    "node_mismatched": (
        lambda: jacobi.JacobiNode(ONE, [0.0], TWO), ValueError, "matching 1-d arrays"),
    "node_a_past_support": (
        lambda: jacobi.JacobiNode(ONE, TWO, TWO, finite_support_n=1), ValueError,
        "vanish from the support size on"),
    "coeffs_negative_degree": (
        lambda: jacobi.coeffs_from_measure(grid.point_fiber(0.0), -1), ValueError,
        "max_degree must be non-negative"),
    "gauss_no_node": (
        lambda: jacobi.gauss_rule(ONE, TWO, 0), ValueError, "at least one node"),
    "gauss_too_few_coefficients": (
        lambda: jacobi.gauss_rule(ONE, TWO, 3), ValueError, "not enough tabulated"),
    "meixner_negative_order": (
        lambda: jacobi.meixner_moments(0.0, 0.0, 1.0, -1), ValueError, "order must be non-negative"),
    # ncpart
    "partition_empty_ground_set": (
        lambda: ncpart.SetPartition(0, ()), ValueError, "ground-set size must be positive"),
    "partition_empty_block": (
        lambda: ncpart.SetPartition(1, ((),)), ValueError, "empty block"),
    "partition_element_outside": (
        lambda: ncpart.SetPartition(1, ((2,),)), ValueError, "element 2 outside 1..1"),
    "marked_bad_mark": (
        lambda: ncpart.MarkedPartition(ncpart.SetPartition(2, ((1, 2),)), (0,)), ValueError,
        "marks must be +1 or -1"),
    "gn_count_empty": (
        lambda: ncpart.gn_count_recursion(0), ValueError, "ground-set size must be positive"),
    # cumulant
    "cumulant_direct_empty": (
        lambda: cumulant.cumulant_direct([], PG), ValueError, "order must be at least 1"),
    "cumulant_from_moments_empty": (
        lambda: cumulant.cumulant_from_moments([], PG), ValueError, "order must be at least 1"),
    "transform_misaligned": (
        lambda: cumulant.cumulant_transform(ONE, PG), ValueError, "must have shape (3,), got (2,)"),
    "cumulant_direct_wrong_shape": (
        lambda: cumulant.cumulant_direct([[1.0], [1.0]], PG), ValueError,
        "must have shape (3,), got (1,)"),
    "nc_moment_sum_wrong_shape": (
        lambda: cumulant.nc_moment_sum([[1.0], [1.0]], PG), ValueError,
        "must have shape (3,), got (1,)"),
    "cumulant_from_moments_wrong_shape": (
        lambda: cumulant.cumulant_from_moments([[1.0], [1.0]], PG), ValueError,
        "must have shape (3,), got (1,)"),
    "meixner_closed_form_wrong_shape": (
        lambda: cumulant.meixner_transform_closed_form([0.1], G), ValueError,
        "must have shape (3,), got (1,)"),
    "transform_low_degree": (
        lambda: cumulant.cumulant_transform(np.zeros(3), PG, degree=1), ValueError,
        "degree must be at least 2"),
    # field
    "wick_unknown_form": (
        lambda: field.wick_apply(np.ones(3), fock.vacuum(G, 1), form="other"), ValueError,
        "unknown form 'other'"),
    "wick_rule_order_0": (
        lambda: field.wick_rule_expand(1.0, G), ValueError, "kernel order must be at least 1"),
    "wick_product_order_0": (
        lambda: field.wick_product_expand((0, 1), np.ones(3), G), ValueError,
        "factor orders must be positive"),
    "wick_product_orders_mismatch": (
        lambda: field.wick_product_expand((1, 1), np.ones(3), G), ValueError,
        "kernel order must equal the sum of the factor orders"),
    # xfock
    "component_negative": (
        lambda: xfock.set_component(x_vacuum(), (-1,), np.ones(3)), ValueError,
        "invalid multi-index (-1,)"),
    "component_empty": (
        lambda: xfock.set_component(x_vacuum(), (), 1.0), ValueError, "invalid multi-index ()"),
    "component_wrong_shape": (
        lambda: xfock.set_component(x_vacuum(), (0,), ONE), ValueError, "must have shape (3,)"),
    "xmoment_wrong_shape": (
        lambda: xfock.xmoment([[1.0], [1.0]], SYS), ValueError, "must have shape (3,), got (1,)"),
    "inner_formula_wrong_shape": (
        lambda: xfock.inner_product_formula(np.ones((2, 2)), np.ones((2, 2)), SYS), ValueError,
        "must have shape (3, 3), got (2, 2)"),
    "kernel_lift_wrong_shape": (
        lambda: xfock.kernel_lift(np.ones((2, 2)), SYS), ValueError,
        "must have shape (3, 3), got (2, 2)"),
    "inner_formula_unequal": (
        lambda: xfock.inner_product_formula(np.ones(3), np.ones((3, 3)), SYS), ValueError,
        "equal positive order"),
    "inner_formula_order_0": (
        lambda: xfock.inner_product_formula(1.0, 1.0, SYS), ValueError, "equal positive order"),
    # suites
    "unknown_suite": (
        lambda: suites.run_suite("other", suites.SuiteParams()), ValueError,
        "unknown suite 'other'"),
}


@pytest.mark.parametrize("call, exception, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, exception, fragment):
    with pytest.raises(exception, match=re.escape(fragment)):
        call()
