"""Each verify check runs its routes inside the check: a suite only draws
inputs and builds models, and the first route computes its quantity from
them when the check runs."""

import functools

import pytest

from conftest import code_key, package_calls
from freewick import cumulant, jacobi, suites

# check: (suite, the function its first route must call)
ROUTE_RUNS = {
    "transform_lambda_closed_vs_series": ("cumulant", cumulant.cumulant_transform),
    "transform_fiber_closed_vs_series": ("cumulant", cumulant.cumulant_transform),
    "semicircle_recovers_b": ("meixner", jacobi.coeffs_from_measure),
    "semicircle_recovers_a": ("meixner", jacobi.coeffs_from_measure),
    "norms_are_eta_powers": ("meixner", jacobi.coeffs_from_measure),
    "meixner_moments_vs_big_fock": ("meixner", jacobi.meixner_moments),
    "meixner_moments_vs_extended": ("meixner", jacobi.meixner_moments),
    "meixner_moments_vs_nc_sum": ("meixner", jacobi.meixner_moments),
}


@functools.cache
def records(suite: str) -> dict:
    """The records the suite yields at the default parameters, by check name."""
    draw = getattr(suites, f"suite_{suite}")
    return {pair.name: (pair, inputs) for pair, inputs in draw(suites.SuiteParams())}


@pytest.mark.parametrize("name", ROUTE_RUNS)
def test_first_route_runs_inside_its_check(name):
    suite, route = ROUTE_RUNS[name]
    pair, inputs = records(suite)[name]
    assert code_key(route.__code__) in package_calls(lambda: pair.routes[0](*inputs[0]))
