import gc
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import freewick
from freewick import cli

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail any test after which the cyclic garbage collector is off.

    The partition routes pause the collector, a process-wide switch; this
    keeps a route or a test from leaving it off for the tests after it.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic garbage collector was left off")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tridiag_moments(diag, off, k):
    """Independent oracle: moments of a Jacobi matrix at the first basis vector."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    vec = np.zeros(diag.size)
    vec[0] = 1.0
    out = [1.0]
    for _ in range(k):
        nxt = diag * vec
        if diag.size > 1:
            nxt[:-1] += off * vec[1:]
            nxt[1:] += off * vec[:-1]
        vec = nxt
        out.append(float(vec[0]))
    return np.array(out)


PACKAGE = os.path.dirname(freewick.__file__)


def code_key(code):
    """A function's key: its qualified name, or before Python 3.11, which
    lacks ``co_qualname``, its file and first line."""
    if hasattr(code, "co_qualname"):
        return code.co_qualname
    return code.co_filename, code.co_firstlineno


def package_calls(route) -> set:
    """Keys of the package functions that ``route()`` calls; a comprehension,
    generator or lambda counts as the function that holds it."""
    seen = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == PACKAGE:
            if not code.co_name.startswith("<"):
                seen.add(code_key(code))

    sys.setprofile(hook)
    try:
        route()
    finally:
        sys.setprofile(None)
    return seen


def charge_models() -> dict:
    """The models on which each moment route is held to its memory charge:
    the default model of ``moments``, and two two-atom laws on two nodes."""
    two_laws = [{"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
                {"atoms": [-0.5, 0.5], "weights": [0.5, 0.5]}]
    return {"default": cli.ModelConfig().build_model(),
            "two_laws": cli.ModelConfig(m=2, fibers=two_laws).build_model()}


def peak_bytes(route) -> int:
    """The tracemalloc peak of ``route()``, in bytes."""
    tracemalloc.start()
    try:
        route()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
