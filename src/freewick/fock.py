"""Truncated full Fock space over a discretized one-particle space.

Level ``k`` of a vector is a dense order-``k`` array over grid indices
(level 0 is a scalar).  The inner product carries one quadrature weight
per tensor slot.  Creation prepends a slot, annihilation contracts the
first slot against the weights, and the neutral operator multiplies the
first slot pointwise (the diagonal case of :func:`first_slot`, which
applies a one-particle matrix there); together they satisfy the free
relation ``annihilate(g, create(f, v)) == <g, f> v`` exactly in quadrature.

Budgets are explicit: any raising step that would push nonzero content
past ``max_level`` raises :class:`~freewick.errors.CapacityError` rather
than truncating.

Operations never mutate their inputs; vectors are plain values.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import CapacityError

__all__ = [
    "FockVector",
    "vacuum",
    "zero",
    "create",
    "annihilate",
    "neutral",
    "first_slot",
    "point_create",
    "point_annihilate",
    "inner",
    "norm",
    "top_level",
    "random_vector",
]


class FockVector:
    """A graded finite sequence of dense coefficient arrays over grid indices."""

    __slots__ = ("base", "levels")

    def __init__(self, base, levels):
        self.base = base
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        m = base.size
        for k, arr in enumerate(self.levels):
            if arr.shape != (m,) * k:
                raise ValueError(f"level {k} must have shape {(m,) * k}")

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def copy(self) -> "FockVector":
        return FockVector(self.base, [a.copy() for a in self.levels])

    def _compat(self, other: "FockVector") -> None:
        if self.base is not other.base and self.base.size != other.base.size:
            raise ValueError("vectors live over different grids")

    def _combine(self, other: "FockVector", op) -> "FockVector":
        # budgets are allocations, not content: a missing level counts as zero
        self._compat(other)
        levels = []
        for k in range(max(self.max_level, other.max_level) + 1):
            a = self.levels[k] if k <= self.max_level else 0.0
            b = other.levels[k] if k <= other.max_level else 0.0
            levels.append(op(a, b))
        return FockVector(self.base, levels)

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, operator.add)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: float) -> "FockVector":
        return FockVector(self.base, [a * float(scalar) for a in self.levels])

    __rmul__ = __mul__

    def __neg__(self) -> "FockVector":
        return self * -1.0


def zero(base, max_level: int) -> FockVector:
    m = base.size
    return FockVector(base, [np.zeros((m,) * k) for k in range(max_level + 1)])


def vacuum(base, max_level: int) -> FockVector:
    """The vector (1, 0, 0, ...)."""
    v = zero(base, max_level)
    v.levels[0] = np.asarray(1.0)
    return v


def top_level(v: FockVector) -> int:
    """Highest level carrying a nonzero entry, or -1 for the zero vector."""
    for k in range(v.max_level, -1, -1):
        if np.any(v.levels[k]):
            return k
    return -1


def _node_values(f, base) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (base.size,):
        raise ValueError(f"node values must have shape {(base.size,)}, got {f.shape}")
    return f


def _first(mat, a: np.ndarray) -> np.ndarray:
    """``mat`` on the first slot of the level ``a``; zeros, not computed, for a zero ``a``."""
    shape = mat.shape[:-1] + a.shape[1:]
    return (mat @ a.reshape(a.shape[0], -1)).reshape(shape) if np.any(a) else np.zeros(shape)


def create(f, v: FockVector) -> FockVector:
    """Prepend a slot sampled from ``f``: level k of ``v`` feeds level k+1."""
    f = _node_values(f, v.base)
    if np.any(f) and np.any(v.levels[-1]):
        raise CapacityError(f"create would push level {v.max_level} content past the budget")
    # f as an (m, 1) matrix acting on a new unit slot
    return FockVector(v.base, [np.zeros(())] + [_first(f[:, None], a[None]) for a in v.levels[:-1]])


def annihilate(f, v: FockVector) -> FockVector:
    """Contract the first slot against ``f`` with quadrature weights."""
    wf = v.base.weights * _node_values(f, v.base)
    levels = [_first(wf, a) for a in v.levels[1:]]
    return FockVector(v.base, levels + [np.zeros(v.levels[-1].shape)])


def neutral(f, v: FockVector) -> FockVector:
    """Multiply the first slot pointwise by ``f``; kills level 0."""
    f = _node_values(f, v.base)
    levels = [
        f.reshape((-1,) + (1,) * (a.ndim - 1)) * a if np.any(a) else np.zeros(a.shape)
        for a in v.levels[1:]
    ]
    return FockVector(v.base, [np.zeros(())] + levels)


def first_slot(a, v: FockVector) -> FockVector:
    """Apply the one-particle matrix ``a`` to the first slot; kills level 0.

    ``out[i, ...] = sum_j a[i, j] v[j, ...]`` on every level; :func:`neutral`
    is the diagonal case.
    """
    a = np.asarray(a, dtype=float)
    return FockVector(v.base, [np.zeros(())] + [_first(a, lv) for lv in v.levels[1:]])


def point_create(i: int, v: FockVector) -> FockVector:
    """Creation at a single node: prepend the discrete point mass there.

    The prepended slot function is the discrete delta of height ``1/w_i``,
    so smearing with weights ``sum_i w_i f(t_i) point_create(i, .)``
    reproduces :func:`create` exactly.
    """
    out = zero(v.base, v.max_level)
    scale = 1.0 / v.base.weights[i]
    for k, arr in enumerate(v.levels):
        if not np.any(arr):
            continue
        if k + 1 > v.max_level:
            raise CapacityError(
                f"point creation would push level {k} content past budget {v.max_level}"
            )
        out.levels[k + 1][i, ...] = scale * arr
    return out


def point_annihilate(i: int, v: FockVector) -> FockVector:
    """Annihilation at a single node: select the first-slot slice there."""
    out = zero(v.base, v.max_level)
    for k in range(1, v.max_level + 1):
        out.levels[k - 1] = v.levels[k][i, ...].copy()
    return out


def inner(u: FockVector, v: FockVector) -> float:
    """Vacuum-grade inner product with one weight per tensor slot."""
    if u.base.size != v.base.size:
        raise ValueError("vectors live over different grids")
    w = u.base.weights
    total = 0.0
    for k in range(min(u.max_level, v.max_level) + 1):
        prod = (u.levels[k] * v.levels[k]).reshape(-1)
        for _ in range(k):
            prod = w @ prod.reshape(w.size, -1)
        total += float(prod[0])
    return total


def norm(v: FockVector) -> float:
    return float(np.sqrt(max(inner(v, v), 0.0)))


def random_vector(base, max_level: int, rng: np.random.Generator, scale=1.0) -> FockVector:
    """Dense standard-normal vector, used by the seeded verification suites."""
    m = base.size
    levels = [scale * rng.standard_normal((m,) * k) for k in range(max_level + 1)]
    return FockVector(base, levels)
