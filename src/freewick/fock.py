"""Truncated full Fock space over a discretized one-particle space.

Level ``k`` of a vector is a dense order-``k`` array over grid indices
(level 0 is a scalar).  The inner product carries one quadrature weight
per tensor slot.  Creation prepends a slot, annihilation contracts the
first slot against the weights, and the neutral operator multiplies the
first slot pointwise; together they satisfy the free relation
``annihilate(g, create(f, v)) == <g, f> v`` exactly in quadrature.

Levels are stored only up to the content: ``levels`` stops at or before
the budget ``max_level``, a number kept with the vector, and a level that
is not stored is zero (level 0 is always stored).  :func:`vacuum` stores
level 0 only, every operator emits only the levels its stored input
feeds, and a sum or difference drops the all-zero levels at its top.

The base is any one-particle space with a ``size`` and per-slot
``weights``: a grid, the joint quadrature, or the weighted slot space of
:mod:`xfock`.  Vectors combine only over one base, or over two of equal
size and equal weights.

Budgets are explicit: any raising step that would push nonzero content
past ``max_level`` raises :class:`~freewick.errors.CapacityError` rather
than truncating.

Operations never mutate their inputs; vectors are plain values.

Allocation and scratch.  An operator allocates each level it emits
once, by one array expression over the level that feeds it.  A sum or
difference allocates the levels it returns.  :func:`inner`, :func:`norm`
and :func:`distance` allocate no level: their scratch is one block of
first-slot rows, of at most ``_LEVEL_BLOCK`` entries, and a longer row
is reduced row by row.  A level that fits in one block is reduced in one
pass.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import CapacityError

__all__ = [
    "FockVector",
    "vacuum",
    "create",
    "annihilate",
    "neutral",
    "inner",
    "norm",
    "distance",
    "top_level",
    "random_vector",
]


class FockVector:
    """A graded finite sequence of dense coefficient arrays over grid indices.

    Levels past ``len(levels) - 1``, up to the budget ``max_level``, are zero.
    """

    __slots__ = ("base", "levels", "max_level")

    def __init__(self, base, levels, max_level=None):
        self.base = base
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        self.max_level = len(self.levels) - 1 if max_level is None else int(max_level)
        if not 0 < len(self.levels) <= self.max_level + 1:
            raise ValueError(f"stored levels must be 0..k with k <= the budget {self.max_level}")
        m = base.size
        for k, arr in enumerate(self.levels):
            if arr.shape != (m,) * k:
                raise ValueError(f"level {k} must have shape {(m,) * k}")

    def _compat(self, other: "FockVector") -> None:
        a, b = self.base, other.base
        if a is not b and (a.size != b.size or not np.array_equal(a.weights, b.weights)):
            raise ValueError("vectors live over different grids")

    def _combine(self, other: "FockVector", op) -> "FockVector":
        self._compat(other)
        pairs = itertools.zip_longest(self.levels, other.levels, fillvalue=0.0)
        levels = _trim([op(a, b) for a, b in pairs])
        return FockVector(self.base, levels, max(self.max_level, other.max_level))

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, operator.add)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: float) -> "FockVector":
        return FockVector(self.base, [a * float(scalar) for a in self.levels], self.max_level)

    __rmul__ = __mul__

    def __neg__(self) -> "FockVector":
        return self * -1.0


def vacuum(base, max_level: int) -> FockVector:
    """The vector (1, 0, 0, ...): level 0 stored, the budget kept."""
    return FockVector(base, [1.0], max_level)


def top_level(v: FockVector) -> int:
    """Highest level carrying a nonzero entry, or -1 for the zero vector."""
    for k in range(len(v.levels) - 1, -1, -1):
        if np.any(v.levels[k]):
            return k
    return -1


def _node_values(f, base) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (base.size,):
        raise ValueError(f"node values must have shape {(base.size,)}, got {f.shape}")
    return f


def _trim(levels: list) -> list:
    """``levels`` without the all-zero levels at its top; level 0 stays."""
    while len(levels) > 1 and not np.any(levels[-1]):
        levels.pop()  # a cancelled top level is not stored
    return levels


def create(f, v: FockVector) -> FockVector:
    """Prepend a slot sampled from ``f``: level k of ``v`` feeds level k+1."""
    f = _node_values(f, v.base)
    if len(v.levels) > v.max_level and np.any(v.levels[-1]) and np.any(f):
        raise CapacityError(f"create would push level {v.max_level} content past the budget")
    levels = [0.0] + [np.multiply.outer(f, a) for a in v.levels[: v.max_level]]
    return FockVector(v.base, levels, v.max_level)


def annihilate(f, v: FockVector) -> FockVector:
    """Contract the first slot against ``f`` with quadrature weights."""
    wf = v.base.weights * _node_values(f, v.base)
    levels = [(wf @ a.reshape(wf.size, -1)).reshape(a.shape[1:]) for a in v.levels[1:]]
    return FockVector(v.base, levels or [0.0], v.max_level)


def neutral(f, v: FockVector) -> FockVector:
    """Multiply the first slot pointwise by ``f``; kills level 0."""
    f = _node_values(f, v.base)
    levels = [0.0] + [f.reshape((-1,) + (1,) * (a.ndim - 1)) * a for a in v.levels[1:]]
    return FockVector(v.base, levels, v.max_level)


# entries in one block of first-slot rows: the scratch bound of the level reductions
_LEVEL_BLOCK = 1 << 15


def _weighted_sum(x: np.ndarray, w: np.ndarray, first: np.ndarray) -> float:
    """``x`` summed with the weights ``first`` on its first axis and ``w`` on every other.

    The last axis is contracted first, so each step holds a slot less.
    """
    for _ in range(x.ndim - 1):
        x = x.reshape(-1, w.size) @ w
    return float(first @ x)


def _level_sum(pair, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """The weighted sum over one level of ``pair(a, b)``, an entrywise array.

    ``pair`` runs on a block of first-slot rows at a time, the whole level
    when it fits in ``_LEVEL_BLOCK`` entries; a row longer than the block
    is reduced row by row in turn.
    """
    if a.ndim == 0:
        return float(pair(a, b))
    rows, row_size = a.shape[0], a[0].size
    if row_size > _LEVEL_BLOCK:
        return sum(w[i] * _level_sum(pair, a[i], b[i], w) for i in range(rows))
    step = _LEVEL_BLOCK // row_size
    return sum(
        _weighted_sum(pair(a[i : i + step], b[i : i + step]), w, w[i : i + step])
        for i in range(0, rows, step)
    )


def _squared_gap(a, b):
    """``(a - b) ** 2`` entrywise, in one temporary."""
    gap = a - b
    gap *= gap
    return gap


def inner(u: FockVector, v: FockVector) -> float:
    """Vacuum-grade inner product with one weight per tensor slot."""
    u._compat(v)
    w = u.base.weights
    return float(sum(_level_sum(np.multiply, a, b, w) for a, b in zip(u.levels, v.levels)))


def distance(u: FockVector, v: FockVector) -> float:
    """``norm(u - v)``, taken level by level without building the difference."""
    u._compat(v)
    w = u.base.weights
    total = 0.0
    for a, b in itertools.zip_longest(u.levels, v.levels):
        if a is None or b is None:  # a level only one side stores
            a = b = a if b is None else b
            total += _level_sum(np.multiply, a, b, w)
        else:
            total += _level_sum(_squared_gap, a, b, w)
    return float(np.sqrt(max(total, 0.0)))


def norm(v: FockVector) -> float:
    return float(np.sqrt(max(inner(v, v), 0.0)))


def random_vector(base, max_level: int, rng: np.random.Generator) -> FockVector:
    """Dense standard-normal vector, used by the seeded verification suites."""
    m = base.size
    levels = [rng.standard_normal((m,) * k) for k in range(max_level + 1)]
    return FockVector(base, levels)
