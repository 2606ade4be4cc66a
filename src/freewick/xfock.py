"""Extended Fock space: the full Fock space over {0..L} x T, the graded
field parts on it, and the basis transform to the joint-quadrature space.

A vector is a Fock vector over the one-particle space {0..L} x T, laid
out ``l*m + t`` and weighted by ``w(t) g_l(t)`` (the squared norm of the
degree-``l`` monic orthogonal polynomial of the node's law): a scalar plus
dense levels, level ``i`` of shape ``((L+1)m,)*i``.  Its multi-index
component ``(l_1, ..., l_i)`` is the slice of level ``i`` at those ``l``,
of degree ``sum(l) + i``.  The degree budget ``max_degree`` is a capacity
check, not an allocation: ``L`` is the smaller of the system's tabulated
degree and ``max_degree - 1``, and levels stop at the top nonzero one.

The field is creation and annihilation at ``l = 0`` plus the node's
Jacobi matrix times ``f`` on the first slot, all on :mod:`fock`
primitives.  Raising creates at ``l = 0`` and shifts the first slot
``l -> l+1``; preserving multiplies it by ``b_l f``; lowering annihilates
at ``l = 0`` and shifts ``l -> l-1`` times ``a_l f``.  With level-independent
coefficients these collapse to the closed second-order form of the field
at a point.  Raising nonzero content past the budget, or shifting it past
``L`` where it is not null, raises :class:`CapacityError`.

Vacuum moments (:func:`xmoment`) build no dense level.  Every part of the
field keeps a rank-one tensor over {0..L} x T rank-one: creation prepends
``f e_0``, annihilation drops the first slot and scales by its weighted dot
with ``f e_0``, and the Jacobi band maps the first slot elementwise over
its ``(l, t)`` view.  So each half of a word runs on the vacuum as at most
``3**ceil(n/2)`` weighted rank-one terms, and the halves meet in slot dots
weighted with ``w g_l``.  This is code of its own, apart from the
big-Fock moments of :mod:`cumulant` that the suites compare it with.

The per-slot polynomial transform between this space and the Fock space
over the joint (node, atom) quadrature is an exact isometry on the grid
and intertwines the two realizations of the field; both facts are what the
verification suites check numerically.
"""

from __future__ import annotations

import functools
import operator
import string
from collections import namedtuple

import numpy as np

from . import field, fock
from .errors import CapacityError
from .fock import FockVector
from .grid import GridMeasure, ProductGrid
from .jacobi import JacobiSystem, poly_values
from .ncpart import _compositions

__all__ = [
    "XFockVector",
    "x_vacuum",
    "x_inner",
    "x_norm",
    "xplus",
    "xzero",
    "xminus",
    "xfield",
    "xmoment",
    "big_fock_realize",
    "k_transform",
    "k_inverse",
    "inner_product_formula",
    "power_jump",
    "kernel_lift",
    "multi_indices_exact",
]

# {0..L} x T as a Fock base; not a GridMeasure, because g_l may vanish
_SlotBase = namedtuple("_SlotBase", "size weights", defaults=(None,))


def multi_index_degree(ls: tuple[int, ...]) -> int:
    return sum(ls) + len(ls)


def multi_indices_exact(n: int):
    """All multi-indices of degree exactly n (compositions, parts shifted by 1)."""
    for i in range(1, n + 1):
        for comp in _compositions(n, i):
            yield tuple(c - 1 for c in comp)


def _block_index(ls) -> tuple:
    return tuple(part for l in ls for part in (l, slice(None)))


class XFockVector:
    """Scalar plus dense levels over {0..lmax} x T, with a degree budget."""

    __slots__ = ("grid", "max_degree", "lmax", "levels")

    def __init__(self, grid: GridMeasure, max_degree: int, scalar: float = 0.0):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        self.grid = grid
        self.max_degree = int(max_degree)
        self.lmax = max(self.max_degree - 1, 0)
        self.levels = [np.asarray(float(scalar))]

    @classmethod
    def _of(cls, grid, max_degree: int, lmax: int, levels) -> "XFockVector":
        out = cls(grid, max_degree)
        out.lmax, out.levels = lmax, list(levels)
        while len(out.levels) > 1 and not np.any(out.levels[-1]):
            out.levels.pop()
        return out

    @property
    def scalar(self) -> float:
        return float(self.levels[0])

    def _blocks(self, i: int) -> np.ndarray:
        """Level ``i`` with axes ``(l_1, t_1, ..., l_i, t_i)``."""
        return self.levels[i].reshape((self.lmax + 1, self.grid.size) * i)

    def component(self, ls) -> np.ndarray:
        ls = tuple(int(l) for l in ls)
        if len(ls) >= len(self.levels) or max(ls, default=0) > self.lmax:
            return np.zeros((self.grid.size,) * len(ls))
        return self._blocks(len(ls))[_block_index(ls)]

    def set_component(self, ls, arr) -> None:
        ls = tuple(int(l) for l in ls)
        i, m = len(ls), self.grid.size
        if any(l < 0 for l in ls) or not ls:
            raise ValueError(f"invalid multi-index {ls}")
        if multi_index_degree(ls) > self.max_degree or max(ls) > self.lmax:
            raise CapacityError(f"multi-index {ls} exceeds degree budget {self.max_degree}")
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (m,) * i:
            raise ValueError(f"component {ls} must have shape {(m,) * i}")
        while len(self.levels) <= i:
            self.levels.append(np.zeros(((self.lmax + 1) * m,) * len(self.levels)))
        blocks = self._blocks(i)  # a copy when the level is not contiguous
        blocks[_block_index(ls)] = arr
        self.levels[i] = blocks.reshape(self.levels[i].shape)

    @property
    def components(self) -> dict[tuple[int, ...], np.ndarray]:
        """Nonzero components by degree, then lexicographically; views into the levels."""
        found = []
        for i in range(1, len(self.levels)):
            nonzero = np.any(self._blocks(i) != 0, axis=tuple(range(1, 2 * i, 2)))
            found.extend(tuple(int(l) for l in ls) for ls in np.argwhere(nonzero))
        found.sort(key=lambda ls: (sum(ls) + len(ls), ls))
        return {ls: self._blocks(len(ls))[_block_index(ls)] for ls in found}

    def _combine(self, other: "XFockVector", op) -> "XFockVector":
        if self.grid.size != other.grid.size:
            raise ValueError("vectors live over different grids")
        lmax = max(self.lmax, other.lmax)
        base = _SlotBase((lmax + 1) * self.grid.size)
        a, b = (FockVector(base, _levels_at(x, lmax)) for x in (self, other))
        budget = max(self.max_degree, other.max_degree)
        return XFockVector._of(self.grid, budget, lmax, op(a, b).levels)

    def __add__(self, other: "XFockVector") -> "XFockVector":
        return self._combine(other, operator.add)

    def __sub__(self, other: "XFockVector") -> "XFockVector":
        return self._combine(other, operator.sub)


def _levels_at(v: XFockVector, lmax: int, sys: JacobiSystem | None = None) -> list:
    """Levels of ``v`` over {0..lmax} x T: zero-padded, or cut past ``lmax``.

    Cut content must be null: ``g`` and ``a`` vanish from a node's support
    size on, so content there has zero norm and never lowers back.
    """
    if lmax == v.lmax:
        return list(v.levels)
    out = [v.levels[0]]
    for i in range(1, len(v.levels)):
        x = v._blocks(i)
        if lmax > v.lmax:
            x = np.pad(x, [(0, lmax - v.lmax), (0, 0)] * i)
        else:
            kept = x[(slice(lmax + 1), slice(None)) * i]
            if np.count_nonzero(kept) != np.count_nonzero(x):
                _require_null_past(sys, lmax)
            x = kept
        out.append(x.reshape(((lmax + 1) * v.grid.size,) * i))
    return out


def _require_null_past(sys: JacobiSystem | None, lmax: int) -> None:
    if sys is None or any((n.finite_support_n or np.inf) > lmax + 1 for n in sys.nodes):
        raise CapacityError(f"nonzero content past degree {lmax} exceeds the budget or tabulation")


def _check_budget(levels, lmax: int, m: int, max_degree: int) -> None:
    """Raise unless every nonzero component has degree at most ``max_degree``."""
    for i, arr in enumerate(levels):
        if i * (lmax + 1) > max_degree:
            nonzero = np.any(arr.reshape((lmax + 1, m) * i) != 0, axis=tuple(range(1, 2 * i, 2)))
            if np.any(nonzero[np.indices(nonzero.shape).sum(axis=0) + i > max_degree]):
                raise CapacityError(f"level {i} content exceeds the degree budget {max_degree}")


def _weighted(v: XFockVector, sys: JacobiSystem, lmax: int) -> FockVector:
    """``v`` over {0..lmax} x T with the per-slot weights ``w(t) g_l(t)``.

    Its budget is one level above the stored ones: room for one raise.
    """
    weights = np.ravel([sys.grid.weights * sys.g_values(l) for l in range(lmax + 1)])
    levels = _levels_at(v, lmax, sys)
    return FockVector(_SlotBase(weights.size, weights), levels, len(levels))


def x_vacuum(grid: GridMeasure, max_degree: int) -> XFockVector:
    return XFockVector(grid, max_degree, scalar=1.0)


def x_inner(u: XFockVector, v: XFockVector, sys: JacobiSystem) -> float:
    """Inner product with per-slot weight ``w(t) g_{l_j}(t)``: :func:`fock.inner`."""
    lmax = min(sys.max_degree, max(u.lmax, v.lmax))
    return fock.inner(_weighted(u, sys, lmax), _weighted(v, sys, lmax))


def x_norm(v: XFockVector, sys: JacobiSystem) -> float:
    return float(np.sqrt(max(x_inner(v, v, sys), 0.0)))


def _field_part(f, v: XFockVector, sys: JacobiSystem, parts: str) -> XFockVector:
    """The field parts named in ``parts`` (``+``, ``0``, ``-``) applied to ``v``.

    Creation and annihilation act at l=0; the kept bands of the node's
    Jacobi matrix times ``f`` act on the first slot in one product.
    """
    f = np.asarray(f, dtype=float)
    m = f.size
    lmax = max(0, min(sys.max_degree, v.max_degree - 1))
    u = _weighted(v, sys, lmax)
    at_l0 = np.concatenate([f, np.zeros(lmax * m)])
    band = np.zeros((u.base.size,) * 2)
    if "+" in parts:
        band += np.diag(np.tile(f, lmax), -m)
    if "0" in parts:
        band += np.diag(np.ravel([sys.b_values(l) * f for l in range(lmax + 1)]))
    if "-" in parts:
        band += np.diag(np.ravel([sys.a_values(l) * f for l in range(1, lmax + 1)]), m)
    out = fock.first_slot(band, u)
    if "-" in parts:
        out = out + fock.annihilate(at_l0, u)
    if "+" in parts:
        if any(np.any(arr[lmax * m:][f != 0]) for arr in u.levels[1:]):
            _require_null_past(sys, lmax)  # the shift would push it past lmax
        out = out + fock.create(at_l0, u)
        _check_budget(out.levels, lmax, m, v.max_degree)
    return XFockVector._of(v.grid, v.max_degree, lmax, out.levels)


def xplus(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """Degree-raising part: create ``f`` at l=0, plus the first-slot shift l -> l+1."""
    return _field_part(f, v, sys, "+")


def xzero(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """Degree-preserving part: first-slot multiplication by ``b_l f``."""
    return _field_part(f, v, sys, "0")


def xminus(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """Degree-lowering part: annihilate ``f`` at l=0, plus the shift l -> l-1 times ``a_l``."""
    return _field_part(f, v, sys, "-")


def xfield(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """The full field: raising + preserving + lowering parts, in one pass."""
    return _field_part(f, v, sys, "+0-")


def xmoment(fs, sys: JacobiSystem) -> float:
    """Vacuum expectation of a field word, computed in this realization.

    Splits the word in half (the field is self-adjoint for the weighted
    inner product) so the degree budget stays at half the word length.
    Each half runs on the vacuum as rank-one term lists and the two lists
    meet in the weighted inner product; no dense level is built and no
    :mod:`fock` code runs.
    """
    fs = [np.asarray(f, dtype=float) for f in fs]
    n = len(fs)
    if n == 0:
        return 1.0
    split = n // 2
    right = _half_terms(fs[split:][::-1], sys)
    left = _half_terms(fs[:split], sys)
    return _pair_terms(left, right, sys)


# pairs of terms contracted at once in :func:`_pair_terms`, bounding its scratch
_PAIR_BLOCK = 1 << 16


def _half_terms(fs, sys: JacobiSystem) -> dict:
    """The fields of ``fs``, first one first, on ``x_vacuum`` as rank-one terms.

    The budget is ``len(fs)``, so ``L = min(sys.max_degree, len(fs) - 1)``.
    Level ``k`` maps to coefficients ``c`` of shape ``(T,)`` and slots ``S``
    of shape ``(T, k, L + 1, m)``: the vector there is the sum over ``t``
    of ``c[t] S[t, 0] (x) ... (x) S[t, k-1]``.  Each step stays within the
    budget, since it raises the degree by at most one.
    """
    m = sys.grid.size
    lmax = max(0, min(sys.max_degree, len(fs) - 1))
    b = np.array([sys.b_values(l) for l in range(lmax + 1)])
    a = np.array([sys.a_values(l) for l in range(1, lmax + 1)]).reshape(lmax, m)
    w0 = sys.grid.weights * sys.g_values(0)
    levels = {0: (np.ones(1), np.empty((1, 0, lmax + 1, m)))}
    for f in fs:
        e0f = np.zeros((lmax + 1, m))
        e0f[0] = f
        bf, af = b * f, a * f
        out: dict[int, list] = {}
        for k, (c, s) in levels.items():
            # creation prepends f e_0; annihilation drops slot 0 against
            # w g_0 f e_0; the Jacobi band acts on slot 0 over its (l, t) view
            terms = [(k + 1, c, np.concatenate((np.broadcast_to(e0f, (c.size, 1) + e0f.shape), s), 1))]
            if k:
                s0 = s[:, 0]
                terms.append((k - 1, c * (s0[:, 0] @ (w0 * f)), s[:, 1:]))
                if np.any(s0[:, lmax, f != 0][c != 0]):
                    _require_null_past(sys, lmax)  # the shift would push it past lmax
                band = s0 * bf
                band[:, 1:] += s0[:, :-1] * f
                band[:, :-1] += s0[:, 1:] * af
                terms.append((k, c, np.concatenate((band[:, None], s[:, 1:]), 1)))
            for level, coef, slots in terms:
                out.setdefault(level, []).append((coef, slots))
        levels = {
            k: (np.concatenate([c for c, _ in parts]), np.concatenate([s for _, s in parts]))
            for k, parts in out.items()
        }
    return levels


def _pair_terms(left: dict, right: dict, sys: JacobiSystem) -> float:
    """Weighted inner product of two term lists: per shared level, the
    coefficient pairs times the product over slots of their dots weighted
    with ``w g_l``, over the degrees ``l`` both lists hold."""
    total = 0.0
    for k in sorted(left.keys() & right.keys()):
        (cl, sl), (cr, sr) = left[k], right[k]
        rows = min(sl.shape[2], sr.shape[2])  # past it, one side is zero
        ww = np.ravel([sys.grid.weights * sys.g_values(l) for l in range(rows)])
        sl = sl[:, :, :rows].reshape(cl.size, k, ww.size)
        sr = sr[:, :, :rows].reshape(cr.size, k, ww.size)
        block = max(1, _PAIR_BLOCK // cr.size)
        for start in range(0, cl.size, block):
            g = np.outer(cl[start:start + block], cr)
            for i in range(k):
                g *= (sl[start:start + block, i] * ww) @ sr[:, i].T
            total += float(g.sum())
    return total


def big_fock_realize(f, v: FockVector, pg: ProductGrid) -> FockVector:
    """The same field realized on the joint-quadrature Fock space.

    Lifts the node function to the joint nodes and applies the plain field
    there; the joint grid's coefficient table is the atom coordinate.
    Moments computed on this side are the reference for :func:`xmoment`.
    """
    return field.field_apply(pg.lift(f), v, pg)


def _poly_table(pg: ProductGrid, sys: JacobiSystem, lmax: int) -> np.ndarray:
    """Values of the per-node monic polynomials of degrees 0..lmax at the joint nodes."""
    rows = [poly_values(node, lmax, pg.svalues[sl]) for node, sl in zip(sys.nodes, pg.slices)]
    return np.concatenate(rows, axis=1)


# both classes hash by identity, so the cache keys on the objects and holds
# them: an id is never reused while its entry lives
@functools.lru_cache(maxsize=4)
def _slot_maps(pg: ProductGrid, sys: JacobiSystem) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto and synthesis from the node polynomials, ``((L+1)m) x joint``.

    Synthesis row ``l*m + t`` is ``p_l`` on node ``t``'s atoms; the
    projection row is that times the atom weights over ``g_l(t)`` (zero
    where ``g_l(t)`` vanishes).  The tabulated degree must span every fiber.
    Built once per pair and shared, so both come back read-only.
    """
    lmax, largest = sys.max_degree, max(fb.size for fb in pg.fibers)
    if lmax < largest - 1:
        raise ValueError(
            f"system tabulated to degree {lmax} cannot span fibers with {largest} atoms"
        )
    on_node = pg.tindex == np.arange(pg.grid.size)[:, None]
    synth = (_poly_table(pg, sys, lmax)[:, None, :] * on_node).reshape(-1, pg.size)
    g = np.ravel([sys.g_values(l) for l in range(lmax + 1)])[:, None]
    proj = np.divide(synth * pg.fweights, g, out=np.zeros_like(synth), where=g > 0.0)
    proj.flags.writeable = synth.flags.writeable = False
    return proj, synth


def _slotwise(mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Apply ``mat`` to every slot of a level array."""
    for _ in range(arr.ndim):
        arr = np.tensordot(arr, mat, axes=(0, 1))
    return arr


def k_transform(v: FockVector, sys: JacobiSystem, max_degree: int | None = None) -> XFockVector:
    """Per-slot change of basis from atom samples to polynomial coefficients.

    Each slot of a level-``i`` array over the joint quadrature is expanded
    in the node's monic polynomials.  Exact isometry on the grid (the
    polynomials are orthogonal for the discrete node laws).  The default
    budget is ``i * (L + 1)`` for the top nonzero level ``i``.
    """
    pg = v.base
    if not isinstance(pg, ProductGrid):
        raise TypeError("the transform acts on vectors over the joint quadrature")
    proj, _ = _slot_maps(pg, sys)
    top = max(fock.top_level(v), 0)
    max_degree = top * (sys.max_degree + 1) if max_degree is None else max_degree
    levels = [_slotwise(proj, a) for a in v.levels[: top + 1]]
    full = XFockVector._of(pg.grid, max_degree, sys.max_degree, levels)
    lmax = max(0, min(sys.max_degree, max_degree - 1))
    levels = _levels_at(full, lmax, sys)
    _check_budget(levels, lmax, pg.grid.size, max_degree)
    return XFockVector._of(pg.grid, max_degree, lmax, levels)


def k_inverse(xv: XFockVector, sys: JacobiSystem, pg: ProductGrid) -> FockVector:
    """Reconstruct the joint-quadrature vector from polynomial coefficients."""
    _, synth = _slot_maps(pg, sys)
    return FockVector(pg, [_slotwise(synth.T, a) for a in _levels_at(xv, sys.max_degree, sys)])


def _diagonal(kern: np.ndarray, ls) -> np.ndarray:
    """The kernel sampled with slot ``j`` repeated ``l_j + 1`` times."""
    letters = string.ascii_lowercase
    labels = "".join(letters[j] * (l + 1) for j, l in enumerate(ls))
    return np.einsum(labels + "->" + letters[: len(ls)], kern)


def inner_product_formula(fk, gk, sys: JacobiSystem) -> float:
    """Pairing of two projected monomial kernels by diagonal-pattern quadrature.

    Sums over multi-indices of degree equal to the kernel order: both
    kernels are sampled with slot ``j`` repeated ``l_j + 1`` times and the
    product is integrated against the per-slot weights ``w g_{l_j}``.
    """
    fk = np.asarray(fk, dtype=float)
    gk = np.asarray(gk, dtype=float)
    if fk.shape != gk.shape or fk.ndim < 1:
        raise ValueError("kernels must have equal positive order")
    w = sys.grid.weights
    total = 0.0
    for ls in multi_indices_exact(fk.ndim):
        prod = _diagonal(fk, ls) * _diagonal(gk, ls)
        for l in ls:
            prod = np.tensordot(w * sys.g_values(l), prod, axes=(0, 0))
        total += float(prod)
    return total


def kernel_lift(kern, grid: GridMeasure, max_degree: int | None = None) -> XFockVector:
    """Multi-index components of a projected monomial kernel.

    Component ``(l_1..l_i)`` is the kernel sampled with slot ``j`` repeated
    ``l_j + 1`` times; this is the image of the order-n projection in the
    multi-index picture.
    """
    kern = np.asarray(kern, dtype=float)
    n = kern.ndim
    out = XFockVector(grid, n if max_degree is None else max_degree, scalar=kern if n == 0 else 0.0)
    for ls in multi_indices_exact(n):
        out.set_component(ls, _diagonal(kern, ls))
    return out


def power_jump(l: int, delta, v: FockVector, pg: ProductGrid, sys: JacobiSystem,
               orthogonal: bool = True) -> FockVector:
    """Field smeared with a window times a power-type atom profile.

    ``delta`` is a boolean mask over the base grid nodes.
    ``orthogonal=True`` uses the degree-``l`` monic polynomial of the node
    law (the orthogonalized process); ``orthogonal=False`` uses the raw
    ``s**l`` profile.
    """
    delta = np.asarray(delta)
    if delta.dtype != bool or delta.shape != (pg.grid.size,):
        raise ValueError("the window must be a boolean mask over the base grid nodes")
    if orthogonal:
        vals = _poly_table(pg, sys, l)[l]
    else:
        vals = pg.svalues**l
    kern = delta[pg.tindex] * vals
    return field.field_apply(kern, v, pg)
