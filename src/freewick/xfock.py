"""Extended Fock space: multi-index components, graded field parts, and the
basis transform to the joint-quadrature Fock space.

A vector is a scalar plus components keyed by multi-indices
``(l_1, ..., l_i)``: each component is a dense order-``i`` array over the
base grid, weighted per slot ``j`` by the measure with density ``g_{l_j}``
(the squared norm of the degree-``l_j`` monic orthogonal polynomial of the
node's law).  The degree of a multi-index is ``sum(l) + i`` and grades the
space.

The field splits into a raising, a preserving, and a lowering part.  The
raising part either prepends a fresh ``l = 0`` slot or bumps the leading
index; the lowering part either contracts an ``l_1 = 0`` slot against the
base quadrature or lowers the leading index with the recurrence
coefficient ``a``; the preserving part multiplies by ``b``.  With
level-independent coefficients these collapse to the closed second-order
form of the field at a point (creation + coefficient-weighted neutral +
annihilation + second-order contraction).

The per-slot polynomial transform between this space and the Fock space
over the joint (node, atom) quadrature is an exact isometry on the grid
and intertwines the two realizations of the field; both facts are what the
verification suites check numerically.

Components keyed by different multi-indices never interact except through
the slot-prepending and slot-contracting parts, so per-component work can
be parallelized with a final merge.
"""

from __future__ import annotations

import itertools
import string

import numpy as np

from . import field, fock
from .errors import CapacityError
from .fock import FockVector
from .grid import GridMeasure, ProductGrid
from .jacobi import JacobiSystem, poly_eval
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
    "multi_indices_up_to",
]


def multi_index_degree(ls: tuple[int, ...]) -> int:
    return sum(ls) + len(ls)


def multi_indices_exact(n: int):
    """All multi-indices of degree exactly n (compositions, parts shifted by 1)."""
    for i in range(1, n + 1):
        for comp in _compositions(n, i):
            yield tuple(c - 1 for c in comp)


def multi_indices_up_to(max_degree: int):
    for n in range(1, max_degree + 1):
        yield from multi_indices_exact(n)


class XFockVector:
    """Scalar plus multi-index-keyed dense components over the base grid."""

    __slots__ = ("grid", "max_degree", "scalar", "components")

    def __init__(self, grid: GridMeasure, max_degree: int, scalar: float = 0.0, components=None):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        self.grid = grid
        self.max_degree = int(max_degree)
        self.scalar = float(scalar)
        self.components: dict[tuple[int, ...], np.ndarray] = {}
        if components:
            for ls, arr in components.items():
                self.set_component(ls, arr)

    def set_component(self, ls, arr) -> None:
        ls = tuple(int(l) for l in ls)
        if any(l < 0 for l in ls) or not ls:
            raise ValueError(f"invalid multi-index {ls}")
        if multi_index_degree(ls) > self.max_degree:
            raise CapacityError(f"multi-index {ls} exceeds degree budget {self.max_degree}")
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (self.grid.size,) * len(ls):
            raise ValueError(f"component {ls} must have shape {(self.grid.size,) * len(ls)}")
        self.components[ls] = arr

    def add_component(self, ls, arr) -> None:
        ls = tuple(int(l) for l in ls)
        got = self.components.get(ls)
        if got is None:
            self.set_component(ls, arr)
        else:
            self.components[ls] = got + arr

    def component(self, ls) -> np.ndarray:
        ls = tuple(int(l) for l in ls)
        got = self.components.get(ls)
        if got is not None:
            return got
        return np.zeros((self.grid.size,) * len(ls))

    def sorted_keys(self) -> list[tuple[int, ...]]:
        return sorted(self.components, key=lambda ls: (multi_index_degree(ls), ls))

    def copy(self) -> "XFockVector":
        out = XFockVector(self.grid, self.max_degree, self.scalar)
        out.components = {ls: arr.copy() for ls, arr in self.components.items()}
        return out

    def _compat(self, other: "XFockVector") -> None:
        if self.grid.size != other.grid.size:
            raise ValueError("vectors live over different grids")

    def __add__(self, other: "XFockVector") -> "XFockVector":
        self._compat(other)
        out = XFockVector(self.grid, max(self.max_degree, other.max_degree), self.scalar + other.scalar)
        for src in (self, other):
            for ls, arr in src.components.items():
                out.add_component(ls, arr)
        return out

    def __sub__(self, other: "XFockVector") -> "XFockVector":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "XFockVector":
        out = XFockVector(self.grid, self.max_degree, self.scalar * float(scalar))
        out.components = {ls: arr * float(scalar) for ls, arr in self.components.items()}
        return out

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "scalar": self.scalar,
            "components": {
                ",".join(map(str, ls)): self.components[ls].tolist()
                for ls in self.sorted_keys()
            },
        }


def x_vacuum(grid: GridMeasure, max_degree: int) -> XFockVector:
    return XFockVector(grid, max_degree, scalar=1.0)


def x_inner(u: XFockVector, v: XFockVector, sys: JacobiSystem) -> float:
    """Inner product with per-slot weight ``w(t) g_{l_j}(t)``."""
    total = u.scalar * v.scalar
    w = sys.grid.weights
    for ls, arr in u.components.items():
        other = v.components.get(ls)
        if other is None:
            continue
        prod = arr * other
        for l in ls:
            prod = np.tensordot(w * sys.g_values(l), prod, axes=(0, 0))
        total += float(prod)
    return total


def x_norm(v: XFockVector, sys: JacobiSystem) -> float:
    return float(np.sqrt(max(x_inner(v, v, sys), 0.0)))


def xplus(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """Degree-raising part: prepend a fresh l=0 slot, or bump the leading index."""
    f = np.asarray(f, dtype=float)
    out = XFockVector(v.grid, v.max_degree)
    if v.scalar != 0.0:
        if v.max_degree < 1:
            raise CapacityError("raising the scalar exceeds the degree budget")
        out.add_component((0,), v.scalar * f)
    for ls, arr in v.components.items():
        if not np.any(arr):
            continue
        if multi_index_degree(ls) + 1 > v.max_degree:
            raise CapacityError(
                f"raising {ls} exceeds the degree budget {v.max_degree}"
            )
        out.add_component((0,) + ls, np.multiply.outer(f, arr))
        bump = f.reshape((-1,) + (1,) * (len(ls) - 1)) * arr
        out.add_component((ls[0] + 1,) + ls[1:], bump)
    return out


def xzero(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """Degree-preserving part: leading-slot multiplication by ``b_{l_1} f``."""
    f = np.asarray(f, dtype=float)
    out = XFockVector(v.grid, v.max_degree)
    for ls, arr in v.components.items():
        coeff = sys.b_values(ls[0]) * f
        out.add_component(ls, coeff.reshape((-1,) + (1,) * (len(ls) - 1)) * arr)
    return out


def xminus(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """Degree-lowering part: contract an l=0 slot, or lower the leading index."""
    f = np.asarray(f, dtype=float)
    out = XFockVector(v.grid, v.max_degree)
    w = sys.grid.weights
    for ls, arr in v.components.items():
        if ls[0] == 0:
            contracted = np.tensordot(w * f, arr, axes=(0, 0))
            if len(ls) == 1:
                out.scalar += float(contracted)
            else:
                out.add_component(ls[1:], contracted)
        else:
            coeff = sys.a_values(ls[0]) * f
            out.add_component(
                (ls[0] - 1,) + ls[1:],
                coeff.reshape((-1,) + (1,) * (len(ls) - 1)) * arr,
            )
    return out


def xfield(f, v: XFockVector, sys: JacobiSystem) -> XFockVector:
    """The full field: raising + preserving + lowering parts."""
    return xplus(f, v, sys) + xzero(f, v, sys) + xminus(f, v, sys)


def xmoment(fs, sys: JacobiSystem) -> float:
    """Vacuum expectation of a field word, computed in this realization.

    Splits the word in half (the field is self-adjoint for the weighted
    inner product) so the degree budget stays at half the word length.
    """
    fs = [np.asarray(f, dtype=float) for f in fs]
    n = len(fs)
    if n == 0:
        return 1.0
    split = n // 2
    right = x_vacuum(sys.grid, n - split)
    for f in reversed(fs[split:]):
        right = xfield(f, right, sys)
    left = x_vacuum(sys.grid, split)
    for f in fs[:split]:
        left = xfield(f, left, sys)
    return x_inner(right, left, sys)


def big_fock_realize(f, v: FockVector, pg: ProductGrid) -> FockVector:
    """The same field realized on the joint-quadrature Fock space.

    Lifts the node function to the joint nodes and applies the plain field
    there; the joint grid's coefficient table is the atom coordinate.
    Moments computed on this side are the reference for :func:`xmoment`.
    """
    return field.field_apply(pg.lift(f), v, pg)


def _poly_table(pg: ProductGrid, sys: JacobiSystem, lmax: int) -> np.ndarray:
    """Values of the per-node monic polynomials at the joint nodes."""
    table = np.zeros((lmax + 1, pg.size))
    for t in range(pg.grid.size):
        sl = pg.slices[t]
        s = pg.svalues[sl]
        for l in range(lmax + 1):
            table[l, sl] = poly_eval(sys.nodes[t], l, s)
    return table


def _require_complete(pg: ProductGrid, sys: JacobiSystem) -> int:
    lmax = sys.max_degree
    largest = max(fb.size for fb in pg.fibers)
    if lmax < largest - 1:
        raise ValueError(
            f"system tabulated to degree {lmax} cannot span fibers with {largest} atoms"
        )
    return lmax


def k_transform(v: FockVector, sys: JacobiSystem, max_degree: int | None = None) -> XFockVector:
    """Per-slot change of basis from atom samples to polynomial coefficients.

    Each tensor slot of a level-``i`` array over the joint quadrature is
    expanded in the node's monic polynomials; the coefficient arrays land
    in the multi-index components.  Exact isometry on the grid (the
    polynomials are orthogonal for the discrete node laws); requires the
    tabulated degree to span every fiber.
    """
    pg = v.base
    if not isinstance(pg, ProductGrid):
        raise TypeError("the transform acts on vectors over the joint quadrature")
    lmax = _require_complete(pg, sys)
    m = pg.grid.size
    table = _poly_table(pg, sys, lmax)

    # projection rows: fiber weight times polynomial over squared norm
    proj = np.zeros(((lmax + 1) * m, pg.size))
    for t in range(m):
        sl = pg.slices[t]
        for l in range(lmax + 1):
            gl = sys.nodes[t].g[l]
            if gl > 0.0:
                proj[l * m + t, sl] = pg.fweights[sl] * table[l, sl] / gl

    if max_degree is None:
        max_degree = 0
        for i in range(1, v.max_level + 1):
            if np.any(v.levels[i]):
                max_degree = max(max_degree, i * (lmax + 1))
    out = XFockVector(pg.grid, max_degree, scalar=float(v.levels[0]))
    for i in range(1, v.max_level + 1):
        arr = v.levels[i]
        if not np.any(arr):
            continue
        x = arr
        for ax in range(i):
            x = np.moveaxis(np.tensordot(proj, x, axes=(1, ax)), 0, ax)
        x = x.reshape((lmax + 1, m) * i)
        for ls in itertools.product(range(lmax + 1), repeat=i):
            idx = tuple(
                part for l in ls for part in (l, slice(None))
            )
            comp = x[idx]
            if np.any(comp):
                out.add_component(ls, comp)
    return out


def k_inverse(xv: XFockVector, sys: JacobiSystem, pg: ProductGrid) -> FockVector:
    """Reconstruct the joint-quadrature vector from polynomial coefficients."""
    lmax = _require_complete(pg, sys)
    m = pg.grid.size
    table = _poly_table(pg, sys, lmax)
    synth = np.zeros(((lmax + 1) * m, pg.size))
    for t in range(m):
        sl = pg.slices[t]
        for l in range(lmax + 1):
            synth[l * m + t, sl] = table[l, sl]

    orders = [len(ls) for ls in xv.components] or [0]
    out = fock.zero(pg, max(orders))
    out.levels[0] = np.asarray(xv.scalar)
    by_order: dict[int, list[tuple[tuple[int, ...], np.ndarray]]] = {}
    for ls, arr in xv.components.items():
        by_order.setdefault(len(ls), []).append((ls, arr))
    for i, items in by_order.items():
        y = np.zeros(((lmax + 1), m) * i)
        for ls, arr in items:
            if any(l > lmax for l in ls):
                raise ValueError(f"component {ls} outside the tabulated degree {lmax}")
            idx = tuple(part for l in ls for part in (l, slice(None)))
            y[idx] += arr
        y = y.reshape(((lmax + 1) * m,) * i)
        for ax in range(i):
            y = np.moveaxis(np.tensordot(synth, y, axes=(0, ax)), 0, ax)
        out.levels[i] = y
    return out


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
    n = fk.ndim
    letters = string.ascii_lowercase
    w = sys.grid.weights
    total = 0.0
    for ls in multi_indices_exact(n):
        i = len(ls)
        labels = "".join(letters[j] * (l + 1) for j, l in enumerate(ls))
        sub = labels + "->" + letters[:i]
        prod = np.einsum(sub, fk) * np.einsum(sub, gk)
        for j, l in enumerate(ls):
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
    out = XFockVector(grid, n if max_degree is None else max_degree)
    if n == 0:
        out.scalar = float(kern)
        return out
    letters = string.ascii_lowercase
    for ls in multi_indices_exact(n):
        i = len(ls)
        labels = "".join(letters[j] * (l + 1) for j, l in enumerate(ls))
        out.add_component(ls, np.einsum(labels + "->" + letters[:i], kern))
    return out


def power_jump(l: int, delta, v: FockVector, pg: ProductGrid, sys: JacobiSystem,
               orthogonal: bool = True) -> FockVector:
    """Field smeared with a window times a power-type atom profile.

    ``orthogonal=True`` uses the degree-``l`` monic polynomial of the node
    law (the orthogonalized process); ``orthogonal=False`` uses the raw
    ``s**l`` profile.
    """
    delta = np.asarray(delta)
    if delta.dtype == bool:
        if delta.shape != (pg.grid.size,):
            raise ValueError("window mask must align with the base grid nodes")
        mask = delta.astype(float)
    else:
        mask = np.zeros(pg.grid.size)
        mask[delta] = 1.0
    if orthogonal:
        vals = _poly_table(pg, sys, l)[l]
    else:
        vals = pg.svalues**l
    kern = mask[pg.tindex] * vals
    return field.field_apply(kern, v, pg)
