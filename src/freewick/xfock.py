"""Extended Fock space: the full Fock space over {0..L} x T, the graded
field parts on it, and the basis transform to the joint-quadrature space.

A vector is a plain :class:`fock.FockVector` whose base is the slot space
of one :class:`JacobiSystem` and one ``L``: the one-particle space
{0..L} x T, laid out ``l*m + t`` and weighted by ``w(t) g_l(t)`` (the
squared norm of the degree-``l`` monic orthogonal polynomial of the node's
law).  That is the raveled order of the system's degree-major ``b``, ``a``
and ``g`` tables, so every use here slices their first ``L + 1`` rows.
Each (system, ``L``) has one slot space, built once, so :func:`fock.inner`,
:func:`fock.norm` and the vector sums apply unchanged, and vectors over
two systems do not mix.  Level ``i`` has shape
``((L+1)m,)*i``; its multi-index component ``(l_1, ..., l_i)`` is the
slice at those ``l``, of degree ``sum(l) + i``.  The vector's
``max_level`` is its level budget, the rule of every
:class:`fock.FockVector`: memory stays bounded by the level count.  A
budget of ``n`` is room for ``n`` fields on the vacuum, whose components
reach degree ``n``, so ``L`` is the smaller of the system's tabulated
degree and ``n - 1``.

The field is creation and annihilation at ``l = 0`` plus the node's
Jacobi matrix times ``f`` on the first slot.  Raising creates at
``l = 0`` and shifts the first slot ``l -> l+1``; preserving multiplies
it by ``b_l f``; lowering annihilates at ``l = 0`` and shifts
``l -> l-1`` times ``a_l f``.  With level-independent
coefficients these collapse to the closed second-order form of the field
at a point.  Raising nonzero content at the budget's level, or shifting it
past ``L`` where it is not null, raises :class:`CapacityError`; a raising
step refuses on its input, before it allocates any output level.

Each node's ``(L+1) x (L+1)`` Jacobi matrix times ``f`` is one band
(:func:`_jacobi_band`), built once per field from matrices kept per
system; the dense field (:func:`_field_part`) and the vacuum moments both
apply it, with no one-particle matrix and no :mod:`fock` field primitive.

Vacuum moments (:func:`xmoment`) build no dense level.  Every part of the
field keeps a rank-one tensor over {0..L} x T rank-one: creation prepends
``f e_0``, annihilation drops the first slot against ``f e_0``, and the
band maps the first slot node by node.  So each half of a word runs on the
vacuum as at most ``3**ceil(n/2)`` weighted rank-one terms, and the halves
meet in slot dots weighted with ``w g_l``.  This is code of its own, apart
from the big-Fock moments of :mod:`cumulant` that the suites compare it with.

The per-slot polynomial transform between this space and the Fock space
over the joint (node, atom) quadrature is an isometry in exact arithmetic
and intertwines the two realizations of the field, as the verification
suites check; the recurrence-built float table loses orthogonality on laws
of many atoms (ROADMAP item 4).  Slot ``l*m + t`` reads only node ``t``'s
atoms, so the map is block-diagonal by node and no dense map is built: the
transform and its inverse map each axis of a node's slab by one batched
product per run of adjacent nodes of equal atom count (:func:`_slot_maps`).
Both sides come from one model, the system's ``model``: the operators that
act there refuse any other.
"""

from __future__ import annotations

import functools
import itertools
import string
from collections import namedtuple

import numpy as np

from . import field, fock
from .errors import CapacityError
from .fock import FockVector
from .grid import _on_nodes
from .jacobi import JacobiSystem, poly_values
from .ncpart import compositions

__all__ = [
    "x_vacuum",
    "component",
    "set_component",
    "xplus",
    "xzero",
    "xminus",
    "xfield",
    "xmoment",
    "xmoment_bytes",
    "big_fock_realize",
    "k_transform",
    "k_inverse",
    "inner_product_formula",
    "power_jump",
    "kernel_lift",
    "multi_indices_exact",
]

# {0..L} x T as a Fock base; not a GridMeasure, because g_l may vanish
_SlotSpace = namedtuple("_SlotSpace", "sys lmax size weights")


# JacobiSystem hashes by identity, so the cache keys on the object and
# holds it: an id is never reused while its entry lives
@functools.lru_cache(maxsize=64)
def _slot_space(sys: JacobiSystem, lmax: int) -> _SlotSpace:
    """The slot space {0..lmax} x T of ``sys``, with read-only weights ``w(t) g_l(t)``."""
    weights = (sys.grid.weights * sys.g[: lmax + 1]).ravel()
    weights.flags.writeable = False
    return _SlotSpace(sys, lmax, weights.size, weights)


def multi_indices_exact(n: int):
    """All multi-indices of degree exactly n (compositions, parts shifted by 1)."""
    for i in range(1, n + 1):
        for comp in compositions(n, i):
            yield tuple(c - 1 for c in comp)


def _block_index(ls) -> tuple:
    return tuple(part for l in ls for part in (l, slice(None)))


def _blocks(v: FockVector, i: int) -> np.ndarray:
    """Level ``i`` of ``v`` with axes ``(l_1, t_1, ..., l_i, t_i)``."""
    return v.levels[i].reshape((v.base.lmax + 1, v.base.sys.grid.size) * i)


def _slot_depth(sys: JacobiSystem, max_degree: int) -> int:
    """``L`` with room for ``max_degree`` fields: the most one slot can hold, if tabulated."""
    return max(0, min(sys.max_degree, max_degree - 1))


def x_vacuum(sys: JacobiSystem, max_degree: int) -> FockVector:
    """The vacuum, with room for ``max_degree`` fields: its level budget."""
    return FockVector(_slot_space(sys, _slot_depth(sys, max_degree)), [1.0], max_degree)


def component(v: FockVector, ls) -> np.ndarray:
    """Component ``ls`` of ``v``: a view into its level, or zeros where none is stored."""
    ls = tuple(int(l) for l in ls)
    if len(ls) >= len(v.levels) or max(ls, default=0) > v.base.lmax:
        return np.zeros((v.base.sys.grid.size,) * len(ls))
    return _blocks(v, len(ls))[_block_index(ls)]


def set_component(v: FockVector, ls, arr) -> None:
    """Write component ``ls`` of ``v`` in place, storing the levels up to it.

    A component with some ``l`` past ``L`` is dropped where ``g_l`` vanishes
    on every node, so that it is null, and raises :class:`CapacityError`
    elsewhere.
    """
    ls = tuple(int(l) for l in ls)
    space, i = v.base, len(ls)
    m = space.sys.grid.size
    if any(l < 0 for l in ls) or not ls:
        raise ValueError(f"invalid multi-index {ls}")
    if i > v.max_level:
        raise CapacityError(f"multi-index {ls} exceeds level budget {v.max_level}")
    arr = _on_nodes(arr, m, i)
    if max(ls) > space.lmax:
        _require_null_past(space.sys, space.lmax)
        return
    while len(v.levels) <= i:
        v.levels.append(np.zeros((space.size,) * len(v.levels)))
    blocks = _blocks(v, i)  # a copy when the level is not contiguous
    blocks[_block_index(ls)] = arr
    v.levels[i] = blocks.reshape(v.levels[i].shape)


def _require_null_past(sys: JacobiSystem, lmax: int) -> None:
    """Raise unless content past degree ``lmax`` is null.

    ``g`` and ``a`` vanish from a node's support size on, so content there
    has zero norm and never lowers back.
    """
    if np.any(sys.support > lmax + 1):
        raise CapacityError(f"nonzero content past degree {lmax} exceeds the budget or tabulation")


@functools.lru_cache(maxsize=64)  # keyed by identity, as _slot_space
def _band_template(sys: JacobiSystem, lmax: int, parts: str) -> np.ndarray:
    """Each node's Jacobi matrix, as a read-only ``(m, L+1, L+1)`` stack.

    Only the bands named in ``parts`` are kept: ``0`` the diagonal ``b_l``,
    ``+`` the shift ``l -> l+1`` below it (ones) and ``-`` the shift back
    above it (``a_{l+1}``).  Node ``t``'s matrix maps the first slot's
    degrees at ``t``; a shift past ``L`` is dropped.
    """
    band = np.zeros((sys.grid.size, lmax + 1, lmax + 1))
    l = np.arange(lmax + 1)
    if "0" in parts:
        band[:, l, l] = sys.b[: lmax + 1].T
    if "+" in parts:
        band[:, l[1:], l[:-1]] = 1.0
    if "-" in parts:
        band[:, l[:-1], l[1:]] = sys.a[1 : lmax + 1].T
    band.flags.writeable = False
    return band


def _jacobi_band(sys: JacobiSystem, lmax: int, f: np.ndarray, parts: str) -> np.ndarray:
    """The kept bands of each node's Jacobi matrix times ``f``, a fresh array."""
    return _band_template(sys, lmax, parts) * f[:, None, None]


def _field_part(f, v: FockVector, parts: str) -> FockVector:
    """The field parts named in ``parts`` (``+``, ``0``, ``-``) applied to ``v`` in one pass.

    Each output level is allocated once.  The kept bands of the node's
    Jacobi matrix times ``f`` (:func:`_jacobi_band`) map the first slot
    of each input level by one batched product over the nodes, written
    straight into the output level's ``(l, t, ...)`` view; then
    annihilation and creation at ``l = 0`` add in, reading and writing
    only the ``l = 0`` block of the first slot.  Creation alone feeds a
    new top level, so it writes that block in place.
    """
    sys, lmax = v.base.sys, v.base.lmax
    m = sys.grid.size
    f = _on_nodes(f, m, 1)
    levels, budget = v.levels, v.max_level
    n = len(levels)
    raising, lowering = "+" in parts, "-" in parts
    if raising and np.any(f):
        # the input decides, before any level is allocated, as in fock.create
        if n > budget and np.any(levels[budget]):
            raise CapacityError(f"raising would push level {budget} content past the budget")
        for arr in levels[1:]:
            if np.any(arr.reshape((lmax + 1, m, -1))[lmax, f != 0]):
                _require_null_past(sys, lmax)  # the shift would push it past lmax
    band = _jacobi_band(sys, lmax, f, parts)
    w0f = v.base.weights[:m] * f  # w g_0 f, the weights of the l = 0 block
    out = []
    for k in range(1 + min(n, budget) if raising else n):
        level = np.zeros((v.base.size,) * k)
        y = level.reshape((lmax + 1, m, -1)) if k else None
        if 0 < k < n:
            x = levels[k].reshape((lmax + 1, m, -1))
            np.matmul(band, x.transpose(1, 0, 2), out=y.transpose(1, 0, 2))
        if lowering and k + 1 < n:
            level += (w0f @ levels[k + 1].reshape((lmax + 1, m, -1))[0]).reshape(level.shape)
        if raising and k == n:
            np.multiply.outer(f, levels[k - 1].ravel(), out=y[0])
        elif raising and k:
            y[0] += f[:, None] * levels[k - 1].reshape(1, -1)
        out.append(level)
    return FockVector(v.base, fock._trim(out), budget)


def xplus(f, v: FockVector) -> FockVector:
    """Degree-raising part: create ``f`` at l=0, plus the first-slot shift l -> l+1."""
    return _field_part(f, v, "+")


def xzero(f, v: FockVector) -> FockVector:
    """Degree-preserving part: first-slot multiplication by ``b_l f``."""
    return _field_part(f, v, "0")


def xminus(f, v: FockVector) -> FockVector:
    """Degree-lowering part: annihilate ``f`` at l=0, plus the shift l -> l-1 times ``a_l``."""
    return _field_part(f, v, "-")


def xfield(f, v: FockVector) -> FockVector:
    """The full field: raising + preserving + lowering parts, in one pass."""
    return _field_part(f, v, "+0-")


def xmoment(fs, sys: JacobiSystem) -> float:
    """Vacuum expectation of a field word, computed in this realization.

    Splits the word in half (the field is self-adjoint for the weighted
    inner product) so each half needs room for half the word's fields; the
    halves run as the module's rank-one term lists, with no :mod:`fock` code.
    """
    fs = [_on_nodes(f, sys.grid.size, 1) for f in fs]
    n = len(fs)
    if n == 0:
        return 1.0
    split = n // 2
    right = _half_terms(fs[split:][::-1], sys)
    left = _half_terms(fs[:split], sys)
    return _pair_terms(left, right, sys)


# pairs of terms contracted at once in :func:`_pair_terms`, bounding its scratch
_PAIR_BLOCK = 1 << 16


def xmoment_bytes(n: int, pg) -> int:
    """Bytes :func:`xmoment` may hold for ``n`` factors over ``pg``: ``3**top``
    terms of ``top = ceil(n/2)`` slots over {0..top-1} x T, and two pairing blocks."""
    top = (n + 1) // 2
    return 8 * (3**top * top * top * pg.grid.size + 2 * _PAIR_BLOCK)


def _half_terms(fs, sys: JacobiSystem) -> dict:
    """The fields of ``fs``, first one first, on ``x_vacuum`` as rank-one terms.

    There is room for ``len(fs)`` fields, so ``L = min(sys.max_degree,
    len(fs) - 1)``.  Level ``k`` maps to coefficients ``c`` of shape
    ``(T,)`` and slots ``S`` of shape ``(T, k, L + 1, m)``: the vector
    there is the sum over ``t`` of ``c[t] S[t, 0] (x) ... (x) S[t, k-1]``.
    Each step stays within that room, since it raises the degree by at
    most one.
    """
    m, lmax = sys.grid.size, _slot_depth(sys, len(fs))
    w0 = sys.grid.weights * sys.g[0]
    levels = {0: (np.ones(1), np.empty((1, 0, lmax + 1, m)))}
    for f in fs:
        band = _jacobi_band(sys, lmax, f, "+0-")
        out: dict[int, list] = {}
        for k, (c, s) in levels.items():
            # creation prepends f e_0; annihilation drops slot 0 against
            # w g_0 f e_0; the Jacobi band maps slot 0 node by node
            created = np.zeros((c.size, k + 1, lmax + 1, m))
            created[:, 0, 0], created[:, 1:] = f, s
            out.setdefault(k + 1, []).append((c, created))
            if k:
                s0 = s[:, 0]
                out.setdefault(k - 1, []).append((c * (s0[:, 0] @ (w0 * f)), s[:, 1:]))
                if np.any(s0[:, lmax, f != 0][c != 0]):
                    _require_null_past(sys, lmax)  # the shift would push it past lmax
                mapped = np.matmul(band, s0.transpose(2, 1, 0)).transpose(2, 1, 0)
                out.setdefault(k, []).append((c, np.concatenate((mapped[:, None], s[:, 1:]), 1)))
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
        ww = _slot_space(sys, rows - 1).weights
        sl = sl[:, :, :rows].reshape(cl.size, k, ww.size)
        sr = sr[:, :, :rows].reshape(cr.size, k, ww.size)
        block = max(1, _PAIR_BLOCK // cr.size)
        for start in range(0, cl.size, block):
            g = np.outer(cl[start:start + block], cr)
            for i in range(k):
                g *= (sl[start:start + block, i] * ww) @ sr[:, i].T
            total += float(g.sum())
    return total


def big_fock_realize(f, v: FockVector) -> FockVector:
    """The same field realized on the joint-quadrature Fock space of ``v``.

    Lifts the node function to the joint nodes and applies the plain field
    there, as the order-1 monomial; the joint grid's coefficient table is
    the atom coordinate.  Moments computed on this side are the reference
    for :func:`xmoment`.
    """
    return field.monomial_apply(v.base.lift(f), v)


def _require_model(v: FockVector, sys: JacobiSystem) -> None:
    """Raise unless ``v`` lives on the joint quadrature of ``sys``'s own model."""
    if v.base is not sys.model:
        raise ValueError("the vector must live on the joint quadrature of the system's model")


def _poly_table(sys: JacobiSystem, lmax: int) -> np.ndarray:
    """Values of the per-node monic polynomials of degrees 0..lmax at the joint nodes."""
    t, s = sys.model.tindex, sys.model.svalues
    return poly_values(sys.b[: lmax + 1, t], sys.a[: lmax + 1, t], sys.support[t], s)


# per node t: its atoms' span and its slots t::m; per run of adjacent nodes of n
# atoms each: its nodes, their atoms' span, and their blocks stacked (nodes, L+1, n)
_SlotBlocks = namedtuple("_SlotBlocks", "spans slots runs")
_Run = namedtuple("_Run", "nodes span proj synth")


@functools.lru_cache(maxsize=4)  # keyed by identity, as _slot_space
def _slot_maps(sys: JacobiSystem) -> _SlotBlocks:
    """Each node's projection onto and synthesis from its polynomials.

    Slot ``l*m + t`` reads only node ``t``'s atoms.  Synthesis row ``l`` of
    node ``t`` is ``p_l`` on those atoms; the projection row is that times
    the atom weights over ``g_l(t)`` (zero where ``g_l(t)`` vanishes).
    Adjacent nodes of as many atoms form a run, whose blocks are stacked:
    equal fibers make one run.  The tabulated degree must span every fiber.
    Built once per system and shared, so the stacks come back read-only.
    """
    pg, lmax = sys.model, sys.max_degree
    sizes = [fb.size for fb in pg.fibers]
    if lmax < max(sizes) - 1:
        raise ValueError(f"system tabulated to degree {lmax} cannot span fibers with {max(sizes)} atoms")
    synth, g = _poly_table(sys, lmax), sys.g[:, pg.tindex]
    proj = np.divide(synth * pg.fweights, g, out=np.zeros_like(synth), where=g > 0.0)
    bounds, runs, t = np.cumsum([0] + sizes).tolist(), [], 0
    for n, run in itertools.groupby(sizes):
        nodes = slice(t, t + len(list(run)))
        span = slice(bounds[nodes.start], bounds[nodes.stop])
        cut = (lmax + 1, nodes.stop - t, n)
        stacks = [np.ascontiguousarray(x[:, span].reshape(cut).swapaxes(0, 1)) for x in (proj, synth)]
        for stack in stacks:
            stack.flags.writeable = False
        runs.append(_Run(nodes, span, *stacks))
        t = nodes.stop
    spans = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
    slots = tuple(slice(t, None, len(sizes)) for t in range(len(sizes)))
    return _SlotBlocks(spans, slots, tuple(runs))


def _per_node(arr: np.ndarray, blocks: _SlotBlocks, width: int, forward: bool) -> np.ndarray:
    """Apply the map of ``blocks`` to every axis of ``arr``: ``forward``, the
    joint axis onto the slots of degree below ``width``, else those back.

    The level is cut by node on its first axis: node ``t``'s slab takes one
    pass per other axis, each mapping the last axis and putting its result
    first (:func:`_last_first`), so after them the slab's axes are back in
    order; its own block then writes only node ``t``'s rows of the result.
    A slot slab is first copied with its other axes node-major, so a run's
    slots are one span.  So the result is the one array of a level's size
    made here; the others are a slab in size, two at a time.
    """
    if arr.ndim == 0:
        return arr
    m = len(blocks.slots)
    if forward:
        mats = [p for run in blocks.runs for p in run.proj]
        cuts, size = zip(blocks.spans, blocks.slots), width * m
    else:
        mats = [s[:width].T for run in blocks.runs for s in run.synth]
        cuts, size = zip(blocks.slots, blocks.spans), blocks.spans[-1].stop
        # each (l, t) pair of axes past the first swapped to (t, l)
        node_major = [0] + [j + 1 if j % 2 else j - 1 for j in range(1, 2 * arr.ndim - 1)]
    out = np.empty((size,) * arr.ndim)
    for mat, (src, dst) in zip(mats, cuts):
        slab = arr[src]
        if not forward:
            pairs = slab.reshape((width,) + (width, m) * (arr.ndim - 1))
            slab = pairs.transpose(node_major).copy().reshape(slab.shape)
        for _ in range(1, arr.ndim):
            slab = _last_first(slab, blocks, width, forward)
        np.matmul(mat, slab.reshape(-1, slab.shape[-1]).T, out=out.reshape(size, -1)[dst])
    return out


def _last_first(arr: np.ndarray, blocks: _SlotBlocks, width: int, forward: bool) -> np.ndarray:
    """The map of :func:`_per_node` on the last axis of ``arr``, whose result
    axis comes first: one batched product per run, written into its rows."""
    x = arr.reshape(-1, arr.shape[-1])
    n = len(x)
    out = np.empty((width * len(blocks.slots) if forward else blocks.spans[-1].stop, n))
    for run in blocks.runs:
        count = len(run.proj)
        if forward:  # the run's atoms onto its rows l*m + t
            mats, cols = run.proj, x[:, run.span]
            rows = out.reshape(width, -1, n)[:, run.nodes].swapaxes(0, 1)
        else:  # its node-major slots onto its atoms' rows
            mats, rows = run.synth[:, :width].swapaxes(1, 2), out[run.span].reshape(count, -1, n)
            cols = x[:, run.nodes.start * width : run.nodes.stop * width]
        np.matmul(mats, cols.reshape(n, count, -1).transpose(1, 2, 0), out=rows)
    return out.reshape((-1,) + arr.shape[:-1])


def k_transform(v: FockVector, sys: JacobiSystem) -> FockVector:
    """Per-slot change of basis from atom samples to polynomial coefficients.

    Each slot of a level-``i`` array over the joint quadrature is expanded
    in the node's monic polynomials, by the slot blocks of :func:`_slot_maps`.
    The result spans every tabulated degree, ``L = sys.max_degree``, and
    keeps the input's level budget: a field on the result has room for as
    many levels as it had on the input.
    """
    _require_model(v, sys)
    blocks = _slot_maps(sys)
    lmax, top = sys.max_degree, max(fock.top_level(v), 0)
    levels = [_per_node(a, blocks, lmax + 1, True) for a in v.levels[: top + 1]]
    return FockVector(_slot_space(sys, lmax), levels, v.max_level)


def k_inverse(xv: FockVector) -> FockVector:
    """Reconstruct the vector over the system's model from polynomial coefficients."""
    blocks = _slot_maps(xv.base.sys)
    levels = [_per_node(a, blocks, xv.base.lmax + 1, False) for a in xv.levels]
    return FockVector(xv.base.sys.model, levels)


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
    fk, gk = _on_nodes(fk, sys.grid.size), _on_nodes(gk, sys.grid.size)
    if fk.ndim != gk.ndim or fk.ndim < 1:
        raise ValueError("kernels must have equal positive order")
    wg = sys.grid.weights * sys.g
    total = 0.0
    for ls in multi_indices_exact(fk.ndim):
        prod = _diagonal(fk, ls) * _diagonal(gk, ls)
        for l in ls:
            prod = np.tensordot(wg[l], prod, axes=(0, 0))
        total += float(prod)
    return total


def kernel_lift(kern, sys: JacobiSystem, max_degree: int | None = None) -> FockVector:
    """Multi-index components of a projected monomial kernel.

    Component ``(l_1..l_i)`` is the kernel sampled with slot ``j`` repeated
    ``l_j + 1`` times; this is the image of the order-n projection in the
    multi-index picture.  ``max_degree``, the order by default, is the
    room for that many fields: the result's level budget.
    """
    kern = _on_nodes(kern, sys.grid.size)
    n = kern.ndim
    out = x_vacuum(sys, n if max_degree is None else max_degree) * (kern if n == 0 else 0.0)
    for ls in multi_indices_exact(n):
        set_component(out, ls, _diagonal(kern, ls))
    return out


def power_jump(l: int, delta, v: FockVector, sys: JacobiSystem, orthogonal: bool = True) -> FockVector:
    """Field smeared with a window times a power-type atom profile.

    ``v`` lives on the joint quadrature of ``sys``'s model.  ``delta`` is a
    boolean mask over the base grid nodes.  ``orthogonal=True`` uses the
    degree-``l`` monic polynomial of the node law (the orthogonalized
    process); ``orthogonal=False`` uses the raw ``s**l`` profile.
    """
    _require_model(v, sys)
    if l < 0 or orthogonal and l > sys.max_degree:
        raise ValueError(
            f"degree {l} must be nonnegative, and at most the tabulated {sys.max_degree} "
            "on the orthogonal profile"
        )
    pg = sys.model
    delta = np.asarray(delta)
    if delta.dtype != bool or delta.shape != (pg.grid.size,):
        raise ValueError("the window must be a boolean mask over the base grid nodes")
    vals = _poly_table(sys, l)[l] if orthogonal else pg.svalues**l
    kern = delta[pg.tindex] * vals
    return field.monomial_apply(kern, v)
