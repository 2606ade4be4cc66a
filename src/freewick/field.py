"""Field operators, monomials, Wick products, and the partition expansions.

The field at a node acts as creation + annihilation + coefficient-weighted
neutral part.  A monomial smears a product of such factors, one per kernel
axis, against the quadrature; the smeared field is the order-1 monomial.
Its Wick (normal) ordering drops every term in which an annihilation
factor immediately precedes a creation factor; the resulting operator
applied to the vacuum reproduces the kernel at its own level and nothing
else, which is what makes it the orthogonal projection of the monomial.

The expansion of a product of Wick products over marked non-crossing
partitions (:func:`wick_product_expand`), and at unit orders that of a
monomial (:func:`wick_rule_expand`), runs over reduced kernels: each block
collapses to a single integration variable weighted by a power of the
coefficient table, as in quadrature the discrete delta collapses repeated
slots.  The Wick product is linear in its kernel,
so the reduced kernels are summed per order (the number of +1 blocks) and
each order's sum is Wick-ordered once: an order-n expansion makes at most
n + 1 Wick products, however many partitions it walks.

Everything here is stateless; the partition sums are plain reductions and
may be parallelized by the caller.

Kernels are plain dense ``numpy`` arrays sampled at grid nodes, one axis
of the base's length per integration variable (order 0 means a scalar).
An operator acts over the base of its vector; a ``g`` passed beside the
vector must be that base.
"""

from __future__ import annotations

import string

import numpy as np

from . import fock, ncpart
from .errors import CapacityError
from .fock import FockVector

__all__ = [
    "monomial_apply",
    "wick_apply",
    "wick_rule_expand",
    "wick_product_expand",
    "wick_product_sequential",
]

_LETTERS = string.ascii_lowercase


def _model(v: FockVector, g):
    """The base of ``v``; a ``g`` given beside ``v`` must be that same object."""
    if g is not None and g is not v.base:
        raise ValueError("the operator acts over the base of its vector; pass that base or none")
    return v.base


def _kernel(f, base) -> np.ndarray:
    """``f`` as a float array; every axis must have the length of ``base``."""
    f = np.asarray(f, dtype=float)
    shape = (base.size,) * f.ndim
    if f.shape != shape:
        raise ValueError(f"kernel has shape {f.shape}; over this base it must be {shape}")
    return f


def monomial_apply(f, v: FockVector, g=None) -> FockVector:
    """Apply the monomial with kernel ``f``, one field factor per kernel axis.

    Runs the batched peel kernel keeping all three parts of every factor:
    the rightmost factor acts first while the axes not yet consumed ride
    along as leading batch axes, so there is no loop over node tuples.
    """
    g = _model(v, g)
    f = _kernel(f, g)
    return _to_vector(_peel(_lift(f, v), ("+-0",) * f.ndim, g), v.base)


def _lift(f: np.ndarray, v: FockVector) -> list:
    # the kernel axes lead every nonzero level of v as batch axes; zero
    # levels, stored or not, are None up to the budget, so only nonzero
    # levels allocate
    lifted = [np.multiply.outer(f, a) if np.any(a) else None for a in v.levels]
    return lifted + [None] * (v.max_level + 1 - len(lifted))


def _peel(levels: list, parts, g) -> list:
    """Consume the last ``len(parts)`` batch axes, rightmost factor first.

    The consumed variable is the last batch axis; the first Fock slot is the
    axis after it.  ``parts[j]``, a string over ``+-0``, names the parts of
    the j-th consumed factor to keep: creation relabels that axis as the new
    first slot (one level up); annihilation contracts its diagonal with the
    first slot against the weights; neutral keeps that diagonal, times the
    coefficient table, as the first slot.  ``levels`` holds one entry per
    level up to the budget, ``None`` for a zero level; nonzero content
    pushed past the budget raises.
    """
    w, lam = g.weights, g.lambda_values
    budget = len(levels) - 1
    for keep in reversed(parts):
        out = [None] * len(levels)
        for k, a in enumerate(levels):
            if a is None:
                continue
            if "+" in keep:
                if k < budget:
                    out[k + 1] = _acc(out[k + 1], a)
                elif np.any(a):
                    raise CapacityError(
                        f"operator word would push level {k} content past budget {budget}"
                    )
            if k and keep != "+":
                ax = a.ndim - k - 1
                d = np.diagonal(a, axis1=ax, axis2=ax + 1)
                if "-" in keep:
                    out[k - 1] = _acc(out[k - 1], d @ w)
                if "0" in keep:
                    out[k] = _acc(out[k], np.moveaxis(d * lam, -1, ax))
        levels = out
    return levels


def _acc(a, b):
    return b if a is None else a if b is None else a + b


def _to_vector(levels: list, base) -> FockVector:
    # one entry per level up to the budget; nothing past the last non-None one is stored
    m = base.size
    top = max((k for k, a in enumerate(levels) if a is not None), default=0)
    stored = [np.zeros((m,) * k) if a is None else a for k, a in enumerate(levels[: top + 1])]
    return FockVector(base, stored, len(levels) - 1)


def _weight_axes(arr: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    """Multiply an array by the quadrature weights along its first q axes."""
    for j in range(q):
        arr = arr * w.reshape((1,) * j + (-1,) + (1,) * (arr.ndim - j - 1))
    return arr


def wick_apply(f, v: FockVector, g=None, form: str = "explicit") -> FockVector:
    """Apply the Wick-ordered product of field factors with kernel ``f``.

    ``form="explicit"`` evaluates the closed expansion: for each number q
    of trailing annihilations, the word with creations in front of them,
    and, when a creation is left, the same word with its last creation
    made neutral.  ``form="recursive"`` peels the leading factor off
    instead; the two must agree and tests compare them.

    Applied to the vacuum, the result has the kernel itself at its own
    level and zero elsewhere.
    """
    g = _model(v, g)
    f = _kernel(f, g)
    n = f.ndim
    if n == 0:
        return v * float(f)
    if form == "recursive":
        return _wick_recursive(f, v, g)
    if form != "explicit":
        raise ValueError(f"unknown form {form!r}")

    w = g.weights
    lam = g.lambda_values
    m = g.size
    if not np.any(f):
        return fock.FockVector(v.base, [0.0], v.max_level)

    # the creation word writes the highest level, so its budget check
    # covers the tails below; a level is allocated by its first term
    out = [None] * (v.max_level + 1)
    for k, arr in enumerate(v.levels):
        if not np.any(arr):
            continue
        if k + n > v.max_level:
            raise CapacityError(
                f"wick product would push level {k} content past budget {v.max_level}"
            )
        for q in range(min(n, k) + 1):
            # n - q creations, then annihilations for the last q variables;
            # the tail factors act first, so kernel axes pair with the
            # leading slots in reversed order
            if q:
                vw = _weight_axes(arr, w, q)
                c = np.tensordot(f, vw, axes=(list(range(n - 1, n - q - 1, -1)), list(range(q))))
            else:
                c = np.multiply.outer(f, arr)
            out[n - 2 * q + k] = _acc(out[n - 2 * q + k], c)
            if q < n and k > q:
                # the last creation made neutral instead: the diagonal couples
                # its kernel axis with the surviving first slot, and the
                # coefficient table rides on that slot
                i = n - q - 1
                d = np.moveaxis(np.diagonal(c, axis1=i, axis2=i + 1), -1, i)
                shape = (1,) * i + (m,) + (1,) * (k - q - 1)
                out[n - 2 * q + k - 1] = _acc(out[n - 2 * q + k - 1], d * lam.reshape(shape))
    return _to_vector(out, v.base)


def _wick_recursive(f, v, g):
    # W(j): the Wick product of variables j..n-1, the first j axes batched.
    # Its leading factor is neutral or annihilates in front of the all-
    # annihilation tail, or creates in front of W(j+1); W(n) is the lift.
    tail = wick = _lift(f, v)
    for _ in range(f.ndim):
        raised = _peel(wick, "+", g)
        wick = [_acc(a, b) for a, b in zip(_peel(tail, ("-0",), g), raised)]
        tail = _peel(tail, "-", g)
    return _to_vector(wick, v.base)


def _power_table(g, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``k = 0..n-1`` of ``lambda**k`` and of ``w * lambda**k``.

    Every block factor of an order-n reduction is one of these rows: a
    +1 block of size l reads ``lambda**(l-1)``, a -1 block ``w * lambda**(l-2)``.
    """
    lam_pow = g.lambda_values ** np.arange(n)[:, np.newaxis]
    return lam_pow, g.weights * lam_pow


def _reduce(kappa: ncpart.MarkedPartition, f: np.ndarray, powers) -> np.ndarray:
    # one einsum: the kernel with one label per block, a w * lambda**(l-2)
    # operand per -1 block and a lambda**(l-1) operand per +1 block of size
    # l >= 2; the +1 labels, in block order, are the output axes
    blocks = kappa.partition.blocks
    marks = kappa.marks
    if ncpart.has_nested_plus(blocks, marks):
        raise ValueError("partition has a +1 block nested inside another block")
    if len(blocks) > len(_LETTERS):
        raise ValueError("too many blocks for the einsum reduction")
    lam_pow, wlam_pow = powers
    pos_label = [""] * kappa.n
    out_labels = ""
    operands = [f]
    operand_labels = []
    for lab, block, mark in zip(_LETTERS, blocks, marks):
        for p in block:
            pos_label[p - 1] = lab
        size = len(block)
        if mark == 1:
            out_labels += lab
            if size >= 2:
                operands.append(lam_pow[size - 1])
                operand_labels.append(lab)
        else:
            operands.append(wlam_pow[size - 2])
            operand_labels.append(lab)
    sub = ",".join(["".join(pos_label), *operand_labels]) + "->" + out_labels
    return np.einsum(sub, *operands)


def wick_rule_expand(f, g, v: FockVector | None = None) -> FockVector:
    """Expand a monomial as the sum of Wick products over admissible partitions.

    It is :func:`wick_product_expand` at unit orders, where every
    partition of ``G_n`` contributes.  Must reproduce :func:`monomial_apply`
    exactly (to roundoff); applied to the vacuum by default.
    """
    if np.ndim(f) < 1:
        raise ValueError("kernel order must be at least 1")
    return wick_product_expand((1,) * np.ndim(f), f, g, v)


def wick_product_expand(orders, f, g, v: FockVector | None = None) -> FockVector:
    """Expand a product of Wick products over the constrained partition family.

    ``orders`` splits the kernel axes into consecutive groups, one per Wick
    factor; only partitions of ``G_n`` whose blocks meet each group at most
    once contribute.  Must match sequentially applying the factors.
    """
    orders = tuple(int(k) for k in orders)
    if any(k < 1 for k in orders):
        raise ValueError("factor orders must be positive")
    n = sum(orders)
    f = _kernel(f, g)
    if f.ndim != n:
        raise ValueError("kernel order must equal the sum of the factor orders")
    # group[p - 1] is the factor that element p belongs to
    group = tuple(j for j, k in enumerate(orders) for _ in range(k))
    if v is None:
        v = fock.vacuum(g, n)
    powers = _power_table(g, n)
    by_order: dict[int, np.ndarray] = {}
    for kappa in ncpart.enumerate_gn(n):
        # unit orders admit every partition
        if len(orders) < n and any(len({group[p - 1] for p in block}) < len(block)
                                   for block in kappa.partition.blocks):
            continue
        red = _reduce(kappa, f, powers)
        k = red.ndim
        by_order[k] = by_order[k] + red if k in by_order else red
    out = fock.FockVector(v.base, [0.0], v.max_level)
    for k in sorted(by_order):
        out = out + wick_apply(by_order[k], v, g)
    return out


def wick_product_sequential(kernels, g, v: FockVector | None = None) -> FockVector:
    """Apply Wick products one after another (rightmost first); the oracle
    side of :func:`wick_product_expand` for kernels that factor across
    groups."""
    kernels = [np.asarray(f, dtype=float) for f in kernels]
    if v is None:
        v = fock.vacuum(g, sum(f.ndim for f in kernels))
    out = v
    for f in reversed(kernels):
        out = wick_apply(f, out, g)
    return out
