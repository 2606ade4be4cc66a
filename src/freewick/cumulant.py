"""Vacuum moments, free cumulants, and cumulant transforms.

The model is a :class:`~freewick.grid.ProductGrid`: every grid node ``t``
carries a probability law, its fiber; by default the point mass at
``lambda(t)``, the eta = 0 case of Brownian motion and Poisson.  The field
lives over the joint (node, atom) quadrature with coefficient value equal
to the atom coordinate, and the order-n joint cumulant of node functions
is the quadrature of their product against the (n-2)-th raw moment of the
node's law, which is ``lambda**(n-2)`` at a point mass.  Order-1
cumulants vanish identically.

Moments are computed on the full Fock space without dense levels.  Every
part of the field keeps a rank-one tensor ``g_1 (x) ... (x) g_k``
rank-one: creation prepends ``f``, annihilation drops ``g_1`` and scales
by ``<g_1, w f>``, and the neutral part multiplies ``g_1`` by
``lambda f``.  So a word applied to the vacuum is a list of weighted
rank-one terms per level, at most ``3**len(word)`` of them, each holding
``k`` slot vectors over the operator base.  The word is split in half,
each half runs on the vacuum as such a list, and the two lists meet in
the inner product, a product of weighted dots per slot (every field
operator is self-adjoint, so this is exact and keeps each list to
``3**ceil(n/2)`` terms).  None of this runs the dense :mod:`fock` code.

Complex scalars appear only in the transforms; everything else is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ncpart
from .errors import DomainBoundError
from .grid import GridMeasure, ProductGrid, _on_nodes

__all__ = [
    "moment",
    "moment_bytes",
    "cumulant_direct",
    "cumulant_from_moments",
    "nc_moment_sum",
    "nc_moment_sum_bytes",
    "cumulant_transform",
    "meixner_transform_closed_form",
    "TransformResult",
]


def moment(fs, pg: ProductGrid) -> float:
    """Vacuum expectation of the field word with the given node functions,
    by the module's rank-one term lists; no :mod:`field` code runs."""
    fs = [pg.lift(f) for f in fs]
    if not fs:
        return 1.0
    split = len(fs) // 2
    right = _rank_one_terms(fs[split:][::-1], pg)
    left = _rank_one_terms(fs[:split], pg)
    return _pair(left, right, pg.weights)


# pairs of terms contracted at once in :func:`_pair`, bounding its scratch
_PAIR_BLOCK = 1 << 16


def moment_bytes(n: int, pg: ProductGrid) -> int:
    """Bytes :func:`moment` may hold for ``n`` factors: ``3**top`` terms of
    ``top = ceil(n/2)`` slots over the joint nodes, and two pairing blocks."""
    top = (n + 1) // 2
    return 8 * (3**top * top * pg.size + 2 * _PAIR_BLOCK)


def _rank_one_terms(fs, pg: ProductGrid) -> dict:
    """The fields of ``fs``, first one first, on the vacuum as rank-one terms.

    Level ``k`` maps to coefficients ``c`` of shape ``(T,)`` and slots ``S``
    of shape ``(T, k, N)``: the vector there is the sum over ``t`` of
    ``c[t] S[t, 0] (x) ... (x) S[t, k-1]``.
    """
    levels = {0: (np.ones(1), np.empty((1, 0, pg.size)))}
    for f in fs:
        wf, lf = pg.weights * f, pg.lambda_values * f
        out: dict[int, list] = {}
        for k, (c, s) in levels.items():
            # creation prepends f; annihilation drops slot 0 against w f;
            # the neutral part multiplies slot 0 by lambda f
            created = np.empty((c.size, k + 1, f.size))
            created[:, 0], created[:, 1:] = f, s
            out.setdefault(k + 1, []).append((c, created))
            if k:
                out.setdefault(k - 1, []).append((c * (s[:, 0] @ wf), s[:, 1:]))
                out.setdefault(k, []).append((c, np.concatenate(((s[:, 0] * lf)[:, None], s[:, 1:]), 1)))
        levels = {
            k: (np.concatenate([c for c, _ in parts]), np.concatenate([s for _, s in parts]))
            for k, parts in out.items()
        }
    return levels


def _pair(left: dict, right: dict, w: np.ndarray) -> float:
    """Inner product of two term lists: per shared level, the coefficient
    pairs times the product over slots of their weighted dots."""
    total = 0.0
    for k in sorted(left.keys() & right.keys()):
        cl, sl = left[k]
        cr, sr = right[k]
        rows = max(1, _PAIR_BLOCK // cr.size)
        for a in range(0, cl.size, rows):
            g = np.outer(cl[a:a + rows], cr)
            for i in range(k):
                g *= (sl[a:a + rows, i] * w) @ sr[:, i].T
            total += float(g.sum())
    return total


def cumulant_direct(fs, pg: ProductGrid) -> float:
    """Closed-form joint cumulant of node functions; zero at order 1."""
    fs = [_on_nodes(f, pg.grid.size, 1) for f in fs]
    n = len(fs)
    if n < 1:
        raise ValueError("cumulant order must be at least 1")
    if n == 1:
        return 0.0
    prod = np.multiply.reduce(fs)
    return float(np.sum(pg.grid.weights * prod * pg.coefficient_moment(n - 2)))


def nc_moment_sum(fs, pg: ProductGrid) -> float:
    """Moment predicted by the non-crossing sum of products of cumulants.

    Each distinct block's cumulant is computed once per call: there are at
    most ``2**n`` blocks, against one factor per block of every one of the
    Catalan-many partitions.
    """
    fs = [_on_nodes(f, pg.grid.size, 1) for f in fs]
    n = len(fs)
    if n == 0:
        return 1.0
    kappa: dict[tuple[int, ...], float] = {}
    total = 0.0
    for p in ncpart.enumerate_nc(n):
        term = 1.0
        for block in p.blocks:
            k = kappa.get(block)
            if k is None:
                k = kappa[block] = cumulant_direct([fs[x - 1] for x in block], pg)
            term *= k
            if term == 0.0:
                break
        total += term
    return total


def nc_moment_sum_bytes(n: int) -> int:
    """Bytes :func:`nc_moment_sum` may hold for ``n`` factors: its records,
    measured at 158 to 196 bytes each, and 64 KiB for the rest."""
    return 256 * ncpart.catalan(n) + 2**16


def cumulant_from_moments(fs, pg: ProductGrid) -> float:
    """Top cumulant solved out of the moment = partition-sum recursion.

    Uses operator moments of subwords and lower cumulants recursively;
    the closed form :func:`cumulant_direct` is the oracle it is tested
    against.
    """
    fs = [_on_nodes(f, pg.grid.size, 1) for f in fs]
    n = len(fs)
    if n < 1:
        raise ValueError("cumulant order must be at least 1")
    return _solved_cumulant(tuple(range(n)), fs, pg, {})


def _solved_cumulant(idx: tuple[int, ...], fs, pg: ProductGrid, memo: dict) -> float:
    """The cumulant of the subword ``idx`` of ``fs``, each subword solved once
    into ``memo``; the state is passed in, so no reference cycle outlives the call."""
    got = memo.get(idx)
    if got is not None:
        return got
    value = moment([fs[i] for i in idx], pg)
    for p in ncpart.enumerate_nc(len(idx)):
        if len(p.blocks) == 1:
            continue
        term = 1.0
        for block in p.blocks:
            term *= _solved_cumulant(tuple(idx[x - 1] for x in block), fs, pg, memo)
        value -= term
    memo[idx] = value
    return value


@dataclass(frozen=True)
class TransformResult:
    """Closed form and truncated series of the cumulant transform, with the
    exact tail the truncation leaves off."""

    closed_form: complex
    series: complex
    remainder: complex
    gap: float
    tail_bound: float
    degree: int


def cumulant_transform(fvals, pg: ProductGrid, degree: int = 30) -> TransformResult:
    """Cumulant transform of a (complex) node function.

    Evaluates the closed form and the series truncated at ``degree``,
    reporting both, the exact remainder of the series past ``degree`` (a
    geometric tail at each joint node), their gap, and a geometric tail
    bound from the nodewise radius condition.  Raises if the radius bound fails anywhere,
    since the series may then diverge.
    """
    f = _on_nodes(fvals, pg.grid.size, 1, complex)
    if degree < 2:
        raise ValueError("series degree must be at least 2")
    w = pg.grid.weights
    rho = np.abs(f) * np.array([fb.radius for fb in pg.fibers])
    if np.any(rho >= 1.0):
        raise DomainBoundError("|f| exceeds the nodewise convergence radius")

    fj = f[pg.tindex]
    sf = pg.svalues * fj
    closed = complex(np.sum(pg.weights * fj**2 / (1.0 - sf)))
    remainder = complex(np.sum(pg.weights * fj**2 * sf ** (degree - 1) / (1.0 - sf)))

    series = 0.0j
    for n in range(2, degree + 1):
        series += complex(np.sum(w * f**n * pg.coefficient_moment(n - 2)))

    tail = float(np.sum(w * np.abs(f) ** 2 * rho ** (degree - 1) / (1.0 - rho)))
    return TransformResult(closed, series, remainder, abs(closed - series), tail, degree)


def meixner_transform_closed_form(fvals, grid: GridMeasure) -> complex:
    """Closed-form transform when every node law is semicircular.

    Uses the grid's coefficient tables as per-node mean and variance; the
    square root takes its principal branch, valid near zero.
    """
    f = _on_nodes(fvals, grid.size, 1, complex)
    lam = grid.lambda_values
    eta = grid.eta_values
    root = np.sqrt((1.0 - lam * f) ** 2 - 4.0 * f**2 * eta)
    return complex(np.sum(grid.weights * 2.0 * f**2 / (1.0 - lam * f + root)))
