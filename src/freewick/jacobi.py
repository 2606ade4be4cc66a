"""Per-point monic orthogonal polynomial systems and their recurrences.

Each node of the base grid carries a compactly supported probability
measure; its monic orthogonal polynomials obey the three-term recursion

    s p_n(s) = p_{n+1}(s) + b_n p_n(s) + a_n p_{n-1}(s)

with ``a_n > 0`` while the support allows it.  A measure supported on N
points breaks down at degree N: from there on the polynomials are zero and
we fix ``a_n = b_n = 0`` so the recursion stays valid and the tables are
deterministic.

The squared norms ``g_l`` of the monic polynomials double as the component
weights of the extended Fock space; they satisfy ``g_l = a_1 a_2 ... a_l``
and are computed both ways.  :class:`JacobiSystem` is a model's node laws'
``b``, ``a`` and ``g`` as read-only ``(degree, node)`` tables, whose raveled
order is the slot layout of the extended Fock space, plus the row of their
support sizes, and it keeps that model.  It is built from the model alone,
so no system carries one model's tables beside another model;
:func:`poly_values` evaluates one law or a whole table's laws, one per
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FiberMeasure, ProductGrid

__all__ = [
    "JacobiNode",
    "JacobiSystem",
    "poly_values",
    "coeffs_from_measure",
    "norms",
    "gauss_rule",
    "meixner_moments",
]


@dataclass(frozen=True)
class JacobiNode:
    """Recurrence data of one node: b[0..L], a[0..L] (a[0] unused), norms g."""

    b: np.ndarray
    a: np.ndarray
    g: np.ndarray
    finite_support_n: int | None = None

    def __post_init__(self):
        for name in ("b", "a", "g"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not self.b.shape == self.a.shape == self.g.shape or self.b.ndim != 1:
            raise ValueError("b, a, g must be matching 1-d arrays")
        n = self.finite_support_n
        active = self.a[1:] if n is None else self.a[1:n]
        if np.any(active <= 0):
            raise ValueError("a coefficients must be positive below the support size")
        if n is not None and np.any(self.a[n:] != 0):
            raise ValueError("a coefficients must vanish from the support size on")


def poly_values(b, a, support, s) -> np.ndarray:
    """Monic orthogonal polynomials of degrees ``0..len(b)-1`` at ``s``, stacked.

    ``b[l]`` and ``a[l]`` are scalars, or arrays aligned with ``s`` (one law
    per point), and so is ``support``.  Row ``l`` is zero from the support
    size on, matching the finite-support convention.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros((len(b),) + s.shape)
    p_prev, p = np.zeros_like(s), np.ones_like(s)
    for k in range(len(b)):
        out[k] = np.where(k < support, p, 0.0)
        p, p_prev = (s - b[k]) * p - a[k] * p_prev, p
    return out


def coeffs_from_measure(fiber: FiberMeasure, max_degree: int) -> JacobiNode:
    """Recover recurrence coefficients from a discrete measure.

    The support size N is the number of distinct atoms (repeated atoms
    merge).  The RKPW update builds the N x N Jacobi matrix of the law one
    atom at a time by plane rotations (Gragg & Harrod, Numer. Math. 44,
    1984; Gautschi 2004, ch. 2); unlike the Stieltjes walk it needs no
    breakdown threshold, so nothing depends on the units of the atoms.
    With N <= ``max_degree`` the coefficients from degree N on are zero
    and ``finite_support_n = N``.  The norms ``g`` are the quadrature norms
    of the recovered polynomials on the atoms, a second route to the
    product of the ``a``'s that :func:`norms` checks.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    atoms, where = np.unique(fiber.atoms, return_inverse=True)
    weights = np.bincount(where, weights=fiber.weights)
    # the rotations chase downward, so the leading entries never read the rest
    size = min(atoms.size, max_degree + 1)
    b = [float(atoms[0])] + [0.0] * (size - 1)  # the diagonal
    beta = [float(weights[0])] + [0.0] * (size - 1)  # the mass, then a_1, a_2, ...
    for x, pn in zip(atoms[1:].tolist(), weights[1:].tolist()):
        gam, sig, t = 1.0, 0.0, 0.0
        for k in range(size):
            rho = beta[k] + pn
            tmp, tsig = gam * rho, sig
            gam, sig = (beta[k] / rho, pn / rho) if rho > 0 else (1.0, 0.0)
            tk = sig * (b[k] - x) - gam * t
            b[k] -= tk - t
            t = tk
            pn = t * t / sig if sig > 0 else tsig * beta[k]
            beta[k] = tmp
    pad = [0.0] * (max_degree + 1 - size)
    finite_n = atoms.size if atoms.size <= max_degree else None
    b, a = np.array(b + pad), np.array([0.0] + beta[1:] + pad)
    return JacobiNode(b, a, poly_values(b, a, finite_n or np.inf, atoms) ** 2 @ weights, finite_n)


def norms(node: JacobiNode) -> np.ndarray:
    """Squared norms g[0..L], cross-checked against the product of the a's.

    The quadrature norms and the running product must agree to 1e-10,
    relative and absolute, the package's check tolerance, or this raises.
    """
    prod = np.ones_like(node.g)
    prod[1:] = np.cumprod(node.a[1:])
    if not np.allclose(node.g, prod, rtol=1e-10, atol=1e-10):
        raise ArithmeticError("quadrature norms disagree with the coefficient product")
    return node.g.copy()


def gauss_rule(b, a, m_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights from recurrence coefficients.

    Golub-Welsch: ``numpy.linalg.eigh`` of the dense symmetric tridiagonal
    truncation (diagonal ``b``, off-diagonal ``sqrt(a)``); nodes are the
    ascending eigenvalues, weights the squared first eigenvector
    components.  Exact for polynomials of degree <= 2*m_nodes - 1.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if m_nodes < 1:
        raise ValueError("at least one node required")
    if b.size < m_nodes or a.size < m_nodes:
        raise ValueError("not enough tabulated coefficients for the requested rule")
    if m_nodes == 1:
        return np.array([b[0]]), np.array([1.0])
    if np.any(a[1:m_nodes] <= 0):
        raise ValueError("a coefficients must be positive for the requested size")
    off = np.sqrt(a[1:m_nodes])
    vals, vecs = np.linalg.eigh(np.diag(b[:m_nodes]) + np.diag(off, 1) + np.diag(off, -1))
    return vals, vecs[0] ** 2


def meixner_moments(lam: float, eta: float, sigma_delta: float, k: int) -> np.ndarray:
    """Moments 0..k of the one-increment law with the given parameters.

    Powers of the truncated symmetric tridiagonal matrix with diagonal
    ``(0, lam, lam, ...)`` and off-diagonal ``(sqrt(sigma_delta),
    sqrt(sigma_delta + eta), ...)``, read off at the first basis vector.
    """
    if sigma_delta <= 0:
        raise ValueError("the window mass must be positive")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if k < 0:
        raise ValueError("moment order must be non-negative")
    size = k // 2 + 1  # past index k // 2 a walk cannot return to 0 within k steps
    diag = np.full(size, float(lam))
    diag[0] = 0.0
    off = np.full(max(size - 1, 0), np.sqrt(sigma_delta + eta))
    if size > 1:
        off[0] = np.sqrt(sigma_delta)
    vec = np.zeros(size)
    vec[0] = 1.0
    out = np.empty(k + 1)
    out[0] = 1.0
    for j in range(1, k + 1):
        nxt = diag * vec
        if size > 1:
            nxt[:-1] += off * vec[1:]
            nxt[1:] += off * vec[:-1]
        vec = nxt
        out[j] = vec[0]
    return out


class JacobiSystem:
    """The recurrence systems of ``model``'s node laws, as degree-major tables.

    The one constructor recovers each node law's recurrence through degree
    ``max_degree`` (:func:`coeffs_from_measure`), so a system's tables are
    always its model's.  ``b``, ``a`` and ``g`` are read-only
    ``(max_degree + 1, m)`` arrays over the model's ``grid``: row ``l``
    holds the degree-``l`` coefficient or norm at every node, so raveled
    they follow the slot layout ``l*m + t`` of :mod:`xfock`.  ``support`` is
    the read-only row of each node's support size, ``inf`` where the law has
    more atoms than the tables reach.
    """

    def __init__(self, model: ProductGrid, max_degree: int):
        nodes = [coeffs_from_measure(fb, max_degree) for fb in model.fibers]
        self.model, self.grid, self.max_degree = model, model.grid, max_degree
        tables = {name: np.stack([getattr(n, name) for n in nodes], axis=1) for name in "bag"}
        tables["support"] = np.array([n.finite_support_n or np.inf for n in nodes], dtype=float)
        for name, table in tables.items():
            table.flags.writeable = False
            setattr(self, name, table)
