"""Per-point monic orthogonal polynomial systems and their recurrences.

Each node of the base grid carries a compactly supported probability
measure; its monic orthogonal polynomials obey the three-term recursion

    s p_n(s) = p_{n+1}(s) + b_n p_n(s) + a_n p_{n-1}(s)

with ``a_n > 0`` while the support allows it.  A measure supported on N
points breaks down at degree N: from there on the polynomials are zero and
we fix ``a_n = b_n = 0`` so the recursion stays valid and serialization is
deterministic.

The squared norms ``g_l`` of the monic polynomials double as the component
weights of the extended Fock space; they satisfy ``g_l = a_1 a_2 ... a_l``
and are computed both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import FiberMeasure, GridMeasure

__all__ = [
    "JacobiNode",
    "JacobiSystem",
    "poly_eval",
    "poly_values",
    "coeffs_from_measure",
    "norms",
    "gauss_rule",
    "fiber_from_coefficients",
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

    @property
    def max_degree(self) -> int:
        return self.b.size - 1


def poly_values(node: JacobiNode, lmax: int, s) -> np.ndarray:
    """Monic orthogonal polynomials of degrees ``0..lmax`` at ``s``, stacked.

    Row ``l`` is identically zero from the support size on, matching the
    finite-support convention.
    """
    if lmax < 0 or lmax > node.max_degree:
        raise ValueError(f"degree {lmax} outside tabulated range 0..{node.max_degree}")
    s = np.asarray(s, dtype=float)
    out = np.zeros((lmax + 1,) + s.shape)
    n = lmax + 1 if node.finite_support_n is None else min(lmax + 1, node.finite_support_n)
    p_prev, p = np.zeros_like(s), np.ones_like(s)
    for k in range(n):
        out[k] = p
        p, p_prev = (s - node.b[k]) * p - (node.a[k] if k else 0.0) * p_prev, p
    return out


def poly_eval(node: JacobiNode, l: int, s):
    """Monic orthogonal polynomial of degree ``l`` at ``s`` (scalar or array)."""
    return poly_values(node, l, s)[l]


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
    node = JacobiNode(b + pad, [0.0] + beta[1:] + pad, np.zeros(max_degree + 1), finite_n)
    return replace(node, g=poly_values(node, max_degree, atoms) ** 2 @ weights)


def norms(node: JacobiNode, rtol: float = 1e-10) -> np.ndarray:
    """Squared norms g[0..L], cross-checked against the product of the a's."""
    prod = np.ones_like(node.g)
    prod[1:] = np.cumprod(node.a[1:])
    if not np.allclose(node.g, prod, rtol=rtol, atol=rtol):
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


def fiber_from_coefficients(b, a, m_nodes: int, radius: float = 0.0) -> FiberMeasure:
    """Discretize the measure defined by recurrence coefficients."""
    atoms, weights = gauss_rule(b, a, m_nodes)
    weights = weights / weights.sum()
    return FiberMeasure(atoms, weights, radius=radius)


def meixner_moments(
    lam: float, eta: float, sigma_delta: float, k: int, size: int | None = None
) -> np.ndarray:
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
    needed = k // 2 + 1
    if size is None:
        size = needed
    elif size < needed:
        raise ValueError(f"truncation {size} too small for moment order {k}")
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
    """Per-node recurrence systems over a grid, with node-aligned tables."""

    def __init__(self, grid: GridMeasure, nodes):
        nodes = list(nodes)
        if len(nodes) != grid.size:
            raise ValueError("one recurrence system per grid node required")
        degrees = {node.max_degree for node in nodes}
        if len(degrees) != 1:
            raise ValueError("nodes must share one tabulated degree")
        self.grid = grid
        self.nodes = nodes
        self.max_degree = degrees.pop()
        self._b = np.stack([node.b for node in nodes])
        self._a = np.stack([node.a for node in nodes])
        self._g = np.stack([node.g for node in nodes])

    @classmethod
    def from_fibers(cls, grid: GridMeasure, fibers, max_degree: int) -> "JacobiSystem":
        return cls(grid, [coeffs_from_measure(fb, max_degree) for fb in fibers])

    @classmethod
    def meixner(cls, grid: GridMeasure, max_degree: int) -> "JacobiSystem":
        """Constant-in-level system from the grid's coefficient tables.

        ``b_l = lambda(t)`` and ``a_l = eta(t)``; a vanishing eta makes the
        node law a point mass, with the finite-support zero pattern.
        """
        nodes = []
        for lam, eta in zip(grid.lambda_values, grid.eta_values):
            size = max_degree + 1
            if eta == 0:
                b = np.zeros(size)
                b[0] = lam
                nodes.append(JacobiNode(b, np.zeros(size), np.eye(1, size)[0], 1))
            else:
                b = np.full(size, lam)
                a = np.full(size, eta)
                a[0] = 0.0
                g = eta ** np.arange(size)
                nodes.append(JacobiNode(b, a, g, None))
        return cls(grid, nodes)

    def b_values(self, l: int) -> np.ndarray:
        return self._b[:, l]

    def a_values(self, l: int) -> np.ndarray:
        return self._a[:, l]

    def g_values(self, l: int) -> np.ndarray:
        return self._g[:, l]

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "nodes": [
                {
                    "t": float(t),
                    "b": node.b.tolist(),
                    "a": node.a.tolist(),
                    "g": node.g.tolist(),
                    "finite_support_n": node.finite_support_n,
                }
                for t, node in zip(self.grid.nodes, self.nodes)
            ],
        }
