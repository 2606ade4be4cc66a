"""Quadrature discretization of the index space and of the per-point measures.

The index space ``T`` (default ``[0, 1]`` with Lebesgue measure) is
discretized by a midpoint rule, so integrals of cell-wise constant
functions are exact and the mass of a union of cells is the exact interval
length.  Per-point probability measures are discretized as finite atom
lists, typically Gauss rules, exact for polynomial integrands up to
``2M - 1`` where ``M`` is the atom count.

The discrete delta against this quadrature is ``delta_ij / w_i`` so that
the smeared identity ``sum_ij w_i w_j delta(i,j) f(i,j) = sum_i w_i f(i,i)``
holds exactly.

All objects here are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridMeasure",
    "FiberMeasure",
    "ProductGrid",
    "make_grid",
    "semicircle_fiber",
    "semicircle_fibers",
    "point_fiber",
]

_NORMALIZATION_TOL = 1e-12


def _on_nodes(f, size: int, order: int | None = None, dtype=float) -> np.ndarray:
    """``f`` as a ``dtype`` array of ``order`` axes of length ``size``, any
    order when ``order`` is None: the one check that values sit over a base
    of ``size`` nodes.  Anything else, a broadcastable shape included, is
    refused with ``ValueError``."""
    f = np.asarray(f, dtype=dtype)
    shape = (size,) * (f.ndim if order is None else order)
    if f.shape != shape:
        raise ValueError(f"values over {size} nodes must have shape {shape}, got {f.shape}")
    return f


@dataclass(frozen=True)
class GridMeasure:
    """Nodes and weights for the base measure plus tabulated coefficients.

    ``lambda_values`` and ``eta_values`` hold the per-node values of the
    model's level-preserving and second-order coefficient functions; they
    ride along with the quadrature because every operator in the package
    consumes them aligned with the nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lambda_values: np.ndarray
    eta_values: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights", "lambda_values", "eta_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.shape != self.nodes.shape:
                raise ValueError(f"{name} must be 1-d and aligned with nodes")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.nodes.size < 1:
            raise ValueError("at least one node required")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.eta_values < 0):
            raise ValueError("eta values must be non-negative")

    @property
    def size(self) -> int:
        return self.nodes.size

    def indicator(self, a: float, b: float) -> np.ndarray:
        """Node-sampled indicator of the interval [a, b)."""
        return ((self.nodes >= a) & (self.nodes < b)).astype(float)

    def inner(self, u, v) -> float:
        """Weighted inner product of two node-value sequences."""
        return float(np.sum(self.weights * np.asarray(u) * np.asarray(v)))


@dataclass(frozen=True)
class FiberMeasure:
    """A compactly supported probability measure given by finite atoms."""

    atoms: np.ndarray
    weights: np.ndarray
    radius: float = field(default=0.0)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.ndim != 1 or atoms.shape != weights.shape or atoms.size < 1:
            raise ValueError("atoms and weights must be matching 1-d arrays")
        # a NaN fails no comparison below, so it is refused here
        finite = np.isfinite(atoms).all() and np.isfinite(weights).all() and np.isfinite(self.radius)
        if not finite:
            raise ValueError("atoms, weights and radius must be finite")
        if np.any(weights <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(weights.sum() - 1.0) > _NORMALIZATION_TOL:
            raise ValueError("atom weights must sum to 1")
        radius = self.radius if self.radius > 0 else float(np.max(np.abs(atoms)))
        radius = max(radius, np.finfo(float).tiny)
        object.__setattr__(self, "radius", radius)
        if np.any(np.abs(atoms) > radius * (1 + 1e-12)):
            raise ValueError("atoms must lie within [-radius, radius]")

    @property
    def size(self) -> int:
        return self.atoms.size

    def moment(self, k: int) -> float:
        """k-th raw moment of the discrete measure."""
        return float(np.sum(self.weights * self.atoms**k))


def _tabulate(spec, nodes: np.ndarray) -> np.ndarray:
    """Resolve a coefficient spec to per-node values.

    Accepts a scalar, a node-aligned sequence, a callable, or a
    piecewise-constant segment list ``{"segments": [[a, b, value], ...]}``.
    """
    if callable(spec):
        return np.asarray([float(spec(t)) for t in nodes], dtype=float)
    if isinstance(spec, dict):
        segments = spec.get("segments")
        if segments is None:
            raise ValueError("coefficient dict must supply 'segments'")
        vals = np.full(nodes.shape, np.nan)
        for a, b, value in segments:
            vals[(nodes >= a) & (nodes < b)] = float(value)
        if np.any(np.isnan(vals)):
            raise ValueError("segments do not cover all grid nodes")
        return vals
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        return np.full(nodes.shape, float(arr))
    return _on_nodes(arr, nodes.size, 1)


def make_grid(m: int, interval=(0.0, 1.0), lam=0.0, eta=0.0) -> GridMeasure:
    """Midpoint-rule grid of ``m`` cells on ``interval`` with coefficient tables."""
    if m < 1:
        raise ValueError("node count must be positive")
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must have positive length")
    h = (b - a) / m
    nodes = a + h * (np.arange(m) + 0.5)
    weights = np.full(m, h)
    return GridMeasure(nodes, weights, _tabulate(lam, nodes), _tabulate(eta, nodes))


class ProductGrid:
    """The model: joint quadrature over index-space nodes times per-node fiber atoms.

    Every node carries one law, by default the point mass at ``lambda``.
    Flattened node ``k`` represents a pair ``(t, s)``: it carries weight
    ``w_t * p_atom`` and coefficient value ``s``, realizing the coefficient
    choice ``lambda(t, s) = s`` of the joint model.  Exposes the same
    ``size`` / ``weights`` / ``lambda_values`` surface as
    :class:`GridMeasure`, so the Fock-space operators run on it unchanged.
    """

    __slots__ = ("grid", "fibers", "weights", "svalues", "fweights", "tindex")

    def __init__(self, grid: GridMeasure, fibers=None):
        if fibers is None:
            fibers = [point_fiber(lam) for lam in grid.lambda_values]
        fibers = tuple(fibers)
        if len(fibers) != grid.size:
            raise ValueError("one fiber measure per grid node required")
        self.grid = grid
        self.fibers = fibers
        self.svalues = np.concatenate([fb.atoms for fb in fibers])
        self.fweights = np.concatenate([fb.weights for fb in fibers])
        self.tindex = np.concatenate(
            [np.full(fb.size, t, dtype=int) for t, fb in enumerate(fibers)]
        )
        self.weights = grid.weights[self.tindex] * self.fweights

    @property
    def size(self) -> int:
        return self.svalues.size

    @property
    def lambda_values(self) -> np.ndarray:
        return self.svalues

    def lift(self, fvals) -> np.ndarray:
        """Extend node values on the base grid to the joint nodes."""
        return _on_nodes(fvals, self.grid.size, 1)[self.tindex]

    def coefficient_moment(self, order: int) -> np.ndarray:
        """Per-node order-th raw moment of the node law, replacing ``lambda**order``."""
        moments = self.fweights * self.svalues**order
        return np.bincount(self.tindex, moments, minlength=self.grid.size)


def point_fiber(lam: float) -> FiberMeasure:
    """The measure concentrated at a single point."""
    return FiberMeasure(np.array([float(lam)]), np.array([1.0]))


def semicircle_fiber(lam: float, eta: float, m_nodes: int) -> FiberMeasure:
    """Gauss rule of the semicircle law with mean ``lam`` and variance ``eta``.

    Atoms ``lam + 2 sqrt(eta) cos(k pi / (M+1))`` with weights
    ``2 sin^2(k pi / (M+1)) / (M+1)``, exact for polynomials of degree
    ``<= 2M - 1``.  A zero variance collapses to the point mass at ``lam``.
    """
    if m_nodes < 1:
        raise ValueError("at least one quadrature node required")
    if eta < 0:
        raise ValueError("variance must be non-negative")
    if eta == 0:
        return point_fiber(lam)
    k = np.arange(1, m_nodes + 1)
    theta = k * np.pi / (m_nodes + 1)
    atoms = lam + 2.0 * np.sqrt(eta) * np.cos(theta)
    weights = 2.0 / (m_nodes + 1) * np.sin(theta) ** 2
    weights = weights / weights.sum()
    # sort ascending; the closed form lists atoms in decreasing order
    order = np.argsort(atoms)
    return FiberMeasure(atoms[order], weights[order], radius=abs(lam) + 2.0 * np.sqrt(eta))


def semicircle_fibers(grid: GridMeasure, m_nodes: int) -> list[FiberMeasure]:
    """:func:`semicircle_fiber` of every node's ``lambda`` and ``eta``."""
    return [semicircle_fiber(l, e, m_nodes) for l, e in zip(grid.lambda_values, grid.eta_values)]
