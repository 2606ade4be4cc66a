"""Free noise fields on the full Fock space, verified on finite grids.

Subpackages by concern:

* :mod:`freewick.ncpart` -- non-crossing and marked partitions.
* :mod:`freewick.grid` -- quadrature of the index space and node laws.
* :mod:`freewick.fock` -- truncated full Fock space.
* :mod:`freewick.field` -- field operators, Wick products, partition rules.
* :mod:`freewick.cumulant` -- moments, free cumulants, transforms.
* :mod:`freewick.jacobi` -- per-node orthogonal polynomial recurrences.
* :mod:`freewick.xfock` -- the extended Fock space realization.
* :mod:`freewick.cli` -- configuration-driven verification front end.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DomainBoundError,
    EnumerationBoundError,
    FreewickError,
)
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fiber
from .ncpart import MarkedPartition, SetPartition, enumerate_gn, enumerate_interval, enumerate_nc, is_noncrossing

__version__ = "0.1.0"

__all__ = [
    "FreewickError",
    "CapacityError",
    "ConfigError",
    "DomainBoundError",
    "EnumerationBoundError",
    "GridMeasure",
    "FiberMeasure",
    "ProductGrid",
    "make_grid",
    "semicircle_fiber",
    "SetPartition",
    "MarkedPartition",
    "enumerate_nc",
    "enumerate_gn",
    "enumerate_interval",
    "is_noncrossing",
    "__version__",
]
