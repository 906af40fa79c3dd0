"""Uniform 1-D meshes for the slow (spatial) and fast (cell) variables.

The spatial mesh is a cell-centred finite-volume grid on the unit interval
with Dirichlet walls at x = 0 and x = 1.  The cell mesh discretises the
periodic unit cell of the oscillatory coefficient with equispaced nodes;
all index arithmetic on it is modulo the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
_MAX_POINTS = 2**20  # per axis: 8 MB a vector; larger grids are rejected before any allocation


@dataclass(frozen=True)
class SpatialMesh:
    """Cell-centred mesh of the unit interval (0, 1).

    Cell ``i`` occupies ``[i*dx, (i+1)*dx]`` and carries its unknown at the
    centre ``x_i = (i + 1/2)*dx``.  The walls x = 0 and x = 1 are cell
    interfaces, not unknowns.
    """

    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, (int, np.integer)):
            raise TypeError(f"n_cells must be an integer, got {self.n_cells!r}")
        if not 4 <= self.n_cells <= _MAX_POINTS:
            raise ValueError(f"n_cells must lie in 4 .. 2**20, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def centers(self) -> FloatArray:
        return (np.arange(self.n_cells) + 0.5) / self.n_cells

    @property
    def interfaces(self) -> FloatArray:
        """All ``n_cells + 1`` cell interfaces, including both walls."""
        return np.arange(self.n_cells + 1) / self.n_cells


@dataclass(frozen=True)
class CellMesh:
    """Equispaced periodic node mesh on the unit cell [0, 1).

    Nodes sit at ``y_j = j*dy`` for ``j = 0 .. n_points-1``; the point y = 1
    is identified with y = 0.  The count must be even so that the highest
    resolvable Fourier mode is an unambiguous pure cosine.
    """

    n_points: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_points, (int, np.integer)):
            raise TypeError(f"n_points must be an integer, got {self.n_points!r}")
        if not 4 <= self.n_points <= _MAX_POINTS:
            raise ValueError(f"n_points must lie in 4 .. 2**20, got {self.n_points}")
        if self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even, got {self.n_points}")

    @property
    def dy(self) -> float:
        return 1.0 / self.n_points

    @property
    def nodes(self) -> FloatArray:
        return np.arange(self.n_points) / self.n_points

    @property
    def half_nodes(self) -> FloatArray:
        """Midpoints ``y_{j+1/2}``; entry j lies between nodes j and j+1 (mod n)."""
        return (np.arange(self.n_points) + 0.5) / self.n_points


def make_spatial_mesh(n_cells: int) -> SpatialMesh:
    """Build the cell-centred spatial mesh with ``n_cells`` cells."""
    return SpatialMesh(n_cells=index(n_cells))


def make_cell_mesh(n_points: int) -> CellMesh:
    """Build the periodic cell mesh with ``n_points`` (even) nodes."""
    return CellMesh(n_points=index(n_points))
