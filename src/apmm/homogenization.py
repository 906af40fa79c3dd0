"""Periodic cell problems and the homogenized (effective) diffusion data.

In one space dimension the effective coefficient is the harmonic y-average
of a(x, .), and the periodic cell corrector has a closed form built from
the cumulative integral of 1/a.  The generic elliptic solver in
:mod:`apmm.operators` provides an independent route to the same corrector
and is used as a cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CellMesh, FloatArray, SpatialMesh
from .problem import DiffusionField


def macro_gradient(values: FloatArray, dx: float) -> FloatArray:
    """Second-order gradient of cell-centre values.

    Centred differences in the interior; one-sided three-point stencils at
    the two boundary cells (exact through quadratics).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("macro_gradient needs a 1-D array with at least 3 entries")
    return _x_gradient(v, dx)


def _x_gradient(v: FloatArray, dx: float) -> FloatArray:
    """:func:`macro_gradient` along axis 0, unchecked; also used on (nx, ny).  Both one-sided
    rows at once: ``-3 v0 + 4 v1 - v2 = 4 (v1 - v0) - (v2 - v0)``, and its mirror image."""
    n = v.shape[0]
    out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    ends = out[:: n - 1]
    np.subtract(v[1 :: n - 2], v[: n - 1 : n - 2], out=ends)
    ends *= 4.0
    ends -= out[1 : n - 1 : max(n - 3, 1)]
    out /= 2.0 * dx
    return out


def wall_gradients(values: FloatArray, dx: float) -> tuple[float, float]:
    """Second-order one-sided gradients at the walls x = 0 and x = 1.

    The stencils account for the half-cell offset of the first/last centre.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("wall_gradients needs a 1-D array with at least 3 entries")
    (a, b, c), (x, y, z) = v[:3].tolist(), v[-3:].tolist()  # float arithmetic from here
    return (-2.0 * a + 3.0 * b - c) / dx, (2.0 * z - 3.0 * y + x) / dx


def _inverse_at_nodes(a: DiffusionField, x, ymesh: CellMesh) -> FloatArray:
    """1/a sampled at the cell-mesh nodes; shape (..., n_points)."""
    x = np.asarray(x, dtype=float)
    vals = a(x[..., None], ymesh.nodes)
    return 1.0 / vals


def homogenized_coefficient(a: DiffusionField, x, ymesh: CellMesh):
    """Harmonic y-average of a(x, .) via periodic trapezoid quadrature.

    On the equispaced periodic mesh the trapezoid rule reduces to the node
    mean and converges geometrically for analytic coefficients.  Scalar x
    gives a float; an array of x gives an array.
    """
    b = _inverse_at_nodes(a, x, ymesh)
    out = 1.0 / b.mean(axis=-1)
    if np.ndim(x) == 0:
        return float(out)
    return out


def solve_cell_problem(a: DiffusionField, x, ymesh: CellMesh) -> FloatArray:
    """Zero-mean periodic cell corrector chi(x, .) on the mesh nodes.

    Closed form: chi(y) = a0(x) * int_0^y 1/a(x, s) ds - y, shifted to zero
    node mean.  The cumulative integral accumulates the midpoint (half-node)
    samples of 1/a between consecutive nodes — the staggered counterpart of
    the trapezoid rule, equally accurate, and chosen because it reproduces
    the flux-form discrete cell problem exactly: the generic periodic
    elliptic solver returns the same corrector up to full-period quadrature
    roundoff.  Scalar x gives shape (n_points,); an array of x gives shape
    (len(x), n_points).
    """
    x = np.asarray(x, dtype=float)
    chi = _cell_corrector(np.atleast_2d(1.0 / a(x[..., None], ymesh.half_nodes)), ymesh)
    return chi[0] if x.ndim == 0 else chi


def _cell_corrector(b_half: FloatArray, ymesh: CellMesh) -> FloatArray:
    """Closed-form corrector rows from ``b_half``, the rows of 1/a at the half-nodes."""
    # the a0 inside the increments must be the half-node harmonic mean, so
    # that the last increment wraps around the period exactly
    ones = np.ones(ymesh.n_points)  # row sums by BLAS
    chi = np.cumsum(b_half, axis=-1, out=np.empty_like(b_half))  # then, in place, the sums
    chi -= b_half  # before each node
    chi *= (ymesh.n_points * ymesh.dy / np.dot(b_half, ones))[:, None]  # times a0 * dy
    chi -= ymesh.nodes
    chi -= (np.dot(chi, ones) / ymesh.n_points)[:, None]
    return chi


@dataclass(frozen=True)
class HomogenizedData:
    """Effective coefficient and cell correctors sampled on a tensor grid.

    - ``a0``: effective coefficient at the spatial cell centres, shape (nx,)
    - ``a0_interfaces``: the same at all nx+1 cell interfaces (walls included)
    - ``chi``: corrector at (centre, node) pairs, shape (nx, ny), zero y-mean
    - ``chi_walls``: corrector profiles at x = 0 and x = 1, shape (2, ny)
    """

    xmesh: SpatialMesh
    ymesh: CellMesh
    a0: FloatArray
    a0_interfaces: FloatArray
    chi: FloatArray
    chi_walls: FloatArray


def build_homogenized(
    a: DiffusionField, xmesh: SpatialMesh, ymesh: CellMesh
) -> HomogenizedData:
    """Solve the cell problems for every spatial cell (and both walls)."""
    a0 = homogenized_coefficient(a, xmesh.centers, ymesh)
    a0_if = homogenized_coefficient(a, xmesh.interfaces, ymesh)
    chi = solve_cell_problem(a, xmesh.centers, ymesh)
    chi_walls = solve_cell_problem(a, np.array([0.0, 1.0]), ymesh)
    return HomogenizedData(
        xmesh=xmesh,
        ymesh=ymesh,
        a0=a0,
        a0_interfaces=a0_if,
        chi=chi,
        chi_walls=chi_walls,
    )


def first_order_corrector(hom: HomogenizedData, macro: FloatArray) -> FloatArray:
    """First-order two-scale corrector chi(x_i, y_j) * d/dx macro at x_i.

    The macro gradient uses centred differences inside and one-sided
    second-order stencils at the boundary cells.
    """
    macro = np.asarray(macro, dtype=float)
    if macro.shape != (hom.xmesh.n_cells,):
        raise ValueError(
            f"macro field has shape {macro.shape}, expected ({hom.xmesh.n_cells},)"
        )
    grad = macro_gradient(macro, hom.xmesh.dx)
    return hom.chi * grad[:, None]
