"""Periodic cell problems, the first-order corrector and macro gradients.

In one space dimension the effective coefficient is the harmonic y-average
of a(x, .), and the periodic cell corrector has a closed form built from
the cumulative integral of 1/a.  The functions here evaluate both at given
points x; the cell data of a whole tensor grid are fields of its
``CoefficientTables``, derived from the checked coefficient samples by
:func:`apmm.problem.sample_coefficient`.  The fast periodic solve at s = 0,
``GridOperators._factor(0.0)`` in :mod:`apmm.operators`, is an independent
route to the same corrector, used as a cross-check in the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy import multiply, subtract

from .mesh import CellMesh, FloatArray
from .problem import CoefficientTables, DiffusionField, _cell_corrector


def macro_gradient(values: FloatArray, dx: float) -> FloatArray:
    """Second-order gradient of cell-centre values.

    Centred differences in the interior; one-sided three-point stencils at
    the two boundary cells (exact through quadratics).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("macro_gradient needs a 1-D array with at least 3 entries")
    out = _x_differences(v, np.empty_like(v))()
    out /= 2.0 * dx
    return out


def _x_differences(v: FloatArray, out: FloatArray):
    """A function writing ``2*dx`` times :func:`macro_gradient` on axis 0 into out and returning it,
    unchecked, also of (nx, ny); one-sided rows ``-3 v0 + 4 v1 - v2 = 4 (v1 - v0) - (v2 - v0)``."""
    n = len(v)
    def differences(ahead=v[2:], behind=v[:-2], inner=out[1:-1], ends=out[:: n - 1], out=out,
                    seconds=v[1::n - 2], firsts=v[:-1:n - 2], thirds=out[1:-1:max(n - 3, 1)]):
        subtract(ahead, behind, inner)
        multiply(subtract(seconds, firsts, ends), 4.0, ends)
        subtract(ends, thirds, ends)
        return out
    return differences


def homogenized_coefficient(a: DiffusionField, x, ymesh: CellMesh):
    """Harmonic y-average of a(x, .) via periodic trapezoid quadrature.

    On the equispaced periodic mesh the trapezoid rule reduces to the node
    mean and converges geometrically for analytic coefficients.  Scalar x
    gives a float; an array of x gives an array.
    """
    x = np.asarray(x, dtype=float)
    out = 1.0 / (1.0 / a(x[..., None], ymesh.nodes)).mean(axis=-1)
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


def first_order_corrector(hom: CoefficientTables, macro: FloatArray) -> FloatArray:
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
