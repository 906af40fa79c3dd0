"""Macro gradients and the first-order two-scale corrector.

The cell data come by one route: the effective coefficient (the harmonic y-average of
a(x, .)) and the periodic cell corrector are fields of the ``CoefficientTables`` record that
:func:`apmm.problem.sample_coefficient` derives from the checked coefficient samples of a
tensor grid, at its interfaces (``a0_interfaces``), centres (``chi``) and walls
(``chi_walls``).  The corrector's closed form integrates 1/a over the half-nodes; the fast
periodic solve at s = 0, ``GridOperators._factor(0.0)`` in :mod:`apmm.operators`, is an
independent route to it, used as a cross-check in the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy import multiply, subtract

from .mesh import FloatArray
from .problem import CoefficientTables


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
