"""Finite-volume operator blocks on the tensor (x, y) grid.

Fields come in two layouts: macro arrays of shape (nx,) on the spatial cell
centres, and micro arrays of shape (nx, ny) whose fast axis is periodic.
All operators act slice-by-slice in x and vectorise over the batch.

Dirichlet wall data enters through ghost values ``u_ghost = 2*u_wall -
u_first`` for the x-direction stencils.  Both periodic solves in y use one
sparse block-diagonal matrix, with one periodic block per distinct slice
(one block in all when the coefficient does not depend on x).  The shifted
solve factors ``I - c*Ly``; the singular solve factors ``Ly`` bordered by
one Lagrange row and column per slice, which fixes its nullspace without
node pinning.  The slices sharing a block are solved together as the
columns of one right-hand side.  The effective operator is a 1-D stencil
whose coefficients take one singular solve, done on first use.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .homogenization import _x_gradient, macro_gradient
from .mesh import FloatArray
from .problem import CoefficientTables

_MEAN_PRE_TOL = 1e-10


def y_average(u: FloatArray) -> FloatArray:
    """Average over the periodic fast axis (exact trapezoid on equal nodes)."""
    return np.asarray(u, dtype=float).mean(axis=-1)


def remove_y_average(u: FloatArray) -> FloatArray:
    """Fluctuating part of a micro field: subtract the per-slice y-average."""
    u = np.asarray(u, dtype=float)
    return u - u.mean(axis=-1, keepdims=True)


class GridOperators:
    """Discrete diffusion blocks bound to one set of coefficient tables.

    Assembles the periodic y-operator once and holds the LU factors of its
    shifted solves and the effective coefficients, built on first use, so a
    time stepper reuses them for the whole run.  All ``bc`` arguments are
    ``(left, right)`` Dirichlet wall data: scalars for macro fields,
    length-ny profiles (or scalars) for micro fields; ``None`` means
    homogeneous walls.
    """

    def __init__(self, tables: CoefficientTables):
        self.tables = tables
        self.xmesh = tables.xmesh
        self.ymesh = tables.ymesh
        self.nx = tables.xmesh.n_cells
        self.ny = tables.ymesh.n_points
        self.dx = tables.xmesh.dx
        self.dy = tables.ymesh.dy
        self._blocks = 1 if tables.x_uniform else self.nx
        self._ly = self._y_matrix()
        self._factors: dict = {}

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _checked(u: FloatArray, shape: tuple[int, ...], what: str) -> FloatArray:
        u = np.asarray(u, dtype=float)
        if u.shape != shape:
            raise ValueError(f"{what} has shape {u.shape}, expected {shape}")
        return u

    def _as_micro(self, u: FloatArray) -> FloatArray:
        if np.ndim(u) == 1:
            u = self._checked(u, (self.nx,), "macro field")
            return np.broadcast_to(u[:, None], (self.nx, self.ny))
        return self._checked(u, (self.nx, self.ny), "micro field")

    def _with_ghosts(self, u: FloatArray, bc) -> FloatArray:
        """Pad a field with Dirichlet ghost rows (2*wall - first interior)."""
        u2 = self._as_micro(u)
        left, right = (0.0, 0.0) if bc is None else bc
        padded = np.empty((self.nx + 2, self.ny))
        padded[1:-1] = u2
        padded[0] = 2.0 * np.asarray(left, dtype=float) - u2[0]
        padded[-1] = 2.0 * np.asarray(right, dtype=float) - u2[-1]
        return padded

    # -- fast-direction (periodic) operators --------------------------------

    def apply_y_diffusion(self, u: FloatArray) -> FloatArray:
        """Flux-form periodic diffusion in y at frozen x: d/dy(a d/dy u)."""
        u = self._checked(u, (self.nx, self.ny), "micro field")
        ay = self.tables.y_interfaces
        flux = ay * (np.roll(u, -1, axis=1) - u) / self.dy**2
        return flux - np.roll(flux, 1, axis=1)

    def _y_matrix(self):
        """Ly as one CSC matrix with a periodic ny-block per distinct slice.

        Column j of a block holds rows j-1, j, j+1 (mod ny) with the flux
        weights a_{j-1/2}, -(a_{j-1/2} + a_{j+1/2}), a_{j+1/2}; the rows are
        sorted, so every matrix derived from this one is canonical too.
        """
        m, n = self._blocks, self.ny
        ay = self.tables.y_interfaces[:m] / self.dy**2
        j = np.arange(n)
        rows = (j[:, None] + np.arange(-1, 2)) % n + n * np.arange(m)[:, None, None]
        ay_prev = ay[:, j - 1]
        vals = np.stack([ay_prev, -(ay_prev + ay), ay], axis=-1)
        indptr = np.arange(0, 3 * m * n + 1, 3)
        ly = sp.csc_matrix((vals.ravel(), rows.ravel(), indptr), shape=(m * n, m * n))
        ly.sort_indices()
        return ly

    def _columns(self, u: FloatArray) -> FloatArray:
        """Stack the x-slices of a micro field as right-hand-side columns of Ly."""
        m = self._blocks
        return u.reshape(m, self.nx // m, self.ny).transpose(0, 2, 1).reshape(m * self.ny, -1)

    def _field(self, columns: FloatArray) -> FloatArray:
        """Inverse of :meth:`_columns`."""
        m = self._blocks
        return columns.reshape(m, self.ny, -1).transpose(0, 2, 1).reshape(self.nx, self.ny)

    def _factor(self, shift: float):
        """Cached sparse LU of ``I - shift*Ly``.

        The blocks are banded apart from their wrap-around corners, so the
        natural column order gives less fill than the default one.
        """
        if shift not in self._factors:
            ly = self._ly
            data = -shift * ly.data
            data[ly.indices == np.repeat(np.arange(ly.shape[0]), 3)] += 1.0
            matrix = sp.csc_matrix((data, ly.indices, ly.indptr), shape=ly.shape)
            self._factors[shift] = splu(matrix, permc_spec="NATURAL")
        return self._factors[shift]

    def solve_y_diffusion(self, rhs: FloatArray) -> FloatArray:
        """Solve the singular periodic y-diffusion problem per slice.

        The right-hand side must have (numerically) zero y-average per
        slice; the solution is returned with zero y-average.  ``Ly`` is
        bordered by one Lagrange row and column per block, the row holding
        the block's sum at zero, and factored on each call: a time stepper
        needs this solve once, for the effective coefficients.
        """
        rhs = self._checked(rhs, (self.nx, self.ny), "right-hand side")
        scale = float(np.max(np.abs(rhs)))
        if scale > 0.0:
            worst = float(np.max(np.abs(rhs.mean(axis=-1))))
            if worst > _MEAN_PRE_TOL * scale:
                raise ValueError(
                    "solve_y_diffusion requires zero-mean data per slice "
                    f"(worst slice mean {worst:.3e} vs scale {scale:.3e})"
                )
        ly, m, n = self._ly, self._blocks, self.ny
        size = ly.shape[0]
        border = np.repeat(size + np.arange(m), n)
        indices = np.column_stack([ly.indices.reshape(size, 3), border]).ravel()
        data = np.column_stack([ly.data.reshape(size, 3), np.ones(size)]).ravel()
        indptr = np.append(np.arange(0, 4 * size, 4), 4 * size + n * np.arange(m + 1))
        matrix = sp.csc_matrix(
            (np.append(data, np.ones(size)), np.append(indices, np.arange(size)), indptr),
            shape=(size + m, size + m),
        )
        bordered = np.zeros((size + m, self.nx // m))
        bordered[:size] = self._columns(rhs)
        w = self._field(splu(matrix, permc_spec="NATURAL").solve(bordered)[:size])
        return w - w.mean(axis=-1, keepdims=True)

    def solve_shifted(self, rhs: FloatArray, c: float) -> FloatArray:
        """Solve ``(I - c * Ly) w = rhs`` per slice for c >= 0.

        The matrix is strictly diagonally dominant; its sparse LU is
        factored once per value of c and reused.
        """
        rhs = self._checked(rhs, (self.nx, self.ny), "right-hand side")
        if not np.isfinite(c) or c < 0.0:
            raise ValueError(f"shift must be finite and non-negative, got {c}")
        return self._field(self._factor(float(c)).solve(self._columns(rhs)))

    # -- slow-direction and mixed operators ----------------------------------

    def apply_x_diffusion(self, u: FloatArray, bc=None) -> FloatArray:
        """Flux-form diffusion in x: d/dx(a d/dx u), Dirichlet walls via ghosts.

        Macro input is broadcast across the fast axis; the result is always
        a micro field because the coefficient varies in y.
        """
        padded = self._with_ghosts(u, bc)
        ax = self.tables.x_interfaces
        flux = ax * (padded[1:] - padded[:-1]) / self.dx**2
        return flux[1:] - flux[:-1]

    def apply_mixed_derivatives(self, u: FloatArray, bc=None) -> FloatArray:
        """The cross-derivative block d/dx(a d/dy u) + d/dy(a d/dx u).

        The first term forms ``a * du/dy`` at cell centres (periodic centred
        differences in y) and differences it in x with centred stencils,
        falling back to one-sided second-order rows at the two boundary
        cells so no coefficient value outside the domain is ever needed.
        It vanishes identically for y-independent fields.  The second term
        differences ``a * du/dx`` between the periodic half-nodes, so its
        y-average telescopes to exactly zero for any input; Dirichlet traces
        enter it through the usual ghost rule.
        """
        u2 = self._as_micro(u)
        ay = self.tables.y_interfaces

        r = self.tables.centers * (np.roll(u2, -1, axis=1) - np.roll(u2, 1, axis=1)) / (
            2.0 * self.dy
        )
        term1 = _x_gradient(r, self.dx)

        padded = self._with_ghosts(u, bc)
        dudx = (padded[2:] - padded[:-2]) / (2.0 * self.dx)
        s = ay * 0.5 * (dudx + np.roll(dudx, -1, axis=1))
        term2 = (s - np.roll(s, 1, axis=1)) / self.dy
        return term1 + term2

    @cached_property
    def _effective_coefficients(self) -> tuple[FloatArray, FloatArray]:
        """``abar`` and ``beta``; the (nx, ny) corrector is not kept."""
        ay = self.tables.y_interfaces
        g = (ay - np.roll(ay, 1, axis=1)) / self.dy
        chi = self.solve_y_diffusion(remove_y_average(g))
        dchi = (np.roll(chi, -1, axis=1) - np.roll(chi, 1, axis=1)) / (2.0 * self.dy)
        return y_average(self.tables.x_interfaces), y_average(self.tables.centers * dchi)

    def apply_effective(self, macro: FloatArray, bc=None) -> FloatArray:
        """Upscaled diffusion block acting on a macro field.

        The y-averaged x-diffusion minus the y-averaged cross-derivative of
        ``w``, the periodic solve of the fluctuating cross-derivative data.
        With scalar walls that data is ``d * g``, where ``d`` is the centred
        x-gradient of the ghost-padded field ``p`` and ``g = (a_{j+1/2} -
        a_{j-1/2})/dy``.  So ``w = d * chi`` for the fixed solution ``chi``
        of ``Ly chi = g``, and the block is the 1-D stencil
        ``diff(abar * diff(p))/dx**2 - grad(beta * d)``: ``abar`` is the
        y-averaged x-interface coefficient, ``beta`` the y-average of
        ``a * dchi/dy`` (zero for a y-independent coefficient), both built on
        first use.  A y-profile wall raises ``TypeError``: ``w`` would no
        longer be ``d * chi``.
        """
        macro = self._checked(macro, (self.nx,), "macro field")
        left, right = (0.0, 0.0) if bc is None else (float(bc[0]), float(bc[1]))
        p = np.concatenate(([2.0 * left - macro[0]], macro, [2.0 * right - macro[-1]]))
        abar, beta = self._effective_coefficients
        d = (p[2:] - p[:-2]) / (2.0 * self.dx)
        return np.diff(abar * np.diff(p)) / self.dx**2 - macro_gradient(beta * d, self.dx)
