"""Finite-volume operator blocks on the tensor (x, y) grid.

Fields come in two layouts: macro arrays of shape (nx,) on the spatial cell
centres, and micro arrays of shape (nx, ny) whose fast axis is periodic.
All operators act slice-by-slice in x and vectorise over the batch.

Every stencil reads a padded copy of its field: ghost rows ``u_ghost =
2*u_wall - u_first`` carry the Dirichlet wall data in x, and ghost columns
holding the opposite edge carry the periodic fast axis, so every neighbour
is a slice of the buffer and no stencil uses ``np.roll``.
``apply_y_diffusion`` keeps the flux form, as the reference the solves are
tested against.  Every periodic solve in y is one solve with the bordered
matrix ``K(s) = [[s*I - Ly, B], [B^T, 0]]``, where ``B`` holds one column
of ones per distinct slice (one in all when the coefficient does not depend
on x): the Lagrange border removes each slice's mean from the data and
holds the solution's mean at zero, which fixes the nullspace of ``Ly`` at
s = 0 without node pinning.  ``s >= 0`` is the inverse of the time-step
shift, so it stays finite as the shift grows without bound.  ``K`` is
assembled once with each border next to its block, and its sparse LU is
cached per value of s; the slices sharing a block are solved together as
the columns of one right-hand side.  The effective operator is a 1-D
stencil whose coefficients come from the closed-form cell corrector.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .homogenization import _cell_corrector, _x_gradient
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

    Assembles the bordered y-operator once and holds the LU factors of its
    solves and the effective coefficients, built on first use, so a time
    stepper reuses them for the whole run.  All ``bc`` arguments are
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
        self._bordered, self._diagonal = self._bordered_matrix()
        self._factors: dict = {}
        # a_{j-1/2} for j = 0 .. ny, the weights between padded columns, per distinct slice
        self._y_weights = tables.y_interfaces[: self._blocks, np.arange(-1, self.ny)]

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

    @staticmethod
    def _x_padded(u: FloatArray, bc) -> FloatArray:
        """Copy of ``u`` with the Dirichlet ghost rows ``2*wall - first interior``."""
        left, right = (0.0, 0.0) if bc is None else bc
        first, last = 2.0 * np.asarray(left) - u[0], 2.0 * np.asarray(right) - u[-1]
        return np.concatenate((first[None], u, last[None]))

    def _padded(self, u: FloatArray, bc) -> FloatArray:
        """``(nx+2, ny+2)`` copy of a field: ghost rows, then periodic ghost columns."""
        rows = self._x_padded(self._as_micro(u), bc)
        return np.concatenate((rows[:, -1:], rows, rows[:, :1]), axis=1)

    def _x_flux(self, p: FloatArray) -> FloatArray:
        """``a * dp/dx / dx`` at the nx+1 x-interfaces of an x-padded field."""
        return self.tables.x_interfaces * (p[1:] - p[:-1]) / self.dx**2

    def _centre_y_flux(self, padded: FloatArray) -> FloatArray:
        """``a du/dy`` at the cell centres, by periodic centred differences in y."""
        return self.tables.centers * (padded[1:-1, 2:] - padded[1:-1, :-2]) / (2.0 * self.dy)

    def _mixed(self, padded: FloatArray) -> tuple[FloatArray, FloatArray]:
        """The mixed block of a padded field, and the y-average of its first term
        (that of the whole block: the second term's telescopes to zero)."""
        out = _x_gradient(self._centre_y_flux(padded), self.dx)
        first_average = y_average(out)
        half_dudx = (padded[2:] - padded[:-2]) / (4.0 * self.dx)  # nodes j = -1 .. ny
        flux = half_dudx[:, :-1] + half_dudx[:, 1:]  # du/dx at the half-nodes j - 1/2, j = 0 .. ny
        flux *= self._y_weights
        term = np.subtract(flux[:, 1:], flux[:, :-1], out=half_dudx[:, 1:-1])  # half_dudx is spent
        out += np.divide(term, self.dy, out=term)
        return out, first_average

    # -- fast-direction (periodic) operators --------------------------------

    def apply_y_diffusion(self, u: FloatArray) -> FloatArray:
        """Flux-form periodic diffusion in y at frozen x: d/dy(a d/dy u)."""
        padded = self._padded(self._checked(u, (self.nx, self.ny), "micro field"), None)
        flux = self._y_weights * np.diff(padded[1:-1], axis=1) / self.dy**2  # at j - 1/2
        return np.diff(flux, axis=1)

    def _bordered_matrix(self):
        """``K(0) = [[-Ly, B], [B^T, 0]]`` as CSC, one (ny+1)-block per distinct slice.

        Node column j of a block holds rows j-1, j, j+1 (mod ny) with the
        flux weights -a_{j-1/2}, a_{j-1/2} + a_{j+1/2}, -a_{j+1/2}, then the
        block's border row; the border column holds the ny node rows.  With
        each border next to its block the LU has no fill between blocks.
        Also returns the data positions of the node diagonal.
        """
        m, n = self._blocks, self.ny
        ay = self.tables.y_interfaces[:m] / self.dy**2
        j = np.arange(n)
        rows = np.column_stack([(j - 1) % n, j, (j + 1) % n, np.full(n, n)]).ravel()
        rows = np.append(rows, j) + (n + 1) * np.arange(m)[:, None]
        weights = np.stack([-ay[:, j - 1], ay[:, j - 1] + ay, -ay, np.ones((m, n))], axis=-1)
        data = np.concatenate([weights.reshape(m, 4 * n), np.ones((m, n))], axis=1)
        indptr = np.append(np.arange(0, 4 * n + 1, 4) + 5 * n * np.arange(m)[:, None], 5 * m * n)
        size = m * (n + 1)
        matrix = sp.csc_matrix((data.ravel(), rows.ravel(), indptr), shape=(size, size))
        matrix.sort_indices()  # splu would sort the shared index array in place
        columns = np.repeat(np.arange(size), np.diff(matrix.indptr))
        return matrix, np.flatnonzero(matrix.indices == columns)

    def _factor(self, s: float):
        """Cached sparse LU of ``K(s)``: ``K(0)`` with s added on the node diagonal.

        The blocks are banded apart from their corners and border, so the
        natural column order gives less fill than the default one.
        """
        if s not in self._factors:
            k = self._bordered
            data = k.data.copy()
            data[self._diagonal] += s
            matrix = sp.csc_matrix((data, k.indices, k.indptr), shape=k.shape)
            self._factors[s] = splu(matrix, permc_spec="NATURAL")
        return self._factors[s]

    def solve_bordered(self, rhs: FloatArray, s: float) -> FloatArray:
        """Mean-free ``w`` with ``(s*I - Ly) w = rhs - mean(rhs)`` per slice, s >= 0.

        One solve with ``K(s)``: the Lagrange multiplier of each slice takes
        the slice mean of ``rhs`` and the border row holds the sum of ``w``
        at zero.  The columns are built in the Fortran order ``SuperLU`` copies
        without a transpose.  The shapes are not checked.
        """
        m, n = self._blocks, self.ny
        k = self.nx // m  # right-hand side columns: the slices sharing a block
        columns = np.zeros((k, m, n + 1))
        columns[:, :, :n] = rhs.reshape(m, k, n).transpose(1, 0, 2)
        w = self._factor(s).solve(columns.reshape(k, m * (n + 1)).T).T.reshape(k, m, n + 1)
        return w[:, :, :n].transpose(1, 0, 2).reshape(self.nx, n)

    def solve_y_diffusion(self, rhs: FloatArray) -> FloatArray:
        """Solve the singular periodic y-diffusion problem per slice.

        The right-hand side must have (numerically) zero y-average per
        slice; the solution, the s = 0 bordered solve negated, has zero
        y-average.
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
        return -self.solve_bordered(rhs, 0.0)

    def solve_shifted(self, rhs: FloatArray, c: float) -> FloatArray:
        """Solve ``(I - c * Ly) w = rhs`` per slice for c >= 0.

        The slice means pass through unchanged; the rest is the bordered
        solve with ``s = 1/c``.
        """
        rhs = self._checked(rhs, (self.nx, self.ny), "right-hand side")
        c = float(c)
        if not np.isfinite(c) or c < 0.0:
            raise ValueError(f"shift must be finite and non-negative, got {c}")
        s = 1.0 / c if c > 0.0 else np.inf
        if s == np.inf:  # c = 0, or so small that 1/c overflows: the identity
            return rhs.copy()
        return rhs.mean(axis=-1, keepdims=True) + self.solve_bordered(s * rhs, s)

    # -- slow-direction and mixed operators ----------------------------------

    def apply_x_diffusion(self, u: FloatArray, bc=None) -> FloatArray:
        """Flux-form diffusion in x: d/dx(a d/dx u), Dirichlet walls via ghosts.

        Macro input is broadcast across the fast axis; the result is always
        a micro field because the coefficient varies in y.
        """
        return self._x_diffusion(self._padded(u, bc))

    def _x_diffusion(self, padded: FloatArray) -> FloatArray:
        flux = self._x_flux(padded[:, 1:-1])
        return flux[1:] - flux[:-1]

    def _y_averaged_x_diffusion(self, u: FloatArray, bc) -> FloatArray:
        """``y_average(apply_x_diffusion(u, bc))`` of a micro field, padded in x only.

        The flux is averaged before it is differenced.  The shape is not checked.
        """
        flux = y_average(self._x_flux(self._x_padded(u, bc)))
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
        return self._mixed(self._padded(u, bc))[0]

    def _coupling(self, macro, micro, bc, eps: float) -> tuple[FloatArray, FloatArray]:
        """``Mixed(u) + eps * Xdiff(u)`` for ``u = macro + micro``, padded once.

        Also returns the mixed block's y-average (see :meth:`_mixed`).  The
        shapes are not checked.
        """
        padded = self._padded(micro + macro[:, None], bc)
        out, mixed_average = self._mixed(padded)
        out += eps * self._x_diffusion(padded)
        return out, mixed_average

    @cached_property
    def _effective_coefficients(self) -> tuple[FloatArray, FloatArray]:
        """``abar`` and ``beta`` as columns; the (nx, ny) corrector is not kept.

        ``Ly chi = g`` is the discrete cell problem with the sign of its
        data flipped, so ``chi`` is minus the closed-form cell corrector.
        """
        chi = -_cell_corrector(1.0 / self.tables.y_interfaces, self.ymesh)
        beta = y_average(self._centre_y_flux(self._padded(chi, None)))
        return y_average(self.tables.x_interfaces)[:, None], beta[:, None]

    def _effective_parts(self, columns: FloatArray, bc) -> tuple[FloatArray, FloatArray]:
        """Diffusion and drift of the effective stencil on macro columns (nx, k).

        The diffusion ``diff(abar * diff(p))/dx**2`` of the ghost-padded
        columns ``p`` is also the y-average of ``apply_x_diffusion`` of a
        macro field.  Walls are scalars or length-k arrays; shapes are not
        checked.
        """
        abar, beta = self._effective_coefficients
        p = self._x_padded(columns, bc)
        d = (p[2:] - p[:-2]) / (2.0 * self.dx)
        flux = abar * (p[1:] - p[:-1])
        return (flux[1:] - flux[:-1]) / self.dx**2, _x_gradient(beta * d, self.dx)

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
        bc = (0.0, 0.0) if bc is None else (float(bc[0]), float(bc[1]))
        diffusion, drift = self._effective_parts(macro[:, None], bc)
        return (diffusion - drift)[:, 0]
