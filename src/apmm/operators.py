"""Finite-volume operator blocks on the tensor (x, y) grid.

Fields come in two layouts: macro arrays of shape (nx,) on the spatial cell
centres, and micro arrays of shape (nx, ny) whose fast axis is periodic.
All operators act slice-by-slice in x and vectorise over the batch.

Every stencil reads a padded copy of its field: ghost rows ``u_ghost =
2*u_wall - u_first`` carry the Dirichlet wall data in x, and ghost columns
holding the opposite edge carry the periodic fast axis, so every neighbour
is a slice of the buffer and no stencil uses ``np.roll``; the y-averaged
x-flux of the step's micro field differences straight to the ghost rows.
``apply_y_diffusion`` keeps the flux form, as the reference the solves are
tested against.  Every periodic solve in y returns the mean-free ``w`` with
``(s*I - Ly) w = rhs - mean(rhs)`` per slice; ``s >= 0`` is the inverse of
the time-step shift, so it stays finite as the shift grows without bound.
``T(s)``, ``s*I - Ly`` with the periodic link ``c`` dropped from its two
corners, is SPD for every s >= 0; the distinct slices (one in all when the
coefficient does not depend on x) make one tridiagonal, factored by LAPACK
once per s, and the slices sharing a block are the columns of one
right-hand side.  With ``V = [e_0, e_{ny-1}, 1]`` and ``sigma`` the slice
mean of ``a/dy**2``, ``A = s*I - Ly + (sigma/ny) 1 1^T = T + V M V^T`` is
SPD and equals ``s*I - Ly`` on mean-free data (``1^T Ly = 0``), so the
Woodbury identity gives ``w = (I - Z V^T) T^{-1} rhs`` with a cached
(ny, 3) ``Z`` per block that also removes the slice mean: no node pinning,
and no singular matrix at s = 0.  The effective operator is a 1-D stencil
whose coefficients come from the closed-form cell corrector.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .homogenization import _cell_corrector, _x_gradient
from .mesh import FloatArray
from .problem import CoefficientTables

_MEAN_PRE_TOL = 1e-10


def y_average(u: FloatArray) -> FloatArray:
    """Average over the periodic fast axis (exact trapezoid on equal nodes)."""
    return np.add.reduce(u, axis=-1) / np.shape(u)[-1]  # the bits of u.mean(axis=-1)


def remove_y_average(u: FloatArray) -> FloatArray:
    """Fluctuating part of a micro field: subtract the per-slice y-average."""
    return u - y_average(u)[..., None]


class GridOperators:
    """Discrete diffusion blocks bound to one set of coefficient tables.

    Holds the factors of the fast solves, per shift, and the effective
    coefficients, built on first use, so a time stepper reuses them for the
    whole run.  All ``bc`` arguments are ``(left, right)`` Dirichlet wall
    data: scalars for macro fields, length-ny profiles (or scalars) for
    micro fields; ``None`` means homogeneous walls.
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
        self._factors: dict = {}
        self._v = np.zeros((self.ny, 3))  # V = [e_0, e_{ny-1}, 1]
        self._v[[0, -1], [0, 1]] = 1.0
        self._v[:, 2] = 1.0
        # a_{j-1/2}/(2*dx), j = 0 .. ny, the weights between padded columns, per distinct slice
        self._y_weights = tables.y_interfaces[: self._blocks, np.arange(-1, self.ny)] / self.dx / 2

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
    def _ghost_rows(p: FloatArray, bc) -> None:
        """Fill the Dirichlet ghost rows ``2*wall - first interior`` of an x-padded buffer."""
        left, right = (0.0, 0.0) if bc is None else bc
        np.subtract(np.multiply(2.0, left), p[1], out=p[0])
        np.subtract(np.multiply(2.0, right), p[-2], out=p[-1])

    def _padded(self, u: FloatArray, bc, column=0.0) -> FloatArray:
        """``(nx+2, ny+2)`` buffer of ``u + column``: ghost rows, then periodic ghost columns."""
        p = np.empty((self.nx + 2, self.ny + 2))
        np.add(u, column, out=p[1:-1, 1:-1])
        self._ghost_rows(p[:, 1:-1], bc)
        p[:, 0] = p[:, -2]
        p[:, -1] = p[:, 1]
        return p

    def _centre_y_flux(self, p: FloatArray) -> FloatArray:
        """``2*dy * a du/dy`` at the cell centres of a padded field, by centred differences."""
        return np.multiply(p[1:-1, 2:] - p[1:-1, :-2], self.tables.centers)

    def _mixed(self, p: FloatArray) -> tuple[FloatArray, FloatArray]:
        """``2*dy`` times the mixed block of a padded field, and the y-sums of its
        first term, those of the whole block (the second term's telescope to zero)."""
        out = _x_gradient(self._centre_y_flux(p), self.dx)
        first_sums = np.add.reduce(out, axis=-1)
        half = p[:, :-1] + p[:, 1:]  # 2 * u at the half-nodes j - 1/2, j = 0 .. ny
        flux = half[2:] - half[:-2]  # 4*dx * du/dx there, times a/(2*dx) below
        del half  # the step's memory peak is here: one temporary at a time
        flux *= self._y_weights
        out += flux[:, 1:]
        out -= flux[:, :-1]
        return out, first_sums

    def _x_diffusion(self, p: FloatArray) -> FloatArray:
        """``dx**2`` times the flux-form x-diffusion of a padded field."""
        flux = np.multiply(p[1:, 1:-1] - p[:-1, 1:-1], self.tables.x_interfaces)
        return flux[1:] - flux[:-1]

    # -- fast-direction (periodic) operators --------------------------------

    def apply_y_diffusion(self, u: FloatArray) -> FloatArray:
        """Flux-form periodic diffusion in y at frozen x: d/dy(a d/dy u)."""
        padded = self._padded(self._checked(u, (self.nx, self.ny), "micro field"), None)
        flux = self._y_weights * np.diff(padded[1:-1], axis=1) * (2.0 * self.dx / self.dy**2)
        return np.diff(flux, axis=1)

    def _factor(self, s: float):
        """Cached ``dpttrf`` factors of ``T(s)`` and the (blocks, 3, ny) ``Z^T``.

        ``Z = T^{-1} V (M^{-1} + V^T T^{-1} V)^{-1} + 1 q^T`` is Woodbury's
        correction for ``M = [[0, -c, 0], [-c, 0, 0], [0, 0, sigma/ny]]``
        plus the mean projection: ``T 1 = V (c, c, s)``, so with ``q = (c, c,
        s)/(ny*(s + sigma))`` the term ``1 q^T V^T T^{-1} rhs`` is ``1
        mean(rhs)/(s + sigma)``, ``A^{-1}`` on the slice mean.
        """
        if s not in self._factors:
            m, n = self._blocks, self.ny
            ay = self.tables.y_interfaces[:m] / self.dy**2  # a_{j+1/2}/dy**2
            link, sigma = ay[:, -1], y_average(ay)
            off = -ay
            off[:, -1] = 0.0  # the periodic link, and the seam between blocks
            d, e, info = dpttrf((s + ay + np.roll(ay, 1, axis=1)).ravel(), off.ravel()[:-1])
            if info != 0:
                raise np.linalg.LinAlgError(f"dpttrf failed with info={info}")
            # (T^{-1} V)^T per block, from a Fortran-ordered V per block solved in place
            tvt = dpttrs(d, e, np.tile(self._v.T, m).T, overwrite_b=1)[0].T.reshape(3, m, n)
            tvt = tvt.transpose(1, 0, 2)
            m_inv = np.zeros((m, 3, 3))
            m_inv[:, 0, 1] = m_inv[:, 1, 0] = -1.0 / link
            m_inv[:, 2, 2] = n / sigma
            zt = np.swapaxes(np.linalg.inv(m_inv + tvt @ self._v), 1, 2) @ tvt
            q = np.stack([link, link, np.full(m, s)], axis=1) / (n * (s + sigma))[:, None]
            zt += q[:, :, None]
            self._factors[s] = d, e, zt
        return self._factors[s]

    def solve_bordered(self, rhs: FloatArray, s: float) -> FloatArray:
        """Mean-free ``w`` with ``(s*I - Ly) w = rhs - mean(rhs)`` per slice, s >= 0.

        One ``dpttrs`` with ``T(s)``, then ``w -= Z (V^T w)`` per slice (see
        the module docstring).  The shapes are not checked.
        """
        d, e, zt = self._factor(s)
        # with one block, or one per slice, the reshapes make the slices
        # sharing a block one column each, and one batch row per block
        w = dpttrs(d, e, rhs.reshape(-1, self._blocks * self.ny).T)[0].T.reshape(self.nx, self.ny)
        w -= ((w @ self._v).reshape(self._blocks, -1, 3) @ zt).reshape(self.nx, self.ny)
        return w

    def solve_y_diffusion(self, rhs: FloatArray) -> FloatArray:
        """Solve the singular periodic y-diffusion problem per slice.

        The right-hand side must have (numerically) zero y-average per
        slice; the solution, the s = 0 fast solve negated, has zero
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

        The slice means pass through unchanged; the rest is the fast solve
        with ``s = 1/c``.
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
        return self._x_diffusion(self._padded(self._as_micro(u), bc)) / self.dx**2

    def _y_averaged_x_flux(self, u: FloatArray, bc) -> FloatArray:
        """y-averaged ``a du/dx / dx`` at the x-interfaces of a micro field, unchecked:
        its differences are ``y_average(apply_x_diffusion(u, bc))``.  The wall
        rows difference to the ghost rows directly: ``2*(first - wall)``."""
        d = np.empty((self.nx + 1, self.ny))
        np.subtract(u[1:], u[:-1], out=d[1:-1])
        np.subtract(u[0], bc[0], out=d[0])
        np.subtract(bc[1], u[-1], out=d[-1])
        d[:: self.nx] *= 2.0  # both wall rows
        d *= self.tables.x_interfaces
        return np.add.reduce(d, axis=-1) / (self.ny * self.dx**2)

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
        return self._mixed(self._padded(self._as_micro(u), bc))[0] / (2.0 * self.dy)

    def _coupling(self, macro, micro, bc, eps: float) -> tuple[FloatArray, FloatArray]:
        """``2*dy * (Mixed(u) + eps * Xdiff(u))`` for ``u = macro + micro``, padded
        once, and the y-sums of the mixed block (see :meth:`_mixed`); unchecked."""
        p = self._padded(micro, bc, macro[:, None])
        out, first_sums = self._mixed(p)
        x_diffusion = self._x_diffusion(p)
        x_diffusion *= 2.0 * self.dy * eps / self.dx**2
        out += x_diffusion
        return out, first_sums

    @cached_property
    def _effective_coefficients(self) -> tuple[FloatArray, FloatArray]:
        """``abar/dx**2`` and ``beta/(2*dx)`` as columns; the (nx, ny) corrector is not kept.

        ``Ly chi = g`` is the discrete cell problem with the sign of its
        data flipped, so ``chi`` is minus the closed-form cell corrector.
        """
        chi = -_cell_corrector(1.0 / self.tables.y_interfaces, self.ymesh)
        beta = y_average(self._centre_y_flux(self._padded(chi, None))) / (2.0 * self.dy)
        abar = y_average(self.tables.x_interfaces)
        return (abar / self.dx**2)[:, None], (beta / (2.0 * self.dx))[:, None]

    def _effective_parts(self, columns, bc) -> tuple[FloatArray, FloatArray]:
        """Flux and drift of the effective stencil on k macro fields side by side, with
        ``p`` their ghost-padded (nx+2, k) buffer (scalar or length-k walls): the flux
        differences are ``diff(abar * diff(p))/dx**2``, also the y-average of
        ``apply_x_diffusion`` of a macro field, and the drift is ``grad(beta * d)``."""
        p = np.empty((self.nx + 2, len(columns)))
        p[1:-1] = np.transpose(columns)
        self._ghost_rows(p, bc)
        abar, beta = self._effective_coefficients
        return abar * (p[1:] - p[:-1]), _x_gradient(beta * (p[2:] - p[:-2]), self.dx)

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
        flux, drift = self._effective_parts((macro,), bc)
        return (flux[1:] - flux[:-1] - drift)[:, 0]
