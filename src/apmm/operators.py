"""Finite-volume operator blocks on the tensor (x, y) grid.

Fields come in two layouts: macro arrays of shape (nx,) on the spatial cell
centres, and micro arrays of shape (nx, ny) whose fast axis is periodic.
All operators act slice-by-slice in x and vectorise over the batch.

Every stencil reads a contiguous (nx+2, ny) copy of its field whose ghost
rows ``u_ghost = 2*u_wall - u_first`` carry the Dirichlet wall data: its
rows are the x-neighbours and its flat slices shifted by one entry the
y-neighbours, the columns where the shift wraps patched to the periodic
ones, so every operand is contiguous and the (nx, ny) tables fit as they are;
the stencils write into buffers their caller passes, none of their own.
The one periodic solve in y, ``GridOperators._factor``, returns the
mean-free ``w`` with ``(s*I - Ly) w = rhs - mean(rhs)`` per slice; ``s >= 0``
is the inverse of the time-step shift, so it stays finite as the shift grows
without bound.
``T(s)``, ``s*I - Ly`` with the periodic link ``c`` dropped from its two
corners, is SPD for every s >= 0; the distinct slices (one in all when the
coefficient does not depend on x) make one tridiagonal, factored by LAPACK
once per s, and the slices sharing a block are the columns of one
right-hand side.  With ``V = [e_0, e_{ny-1}, 1]`` and ``sigma`` the slice
mean of ``a/dy**2``, ``A = s*I - Ly + (sigma/ny) 1 1^T = T + V M V^T`` is
SPD and equals ``s*I - Ly`` on mean-free data (``1^T Ly = 0``), so the
Woodbury identity gives ``w = R(s) rhs = (I - Z V^T) T^{-1} rhs`` with an
(ny, 3) ``Z`` per block that also removes the slice mean: no node pinning,
and no singular matrix at s = 0.  With one block, an emm step's whole fast
update is three products of its padded ``[G | F]`` with the step's matrices,
and one per wall row with blocks the solver folds from them.
The effective operator is one band, assembled once from the closed-form cell
corrector and applied by BLAS to ``[left wall, macro field, right wall]``.
Nothing here depends on a step size: a stepper builds the fast solve, the
step's matrices and the band with its stiffness blend for each step size, and
the x-dependent step's kernel holds the stencils' buffers (``_coupling``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import daxpy, dgemv
from scipy.linalg.lapack import dpttrf, dpttrs

from .homogenization import _x_differences
from .mesh import FloatArray
from .problem import CoefficientTables

# the step matrices' parts of E, O and C (see GridOperators._step_matrices)
_PARTS = np.array([[1.0, -1.0, 0.0], [-2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
# C's sums' weights and the band offsets of E, O and C, held so that no step size rebuilds them
_C_SUMS, _SHIFTS = _PARTS[:, 1:2] + _PARTS[:, 2:], np.array([[0], [1], [-1]])
# the effective band's one-sided wall rows: q's (q0, q1, q2) at storage columns 1 to 3 and -2 to
# -4 weigh (-3 q0, 3 q1, 3 q0 - q2, -3 q1, q2) at [4, 0] up to [0, 4] and [2, -1] down to [6, -5]
_ONE_SIDED = np.array([[-3, 0, 3, 0, 0], [0, 3, 0, -3, 0], [0, 0, -1, 0, 1]], dtype=float)
_ONE_SIDED_ROWS = np.array([[4, 3, 2, 1, 0], [2, 3, 4, 5, 6]])
_ONE_SIDED_COLUMNS = np.array([[0, 1, 2, 3, 4], [-1, -2, -3, -4, -5]])
# the flat entries of a 3x3 matrix whose products' differences are its cofactors
_I, _J = np.divmod(np.arange(9), 3)
_COFACTORS = 3 * ((_I + [[1], [2], [1], [2]]) % 3) + (_J + [[1], [2], [2], [1]]) % 3


def y_average(u: FloatArray) -> FloatArray:
    """Average over the periodic fast axis (exact trapezoid on equal nodes)."""
    return np.add.reduce(u, axis=-1) / np.shape(u)[-1]  # the bits of u.mean(axis=-1)


class GridOperators:
    """Discrete diffusion blocks bound to one set of coefficient tables.

    Holds only data derived from the tables, the effective band among them,
    and writes none of it after ``__init__``; the operators of a step size are
    built per call and held by the stepper, with the buffers its stencils fill.
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
        self._v = np.ones((self.ny, 3))  # V = [e_0, e_{ny-1}, 1]
        self._v[1:, 0] = self._v[:-1, 1] = 0.0
        self._ones = np.ones(self.ny)  # row sums by BLAS, where their rounding is free
        self._x_sums = np.add.reduce(tables.x_interfaces, axis=-1)  # y-sums of x-interface a,
        self._x_sums[:: self.nx] *= 2.0  # the wall rows doubled by the ghost rule
        self._effective_band = self._assemble_effective()
        if self._blocks == 1:  # dsbmv storage (k = 1) of the differences of :meth:`_jumps`
            self._jump_diffs = np.ones((2, self.nx), order="F")
            self._jump_diffs[1] = -2.0
            self._jump_diffs[1, :: self.nx - 1] = -3.0  # the corners

    # -- helpers ------------------------------------------------------------

    def _padded(self, u: FloatArray, twice, column, p: FloatArray) -> FloatArray:
        """``u + column`` into the (nx+2, ny) buffer p, ghost rows ``twice - first`` per wall."""
        np.copyto(p[1:-1], column)  # broadcast by a copy: a broadcast ufunc operand costs a buffer
        p[1:-1] += u
        np.subtract(twice[0], p[1], out=p[0])
        np.subtract(twice[1], p[-2], out=p[-1])
        return p

    def _centre_y_flux(self, u: FloatArray, out: FloatArray) -> FloatArray:
        """``2*dy * a du/dy`` at the cell centres of contiguous (k, ny) rows u into (k, ny) out."""
        f = u.ravel()
        np.subtract(f[2:], f[:-2], out=out.ravel()[1:-1])
        np.subtract(u[:, 1], u[:, -1], out=out[:, 0])  # the wrapped columns, one call each:
        np.subtract(u[:, 0], u[:, -2], out=out[:, -1])  # as one, numpy buffers them (7.6 KB)
        out *= self.tables.centers[: len(u)]
        return out

    def _mixed(self, p, out, half, work, sums) -> FloatArray:
        """``4*dx*dy`` times the mixed block of a padded field into the ``(nx, ny)`` out, and the
        y-sums of its first term, those of the whole block (the second term's telescope to zero),
        into the ``(nx,)`` sums; ``half`` ``(nx+2, ny)`` and ``work`` ``(nx, ny)`` are scratch."""
        _x_differences(self._centre_y_flux(p[1:-1], work), out)  # 2*dx times the gradient
        dgemv(1.0, out.T, self._ones, 0.0, sums, 0, 1, 0, 1, 1, 1)  # trans, overwrite_y by position
        f, h = p.ravel(), half.ravel()  # 2 * u at the half-nodes j + 1/2
        np.add(f[:-1], f[1:], out=h[:-1])
        np.add(p[:, -1], p[:, 0], out=half[:, -1])
        flux = np.subtract(half[2:], half[:-2], out=work)  # 4*dx * du/dx there, times a below
        flux *= self.tables.y_interfaces
        # flux_{j+1/2} - flux_{j-1/2}, into the spent rows of the half-node buffer
        g = flux.ravel()
        np.subtract(g[1:], g[:-1], out=h[1 : g.size])
        np.subtract(flux[:, 0], flux[:, -1], out=half[:-2, 0])
        out += half[:-2]
        return out

    def _x_diffusion(self, p: FloatArray, flux: FloatArray, out: FloatArray) -> FloatArray:
        """``dx**2`` times the x-diffusion of a padded field into (nx, ny) out, fluxes in flux."""
        np.multiply(np.subtract(p[1:], p[:-1], out=flux), self.tables.x_interfaces, out=flux)
        return np.subtract(flux[1:], flux[:-1], out=out)

    # -- fast-direction (periodic) operators --------------------------------

    def _factor(self, s: float):
        """The fast solve for the shift s >= 0, built anew per call: a function that
        overwrites its (k*blocks, ny) rows ``rhs``, one per slice (k = 1 unless there is one
        block), with the mean-free ``w``, ``(s*I - Ly) w = rhs - mean(rhs)`` per slice, by
        one ``dpttrs`` with ``T(s)``'s ``dpttrf`` factors and ``w -= Z (V^T w)``; unchecked.

        ``Z = T^{-1} V (M^{-1} + V^T T^{-1} V)^{-1} + 1 q^T`` is Woodbury's correction for
        ``M = [[0, -c, 0], [-c, 0, 0], [0, 0, sigma/ny]]`` plus the mean projection: ``T 1
        = V (c, c, s)``, so with ``q = (c, c, s)/(ny*(s + sigma))`` the term ``1 q^T V^T
        T^{-1} rhs`` is ``1 mean(rhs)/(s + sigma)``, ``A^{-1}`` on the slice mean.  All blocks'
        ``T^{-1} V`` are one three-column ``dpttrs``, ``V^T T^{-1} V`` their end entries and
        sums, the 3x3 inverses cofactors over determinants, and ``Z^T`` one product with them.
        """
        m, n = self._blocks, self.ny
        ay = self.tables.y_interfaces[:m] / self.dy**2  # a_{j+1/2}/dy**2
        link, sigma = ay[:, -1], y_average(ay)
        off = -ay
        off[:, -1] = 0.0  # the periodic link, and the seam between blocks
        d, e, info = dpttrf((s + ay + ay[:, np.arange(n) - 1]).ravel(), off.ravel()[:-1])
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrf failed with info={info}")
        tv = self._v.T.repeat(m, axis=0).reshape(3, m, n)  # V per block, (T^{-1} V)^T in place
        dpttrs(d, e, tv.reshape(3, -1).T, overwrite_b=1)
        sm = np.empty((3, 3, m))  # M^{-1} + V^T T^{-1} V: row, column, block
        sm[:2] = tv[..., :: n - 1].transpose(2, 0, 1)
        np.dot(tv, self._ones, out=sm[2])
        sm[0, 1] = sm[1, 0] = sm[0, 1] - 1.0 / link  # symmetric exactly, not to rounding
        sm[2, 2] += n / sigma
        cof = sm.reshape(9, m)[_COFACTORS]
        cof = cof[0] * cof[1] - cof[2] * cof[3]
        cof /= np.add.reduce(sm[0] * cof[:3])  # the inverse, symmetric as sm is
        k = np.concatenate((link, link, np.full(m, s))).reshape(3, m)  # T 1 = V k, so 1 q^T is
        cof += (k * (k / (n * (s + sigma)))[:, None]).reshape(9, m)  # T^{-1} V k q^T, q k^T here
        zt = cof.T.reshape(m, 3, 3) @ tv.transpose(1, 0, 2)

        def solve(rows: FloatArray, vt_w=None, product=None) -> FloatArray:
            # the slices sharing a block are one column each, one batch row per block; V^T w and
            # Z V^T w into the (rows, 3) vt_w and (m, k, ny) product when given, else fresh ones
            w = dpttrs(d, e, rows.reshape(-1, m * n).T, overwrite_b=1)[0].T.reshape(rows.shape)
            vt_w = np.matmul(w, self._v, out=vt_w).reshape(m, -1, 3)
            w -= np.matmul(vt_w, zt, out=product).reshape(rows.shape)
            return w

        return solve

    def _step_matrices(self, s: float, eps: float) -> FloatArray:
        """The x-uniform step's (4, ny+1, ny+2) ``M``, each block C-ordered: row i of ``[G' | G'
        a_x | S]`` is ``sum_{k<3} U[i+k] M_k`` for the padded ``U = [G | F]`` with ghost rows
        ``2*wall - first``, rows 0 and nx-1 adding ``(U[j] - 3 U[j+1] + 3 U[j+2] - U[j+3]) M_3``
        for j = 0 and nx-2, the third differences of the one-sided wall rows.  The solver folds
        the ghosts and these differences into held blocks, so its wall rows read U's rows 1-3
        and nx-2..nx and the wall data, never a ghost row (see ``MicroMacroSolver``).
        ``G' = R(s) (s*G + eps*(Mixed + eps*Xdiff)(F + G))``; S has the first term's y-sums."""
        t, n = self.tables, self.ny
        c, ay, j = t.centers[0], t.y_interfaces[0], np.arange(n)
        ay_prev, ax = ay[j - 1], t.x_interfaces[0] * (4.0 * self.dy * eps / self.dx)
        # q -> row i: E of p_{i+1} - 2 p_i + p_{i-1}, O of p_{i+1} - p_{i-1}, C the centred
        # y-flux; bands[q, b, j] weighs G's node (j + (0, 1, -1)[b]) % n at node j
        bands = np.zeros((3, 3, n))
        bands[0, 0], bands[1:, 1], bands[2, 2] = ax, c, -c
        bands[1, 0], bands[1, 2] = ay - ay_prev, -c - ay_prev
        bands[1, 1] += ay
        base = np.zeros((3, n + 1, n))
        base[:, (j + _SHIFTS) % n, j] = bands
        base[0, n], base[1, n] = ax - ax[0], 2.0 * bands[1, 0]  # F's row, 0 for a constant a
        rows = np.dot(_PARTS * (eps / (4.0 * self.dx * self.dy)), base.reshape(3, -1))
        rows.reshape(4, n + 1, n)[1].ravel()[: n * n : n + 1] += s  # s*G
        rows = self._factor(s)(rows.reshape(-1, n))  # R^T of every row
        m = np.empty((4, n + 1, n + 2))
        m[..., :n] = rows.reshape(4, n + 1, n)
        m[..., n] = (rows @ t.x_interfaces[0]).reshape(4, n + 1)
        m[..., n + 1] = _C_SUMS * np.dot(base[2], self._ones)  # C's sums
        return m

    # -- slow-direction and mixed operators ----------------------------------

    @staticmethod
    def _jumps(u: FloatArray, out: FloatArray) -> FloatArray:
        """Jumps of u across the x-interfaces into out, ``2*u`` at the walls by the odd ghosts."""
        np.subtract(u[1:], u[:-1], out=out[1:-1])
        np.multiply(u[:: len(u) - 1].T, (2.0, -2.0), out=out[:: len(u)].T)
        return out

    def _coupling(self, macro, micro, twice, eps: float, out, sums, scratch) -> None:
        """``4*dx*dy * (Mixed(u) + eps * Xdiff(u))`` for ``u = macro + micro`` with twice the
        wall data ``twice``, padded once, into the ``(nx, ny)`` out, and the y-sums of the mixed
        block into the ``(nx,)`` sums (see :meth:`_mixed`); ``scratch`` is ``(nx+2, ny)`` padded
        and half-node buffers and an ``(nx, ny)`` work one; unchecked."""
        p, half, work = scratch
        self._mixed(self._padded(micro, twice, macro[:, None], p), out, half, work, sums)
        x_diffusion = self._x_diffusion(p, half[:-1], work).ravel()
        daxpy(x_diffusion, out.ravel(), x_diffusion.size, 4.0 * self.dy * eps / self.dx)  # in place

    def _assemble_effective(self) -> FloatArray:
        """``dgbmv`` storage (kl = 2, ku = 4) of the effective operator ``K`` acting on
        ``[left, u, right]``: the y-averaged x-diffusion minus the y-averaged cross-derivative of
        ``w``, the periodic solve of the fluctuating cross-derivative data ``d * g`` (``d`` the
        centred x-gradient of the padded field ``p``, ``g = (a_{j+1/2} - a_{j-1/2})/dy``).  With
        scalar walls ``w = d * chi`` for the fixed ``chi`` of ``Ly chi = g``, so row i weighs
        ``p_{i-2} .. p_{i+4}`` (``p_m = u_{m-1}``), ``diff(abar * diff(p))/dx**2`` minus
        ``grad(beta * (p_{k+2} - p_k))/(2*dx)``: ``abar`` the y-averaged x-interface coefficient,
        ``beta`` the y-average of ``a * dchi/dy``.  The one-sided rows reach three cells in, the
        ghosts ``2*wall - u`` are folded into the wall columns, and rows past nx-1 weigh nothing;
        a y-profile wall has no such band, its ``w`` not being ``d * chi``."""
        n, m, dx2 = self.nx, self._blocks, self.dx**2
        # chi of Ly chi = g, the cell problem with its data's sign flipped, is -corrector; beta
        # from chi's distinct rows (one for an x-uniform chi)
        flux = self._centre_y_flux(self.tables.hom.chi[:m], np.empty((m, self.ny)))
        beta = -y_average(flux) / (2 * self.dy)
        q = np.concatenate(([0.0], np.broadcast_to(beta / (4 * dx2), n), [0.0]))  # q_-1 = q_nx = 0
        # storage [4 - o, m] holds the weight of p_m in row i = m - o
        k = np.zeros((7, n + 2), order="F")  # as dgbmv reads it: no copy per call
        k[5, :-3] = -q[1:-2]  # minus the centred drift, o = -1, 1, 3
        k[3, 1:-1] = q[:-2] + q[2:]
        k[1, 3:] = -q[2:-1]
        # the one-sided first and last rows (-3 g_0 + 4 g_1 - g_2, mirrored) less the centred
        k[_ONE_SIDED_ROWS, _ONE_SIDED_COLUMNS] += q[_ONE_SIDED_COLUMNS[:, 1:4]] @ _ONE_SIDED
        # fold the drift's ghosts p_0 = 2*left - p_1 (rows 0, 1) and p_{nx+1} = 2*right
        # - p_nx (rows nx-2, nx-1): the columns become [left, u, right]
        k[3:5, 1] -= k[4:6, 0]
        k[4:6, 0] *= 2.0
        k[2:4, -2] -= k[1:3, -1]
        k[1:3, -1] *= 2.0
        self._add_flux(k, 1.0)
        return k

    def _add_flux(self, block: FloatArray, weight: float) -> None:
        """Add ``weight`` times the flux part ``A`` of ``K`` to a band block: ``A =
        diff(abar * diff(p))/dx**2``, its wall rows' doubled y-sums the folded ghosts'."""
        a = weight * self._x_sums / (self.ny * self.dx**2)
        block[4, :-2] += a[:-1]
        block[3, 1:-1] -= a[:-1] + a[1:]
        block[2, 2:] += a[1:]

    def _blended_band(self, weight: float, dt: float) -> FloatArray:
        """``dgbmv`` storage of ``I + dt*((1 - w) K + w A)`` for the stiffness weight ``w``."""
        band = np.multiply(self._effective_band, dt * (1.0 - weight), order="F")
        self._add_flux(band, dt * weight)
        band[3, 1:-1] += 1.0
        return band
