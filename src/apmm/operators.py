"""Finite-volume operator blocks on the tensor (x, y) grid.

Fields come in two layouts: macro arrays of shape (nx,) on the spatial cell
centres, and micro arrays of shape (nx, ny) whose fast axis is periodic.
All operators act slice-by-slice in x and vectorise over the batch.

Every stencil reads a contiguous (nx+2, ny) copy of its field whose ghost
rows ``u_ghost = 2*u_wall - u_first`` carry the Dirichlet wall data: its
rows are the x-neighbours and its flat slices shifted by one entry the
y-neighbours, the columns where the shift wraps patched to the periodic
ones, so every operand is contiguous and the (nx, ny) tables fit as they are.
A stencil is a binder: given buffers its caller owns, it returns a function
that runs it there, each view sliced once into a default argument, its ufuncs
called by name with ``out`` by position (80 ns a call less than ``out=``).
The one periodic solve in y, ``GridOperators._factor``, returns the
mean-free ``w`` with ``(s*I - Ly) w = rhs - mean(rhs)`` per slice; ``s >= 0``
is the inverse of the time-step shift, so it stays finite as the shift grows
without bound.  ``T(s)``, ``s*I - Ly`` less the periodic link ``c`` in its
corners, is SPD for every s >= 0; the distinct slices (one when the
coefficient does not depend on x) make one tridiagonal, factored by LAPACK
once per s, the slices sharing a block the columns of one right-hand side.
With ``V = [e_0, e_{ny-1}, 1]`` and ``sigma`` the slice mean of ``a/dy**2``,
``A = s*I - Ly + (sigma/ny) 1 1^T = T + V M V^T`` is SPD and equals ``s*I -
Ly`` on mean-free data, so Woodbury gives ``w = (I - Z V^T) T^{-1} rhs`` with
an (ny, 3) ``Z`` per block that also removes the slice mean: no node pinning,
and no singular matrix at s = 0.  With one block, an emm step's whole fast
update is three products of its padded ``[G | F]`` with the step's matrices,
and one per wall row with blocks the solver folds from them.
The effective operator is one band, assembled once from the closed-form cell
corrector and applied by BLAS to ``[left wall, macro field, right wall]``.
Nothing here depends on a step size: a stepper builds the fast solve, the
step's matrices and the band with its stiffness blend per step size, and the
x-dependent step's kernel binds the stencils to its buffers.
"""

from __future__ import annotations

import numpy as np
from numpy import add, copyto, matmul, multiply, subtract
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
    built per call and held by the stepper, whose kernel binds the stencils once.
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
        if self._blocks == 1:  # dsbmv storage (k = 1) of the differences of the x-jumps
            self._jump_diffs = np.ones((2, self.nx), order="F")
            self._jump_diffs[1] = -2.0
            self._jump_diffs[1, :: self.nx - 1] = -3.0  # the corners

    # -- helpers ------------------------------------------------------------

    def _padded(self, column, walls, p: FloatArray):
        """A function ``pad(u, left, right)``: ``u + column`` into the (nx+2, ny) buffer p, and the
        ghost rows ``walls[k] * scale - first`` for the wall scales left and right."""
        def pad(u, left, right, inner=p[1:-1], g_l=p[0], u_l=p[1], u_r=p[-2], g_r=p[-1],
                w_l=walls[0], w_r=walls[1], column=column):
            copyto(inner, column)  # broadcast by a copy: a broadcast ufunc operand costs a buffer
            add(inner, u, inner)
            subtract(multiply(w_l, left, g_l), u_l, g_l)
            subtract(multiply(w_r, right, g_r), u_r, g_r)
        return pad

    def _centre_y_flux(self, u: FloatArray, out: FloatArray):
        """A function writing ``2*dy * a du/dy`` at the cell centres of contiguous (k, ny) rows u
        into (k, ny) out, and returning out."""
        def flux(ahead=u.ravel()[2:], behind=u.ravel()[:-2], inner=out.ravel()[1:-1], u0=u[:, 0],
                 u1=u[:, 1], u2=u[:, -2], u3=u[:, -1], o0=out[:, 0], o1=out[:, -1], out=out,
                 a=self.tables.centers[: len(u)]):
            subtract(ahead, behind, inner)
            subtract(u1, u3, o0)  # the wrapped columns, one call each:
            subtract(u0, u2, o1)  # as one, numpy buffers them (7.6 KB)
            return multiply(out, a, out)
        return flux

    def _mixed(self, p, half, work, sums, out):
        """A function writing ``4*dx*dy`` times the mixed block of a padded field p into the (nx,
        ny) out and the y-sums of its first term, those of the whole block (the second term's
        telescope to zero), into sums; ``half`` (nx+2, ny) and ``work`` (nx, ny) are scratch."""
        f, h, g = p.ravel(), half.ravel(), work.ravel()
        def mixed(y_flux=self._centre_y_flux(p[1:-1], work), differences=_x_differences(work, out),
                  behind=f[:-1], ahead=f[1:], nodes=h[:-1], last=p[:, -1], first=p[:, 0],
                  wrapped=half[:, -1], above=half[2:], below=half[:-2], g_ahead=g[1:],
                  g_behind=g[:-1], spent=h[1 : g.size], spent_0=half[:-2, 0], w0=work[:, 0],
                  w1=work[:, -1], out_t=out.T, ones=self._ones, a=self.tables.y_interfaces):
            y_flux()
            differences()  # 2*dx times the gradient
            dgemv(1.0, out_t, ones, 0.0, sums, 0, 1, 0, 1, 1, 1)  # trans, overwrite_y
            add(behind, ahead, nodes)  # 2 * u at the half-nodes j + 1/2
            add(last, first, wrapped)
            subtract(above, below, work)  # 4*dx * du/dx there, times a below
            multiply(work, a, work)
            # flux_{j+1/2} - flux_{j-1/2}, into the spent rows of the half-node buffer
            subtract(g_ahead, g_behind, spent)
            subtract(w0, w1, spent_0)
            return add(out, below, out)
        return mixed

    def _x_diffusion(self, p: FloatArray, flux: FloatArray, out: FloatArray):
        """A function writing ``dx**2`` times the x-diffusion of a padded field p into the (nx, ny)
        out, its fluxes in flux, and returning out."""
        def x_diffusion(up=p[1:], down=p[:-1], ahead=flux[1:], behind=flux[:-1], flux=flux,
                        out=out, a=self.tables.x_interfaces):
            multiply(subtract(up, down, flux), a, flux)
            return subtract(ahead, behind, out)
        return x_diffusion

    # -- fast-direction (periodic) operators --------------------------------

    def _factor(self, s: float):
        """The fast solve for the shift s >= 0, built anew per call: a binder of C-ordered
        (k*blocks, ny) rows ``rhs``, one per slice (k = 1 unless there is one block), to a
        function overwriting them with the mean-free ``w``, ``(s*I - Ly) w = rhs - mean(rhs)``
        per slice, by one ``dpttrs`` with ``T(s)``'s ``dpttrf`` factors and ``w -= Z (V^T w)``,
        and returning them; unchecked.

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

        def bind(rows: FloatArray, vt_w=None, product=None):  # V^T w and Z V^T w into the given
            if vt_w is None:  # (rows, 3) vt_w and (m, k, ny) product, else into fresh ones
                vt_w, product = np.empty((len(rows), 3)), np.empty((m, len(rows) // m, n))
            def solve(columns=rows.reshape(-1, m * n).T, vt_blocks=vt_w.reshape(m, -1, 3),
                      flat=rows.ravel(), correction=product.ravel(), rows=rows, vt_w=vt_w,
                      product=product, v=self._v) -> FloatArray:
                dpttrs(d, e, columns, 1)  # overwrite_b by position: in place, as rows is C-ordered
                matmul(rows, v, vt_w)
                matmul(vt_blocks, zt, product)
                daxpy(correction, flat, flat.size, -1.0)  # w -= Z V^T w, in place
                return rows
            return solve
        return bind

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
        rows = self._factor(s)(rows.reshape(-1, n))()  # R^T of every row
        m = np.empty((4, n + 1, n + 2))
        m[..., :n] = rows.reshape(4, n + 1, n)
        m[..., n] = (rows @ t.x_interfaces[0]).reshape(4, n + 1)
        m[..., n + 1] = _C_SUMS * np.dot(base[2], self._ones)  # C's sums
        return m

    # -- slow-direction and mixed operators ----------------------------------

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
        flux = self._centre_y_flux(self.tables.hom.chi[:m], np.empty((m, self.ny)))()
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
