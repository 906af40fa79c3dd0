"""The test oracle: the ``emm`` split update, and the explicit scheme, written out by hand.

The fused step of :class:`apmm.solvers.MicroMacroSolver` applies held matrices and bands;
the functions here spell out the same update with flux-form stencils on ghost-padded
fields, built on the tables, the effective band and the private kernels of
:class:`apmm.operators.GridOperators`.
"""

import math

import numpy as np
from scipy.linalg.blas import dgbmv

from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, y_average
from apmm.problem import benchmark_coefficient, sample_coefficient
from apmm.reconstruct import _balanced_coefficients


def grid_ops(nx, ny, coeff=None):
    """The operators of ``coeff`` (the benchmark coefficient by default) on an nx x ny grid."""
    coeff = benchmark_coefficient() if coeff is None else coeff
    return GridOperators(sample_coefficient(coeff, make_spatial_mesh(nx), make_cell_mesh(ny)))


def orders(errors):
    """Observed orders of errors on successively halved meshes."""
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def remove_y_average(u):
    """Fluctuating part of a micro field: subtract the per-slice y-average."""
    return u - y_average(u)[..., None]


def checked(u, shape, what):
    """u as a float array, a ``ValueError`` naming ``what`` unless it has the given shape."""
    u = np.asarray(u, dtype=float)
    if u.shape != shape:
        raise ValueError(f"{what} has shape {u.shape}, expected {shape}")
    return u


def apply_effective(ops, macro, bc=None):
    """The effective operator ``K`` of ``ops`` on a macro field with scalar Dirichlet walls
    ``bc`` (``None``: homogeneous): its held band (see ``GridOperators._assemble_effective``)
    applied by ``dgbmv`` to ``[left, macro, right]``.  A y-profile wall raises ``TypeError``:
    the band's ``w = d * chi`` holds for scalar walls only."""
    macro = checked(macro, (ops.nx,), "macro field")
    bc = (0.0, 0.0) if bc is None else (float(bc[0]), float(bc[1]))
    padded = np.concatenate(([bc[0]], macro, [bc[1]]))
    # three zero rows past nx: scipy's dgbmv takes no m < kl + ku + 1 = 7
    return dgbmv(ops.nx + 3, ops.nx + 2, 2, 4, 1.0, ops._effective_band, padded)[:-3]


def _fresh(ops, rows):
    """A fresh ``(nx + rows, ny)`` buffer for the stencils of ``ops`` to write."""
    return np.empty((ops.nx + rows, ops.ny))


def _padded_field(ops, u, bc):
    """``ops._padded`` of a checked macro or micro field with Dirichlet walls ``bc``, in a fresh
    buffer: the wall data ``bc`` scaled by 2, the ghost rows ``2*bc - first``."""
    walls, p = (0.0, 0.0) if bc is None else bc, _fresh(ops, 2)
    if np.ndim(u) == 1:  # a macro field is the column under a zero micro field
        ops._padded(checked(u, (ops.nx,), "macro field")[:, None], walls, p)(0.0, 2.0, 2.0)
    else:
        ops._padded(0.0, walls, p)(checked(u, (ops.nx, ops.ny), "micro field"), 2.0, 2.0)
    return p


def apply_y_diffusion(ops, u):
    """Flux-form periodic diffusion in y at frozen x: d/dy(a d/dy u)."""
    u = checked(u, (ops.nx, ops.ny), "micro field")
    flux = ops.tables.y_interfaces * (np.roll(u, -1, axis=1) - u) / ops.dy**2
    return flux - np.roll(flux, 1, axis=1)


def apply_x_diffusion(ops, u, bc=None):
    """Flux-form diffusion in x: d/dx(a d/dx u), Dirichlet walls ``bc`` (scalars or length-ny
    profiles) via ghosts; a micro field, also of a macro u, as the coefficient varies in y."""
    p = _padded_field(ops, u, bc)
    return ops._x_diffusion(p, _fresh(ops, 1), _fresh(ops, 0))() / ops.dx**2


def apply_mixed_derivatives(ops, u, bc=None):
    """The cross-derivative block d/dx(a d/dy u) + d/dy(a d/dx u): ``a du/dy`` at the centres
    differenced in x, one-sided at the boundary cells, and ``a du/dx`` differenced between the
    periodic half-nodes, whose y-average telescopes to exactly zero."""
    p, out, half, work = _padded_field(ops, u, bc), _fresh(ops, 0), _fresh(ops, 2), _fresh(ops, 0)
    return ops._mixed(p, half, work, np.empty(ops.nx))(out)() / (4.0 * ops.dx * ops.dy)


def checked_fast_solve(ops, rhs, s):
    """The fast solve's contract: mean-free w with (s*I - Ly) w = rhs - mean(rhs)."""
    w = ops._factor(s)(rhs.copy())()  # the solve overwrites its rows
    residual = s * w - apply_y_diffusion(ops, w) - remove_y_average(rhs)
    assert np.max(np.abs(residual)) <= 1e-11 * np.max(np.abs(rhs))
    assert np.max(np.abs(y_average(w))) <= 1e-13 * np.max(np.abs(w))
    return w


def wall_gradients(values, dx):
    """Second-order one-sided gradients at the walls x = 0 and x = 1, from the first and
    last three cell centres (the stencils account for the half-cell offset)."""
    v = np.asarray(values, dtype=float)
    (a, b, c), (x, y, z) = v[:3].tolist(), v[-3:].tolist()  # float arithmetic from here
    return (-2.0 * a + 3.0 * b - c) / dx, (2.0 * z - 3.0 * y + x) / dx


def trig_interpolate(samples, y_star):
    """The trigonometric interpolant of periodic samples on the nodes j/n, n even, at y_star
    (scalar or array), wrapped into [0, 1)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {samples.shape}")
    n = samples.shape[0]
    if n < 4 or n % 2:
        raise ValueError(f"need an even number (>= 4) of periodic samples, got {n}")
    coeffs = _balanced_coefficients(samples)
    y = np.atleast_1d(np.asarray(y_star, dtype=float)) % 1.0
    phases = np.exp(2j * np.pi * y[:, None] * np.arange(n // 2 + 1)[None, :])
    values = (phases @ coeffs).real / n
    if np.ndim(y_star) == 0:
        return float(values[0])
    return values.reshape(np.shape(y_star))


def boundary_data(solver, effective):
    """The step's wall data ``(macro_bc, micro_bc)`` from the companion field: with corrector
    walls the scaled corrector profile, and the macro value that cancels it at the wall's own
    fast coordinate; zeros with homogeneous walls."""
    left, right = wall_gradients(effective, solver.xmesh.dx)
    scale = solver.epsilon * (solver.problem.bc_mode == "dirichlet_corrector")
    traces, profiles = solver._wall_traces, scale * solver.tables.hom.chi_walls
    return (traces[0] * left, traces[1] * right), (profiles[0] * left, profiles[1] * right)


def split_update(solver, state, dt):
    """The new macro, micro and companion fields of the split update by dt; the fast solve
    multiplied through by s = eps**2/dt and the weight exp(-(dt/eps)/eps), as the solver's,
    so that both hold where eps**2 underflows."""
    eps, ops = solver.epsilon, solver.ops
    macro, micro = state.macro, state.micro
    macro_bc, micro_bc = boundary_data(solver, state.effective)
    total_bc = (macro_bc[0] + micro_bc[0], macro_bc[1] + micro_bc[1])
    combined = macro[:, None] + micro
    coupled = apply_mixed_derivatives(ops, combined, total_bc)
    coupled += eps * apply_x_diffusion(ops, combined, total_bc)
    s = (eps / dt) * eps
    g_new = ops._factor(s)(s * micro + eps * remove_y_average(coupled))()
    w = math.exp(-(dt / eps) / eps)
    f_new = (
        macro
        + dt * (1.0 - w) * apply_effective(ops, macro, macro_bc)
        + dt * w * y_average(apply_x_diffusion(ops, macro, macro_bc))
        + (dt * w / eps) * y_average(apply_mixed_derivatives(ops, micro, micro_bc))
        + dt * y_average(apply_x_diffusion(ops, g_new, micro_bc))
    )
    return f_new, g_new, state.effective + dt * apply_effective(ops, state.effective)


def step_by(solver, state, dt):
    """A step of a normal 0 < dt <= solver.dt from ``state`` by the solver's own kernel, as
    ``run`` takes its shortened last step; ``step`` always takes solver.dt."""
    held = solver._load(state)
    solver._advance(held, dt, 1)
    return held


def stepped(u0, a_interfaces, dx, dt, t_end):
    """The explicit flux-form scheme with odd wall ghosts, stepped one level at a time to
    t_end, the last step shortened to land on it: the final field and the step count."""
    n_steps = math.ceil(t_end / dt - 1e-9)
    u = u0
    for k in range(1, n_steps + 1):
        h = dt if k < n_steps else t_end - (n_steps - 1) * dt
        padded = np.concatenate(([-u[0]], u, [-u[-1]]))
        u = u + (h / dx**2) * np.diff(a_interfaces * np.diff(padded))
    return u, n_steps
