"""Time integrators for the oscillatory diffusion problem.

Three schemes share one explicit finite-volume backbone:

- ``run_reference``: brute force on a fine grid with the coefficient sampled
  along the diagonal y = x/epsilon, the accuracy yardstick;
- ``run_homogenized``: the effective equation with the harmonic-average
  coefficient plus the first-order two-scale corrector at the final time;
- ``MicroMacroSolver`` / ``run_micro_macro``: the stiff two-scale splitting
  scheme whose micro part is integrated implicitly in the fast direction.

All schemes use a fixed step dt = dt_factor * dx**2 with the final step
shortened to land exactly on t_end, abort with ``StabilityError`` when a
field stops being finite, and return the final state only.  The explicit
runs are not stepped: their final state is evaluated in the eigenbasis of
the step matrix, which gives the same discrete solution.  Trajectories of
the splitting scheme come from ``MicroMacroSolver.initial_state`` and
``step``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, dger
from scipy.linalg.lapack import dstebz, dstein

from .homogenization import first_order_corrector, wall_gradients
from .mesh import CellMesh, FloatArray, SpatialMesh, make_cell_mesh, make_spatial_mesh
from .operators import GridOperators, y_average
from .problem import ConfigError, HomogenizedData, ProblemSpec, sample_coefficient
from .reconstruct import trig_interpolate

_MEAN_DRIFT_TOL = 1e-11
_MODE_TOL = 1e-17  # modes whose gain over the full steps is below this are dropped
_MODE_BLOCK = 8  # eigenvectors computed per dstein call
_COARSE_TOL = 1e-7  # bisection tolerance per unit width of a window of kept modes
_GAP_SHARE = 1e-4  # the coarse tolerance must be below this share of every gap


class StabilityError(RuntimeError):
    """An explicit time loop produced non-finite values."""


def _validate_dt_factor(dt_factor: float, a_max: float) -> None:
    if dt_factor <= 0.0:
        raise ConfigError(f"dt_factor must be positive, got {dt_factor}")
    limit = 1.0 / (2.0 * a_max)
    if dt_factor > limit * (1.0 + 1e-12):
        raise ConfigError(
            f"dt_factor={dt_factor} violates the diffusion stability bound "
            f"1/(2*a_max) = {limit:.6g}"
        )


def _step_count(t_end: float, dt: float) -> int:
    return max(1, int(math.ceil(t_end / dt - 1e-9)))


@dataclass(frozen=True)
class MacroResult:
    """Final state of a macro-only run."""

    mesh: SpatialMesh
    final: FloatArray
    steps: int
    dt: float


@dataclass(frozen=True)
class HomogenizedResult(MacroResult):
    corrector: FloatArray  # first-order two-scale corrector at t_end, (nx, ny)


def _growth(mu: FloatArray, k: int) -> FloatArray:
    """``(1 + mu)**k`` for every eigenvalue mu.

    Binary powering of ``mu`` itself, ``(1 + b)**2 - 1 = b * (2 + b)``, so
    ``1 + mu`` is never rounded: near 1 that rounding would cost k ulps.
    """
    acc = np.zeros_like(mu)  # (1 + mu)**(bits of k done) - 1
    base = acc + mu
    while k:
        if k & 1:
            acc = acc + base + acc * base
        base = base * (2.0 + base)
        k >>= 1
    return 1.0 + acc


def _explicit_heat_loop(
    u0: FloatArray, a_interfaces: FloatArray, dx: float, dt: float, t_end: float
) -> tuple[FloatArray, int]:
    """Final state and step count of the explicit flux-form scheme shared by
    the reference and effective runs, evaluated from the step matrix's modes.

    One step is ``u + B u`` with ``B`` the symmetric tridiagonal flux
    difference times ``r = dt/dx**2`` (the odd wall ghosts count the wall
    interfaces twice on the diagonal); the shortened last step is ``u +
    last_ratio * B u``.  So the final state is ``sum (1 + mu)**(n - 1) (1 +
    last_ratio*mu) (z . u0) z`` over the eigenpairs ``(mu, z)`` of ``B``
    whose gain stays above ``_MODE_TOL``: near ``1 + mu = 1`` and, at the
    stability bound, near -1.  Bisection (``dstebz``) finds them to
    ``_COARSE_TOL`` times the window's width, or finer where the tolerance
    exceeds ``_GAP_SHARE`` times a gap (also to the window's ends), as the
    vectors of separate ``dstein`` calls are orthogonal only to that extent.
    ``dstein`` gives ``_MODE_BLOCK`` vectors a call, to bound the peak memory,
    and each ``mu`` becomes the Rayleigh quotient ``-r * sum a d**2`` over
    the jumps ``d`` of the ghost-padded ``z``, whose error is quadratic in
    the vector's and free of cancellation, as the power n - 1 needs.
    """
    if not np.all(np.isfinite(u0)):  # before numpy warns on inf - inf
        raise StabilityError("non-finite initial data")
    n_steps = _step_count(t_end, dt)
    last_ratio = (t_end - (n_steps - 1) * dt) / dt
    r = dt / dx**2
    diag = -r * (a_interfaces[:-1] + a_interfaces[1:])
    diag[[0, -1]] -= r * a_interfaces[[0, -1]]
    off = r * a_interfaces[1:-1]
    # B's quadratic form per squared jump; the odd ghosts double the wall jumps
    weights = -r * np.r_[0.5 * a_interfaces[0], a_interfaces[1:-1], 0.5 * a_interfaces[-1]]
    full = n_steps - 1
    cut = _MODE_TOL ** (1.0 / full) if full else 0.0
    final = np.zeros(u0.shape[0])
    # the stability bound keeps every mu in [-2, 0]
    for lower, upper in ((cut - 1.0, 1.0), (-3.0, -1.0 - cut)):
        tol = _COARSE_TOL * (1.0 - cut)
        while True:
            found, mu, block, split, info = dstebz(diag, off, 1, lower, upper, 0, 0, tol, b"B")
            if info != 0:
                raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
            gap = np.min(np.diff(np.sort(np.r_[lower, mu[:found], upper])))
            if tol <= _GAP_SHARE * gap:
                break
            # true gaps exceed gap - 2 tol; tol at least halves; tol <= 0 is full precision
            tol = 0.5 * _GAP_SHARE * (gap - 2.0 * tol)
        for i in range(0, found, _MODE_BLOCK):
            j = min(i + _MODE_BLOCK, found)
            # dstein reads the split-off block of each eigenvalue from the
            # front of iblock; that front is spent, so it is overwritten
            block[: j - i] = block[i:j]
            z, info = dstein(diag, off, mu[i:j], block, split)
            if info != 0:
                raise np.linalg.LinAlgError(f"dstein failed with info={info}")
            jumps = np.diff(np.concatenate((-z[:1], z, -z[-1:])), axis=0)
            mu_i = weights @ (jumps * jumps)
            gains = _growth(mu_i, full) * (1.0 + last_ratio * mu_i)
            final += (gains * (u0 @ z)) @ z.T
    if not np.all(np.isfinite(final)):
        raise StabilityError(f"non-finite field at the final step (t={t_end:.6g})")
    return final, n_steps


def run_reference(
    problem: ProblemSpec,
    n_cells: int,
    dt_factor: float = 0.05,
) -> MacroResult:
    """Fine-grid explicit run with the coefficient frozen along the diagonal.

    The interface coefficient is a(x, (x/epsilon) mod 1) evaluated directly
    at the fine interfaces; the walls take homogeneous Dirichlet ghosts.
    """
    mesh = make_spatial_mesh(n_cells)
    a = problem.coefficient
    _validate_dt_factor(dt_factor, a.a_max)
    needed = 16.0 / problem.epsilon
    if n_cells < needed:
        warnings.warn(
            f"n_cells={n_cells} under-resolves the epsilon={problem.epsilon} "
            f"oscillation (want >= {needed:.0f} cells)",
            stacklevel=2,
        )
    x_if = mesh.interfaces
    a_if = np.asarray(a(x_if, np.mod(x_if / problem.epsilon, 1.0)), dtype=float)
    dt = dt_factor * mesh.dx**2
    u0 = np.asarray(problem.initial(mesh.centers), dtype=float)
    final, steps = _explicit_heat_loop(u0, a_if, mesh.dx, dt, problem.t_end)
    return MacroResult(mesh=mesh, final=final, steps=steps, dt=dt)


def run_homogenized(
    problem: ProblemSpec,
    hom: HomogenizedData,
    dt_factor: float = 0.2,
) -> HomogenizedResult:
    """Explicit run of the effective equation on hom's macro mesh.

    Returns the final macro field together with the first-order corrector
    evaluated from it.
    """
    mesh = hom.xmesh
    _validate_dt_factor(dt_factor, problem.coefficient.a_max)
    dt = dt_factor * mesh.dx**2
    u0 = np.asarray(problem.initial(mesh.centers), dtype=float)
    final, steps = _explicit_heat_loop(u0, hom.a0_interfaces, mesh.dx, dt, problem.t_end)
    return HomogenizedResult(
        mesh=mesh, final=final, steps=steps, dt=dt,
        corrector=first_order_corrector(hom, final),
    )


@dataclass
class MicroMacroState:
    """State of the splitting scheme: slow field, fast remainder, clock.

    ``effective`` is a companion field integrating the plain effective
    equation from the same initial data; it only supplies the wall corrector
    data.  Driving the walls from the splitting's own macro field instead
    would close an O(epsilon/dx) feedback loop through the one-sided wall
    gradient and blow up for epsilon of order one.
    """

    macro: FloatArray
    micro: FloatArray
    effective: FloatArray
    t: float
    step: int


@dataclass(frozen=True)
class MicroMacroResult:
    """Final state of a splitting run."""

    xmesh: SpatialMesh
    ymesh: CellMesh
    final_macro: FloatArray  # (nx,)
    final_micro: FloatArray  # (nx, ny)
    steps: int
    dt: float
    hom: HomogenizedData


class MicroMacroSolver:
    """Two-scale splitting integrator on a coarse tensor grid.

    One instance fixes the meshes, coefficient tables, cell-problem data,
    the wall corrector traces and the operators (which cache the factors
    of the fast solve); ``step`` advances a state by one level.  The implicit
    fast update ``(I - (dt/epsilon**2) Ly) G' = G + (dt/epsilon) r``, with
    ``r`` the fluctuating part of the coupling terms, is multiplied through
    by ``s = (epsilon/dt)*epsilon`` and solved on the mean-free subspace:
    ``(s*I - Ly) G' = s*G + epsilon*r``.  ``s`` underflows to zero without
    error and never overflows, so this one solve holds for every epsilon,
    and at ``s = 0`` it is the singular cell solve, whose ``G'`` is the
    O(epsilon) corrector limit.  The slow update blends the effective
    operator ``K`` with the plain averaged diffusion through the stiffness
    weight ``w = exp(-dt/epsilon**2)``, which underflows to zero in the
    strongly oscillatory regime, exactly as the splitting is designed to do.
    ``K``, one assembled band, acts on ``(1 - w)`` F and on the companion
    field (the effective equation's run that supplies the wall corrector
    data) in one BLAS product; ``w`` F rides with ``G'`` in the y-summed
    x-fluxes.  The coupling terms read flat slices of one padded buffer.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        n_x: int,
        n_y: int,
        dt_factor: float = 0.2,
    ):
        _validate_dt_factor(dt_factor, problem.coefficient.a_max)
        self.problem = problem
        self.xmesh = make_spatial_mesh(n_x)
        self.ymesh = make_cell_mesh(n_y)
        self.tables = sample_coefficient(problem.coefficient, self.xmesh, self.ymesh)
        self.ops = GridOperators(self.tables)
        self.dt = dt_factor * self.xmesh.dx**2
        self.epsilon = eps = float(problem.epsilon)  # a numpy eps would warn as 1/eps**2 overflows
        # wall data per unit companion gradient (none with homogeneous walls): eps*chi for G,
        # minus its value at the wall's fast coordinate for F; twice their sum; G's flux y-sums
        self._wall_profiles = (
            eps * (problem.bc_mode == "dirichlet_corrector") * self.tables.hom.chi_walls
        )
        walls = zip(self._wall_profiles, (0.0, (1.0 / eps) % 1.0))
        self._wall_traces = [-trig_interpolate(profile, y) for profile, y in walls]
        self._wall_totals = 2.0 * (self._wall_profiles + np.array(self._wall_traces)[:, None])
        wall_rows = 2.0 * self.tables.x_interfaces[[0, -1]]
        self._wall_sums = np.add.reduce(wall_rows * self._wall_profiles, axis=-1).tolist()

    def initial_state(self) -> MicroMacroState:
        macro = np.asarray(self.problem.initial(self.xmesh.centers), dtype=float)
        if not np.all(np.isfinite(macro)):  # before numpy warns on inf - inf
            raise StabilityError("non-finite initial data")
        micro = np.zeros((self.xmesh.n_cells, self.ymesh.n_points))
        return MicroMacroState(macro, micro, effective=macro.copy(), t=0.0, step=0)

    def boundary_data(self, effective: FloatArray):
        """Wall data for the current step, built from the companion field.

        In corrector mode the micro remainder takes the scaled two-scale
        corrector profile at each wall, and the macro value compensates it at
        the wall's own fast coordinate so their sum vanishes where the true
        solution does.  Homogeneous mode zeroes everything (and exhibits a
        wall layer).
        """
        left, right = wall_gradients(effective, self.xmesh.dx)
        traces, profiles = self._wall_traces, self._wall_profiles
        return (traces[0] * left, traces[1] * right), (profiles[0] * left, profiles[1] * right)

    def step(self, state: MicroMacroState, dt: float | None = None) -> MicroMacroState:
        """Advance one level (by 0 < dt <= self.dt): implicit fast solve, then the slow update."""
        dt = self.dt if dt is None else float(dt)
        if not 0.0 < dt <= self.dt:  # also false for nan
            raise ValueError(f"dt must satisfy 0 < dt <= {self.dt:.6g}, got {dt}")
        eps, ops, n = self.epsilon, self.ops, self.ops.nx
        macro, micro, effective = state.macro, state.micro, state.effective
        left, right = wall_gradients(effective, ops.dx)
        walls, traces, wall_sums = self._wall_totals, self._wall_traces, self._wall_sums

        # 4*dx*dy times the coupling terms, less their slice means by a rank-one update: the
        # fast solve removes them only to rounding, and G' of a y-independent one must be 0
        coupled, first_sums = ops._coupling(macro, micro, (left * walls[0], right * walls[1]), eps)
        dger(-1.0, ops._ones, y_average(coupled), a=coupled.T, overwrite_a=1)
        coupled *= eps / (4.0 * ops.dx * ops.dy)
        s = (eps / dt) * eps
        daxpy(micro.ravel(), coupled.ravel(), a=s)  # coupled += s * micro, in place
        micro_new = ops.solve_bordered(coupled, s)
        del coupled  # keeps the first step's assembly of the effective band off the peak

        # the band applies K to [wall, F, wall] times 1 - w and to [0, E, 0]
        # at once; the x-flux y-sums of G' and of w * F give the rest
        pair = np.zeros((2, n + 2))
        pair[0, 1:-1], pair[1, 1:-1] = macro, effective
        pair[0, 0], pair[0, -1] = left * traces[0], right * traces[1]
        sums = ops._x_flux_sums(micro_new)
        sums[0] -= left * wall_sums[0]
        sums[-1] += right * wall_sums[1]
        weight, kick = math.exp(-(dt / eps) / eps), 0.0
        if weight > 0.0:
            daxpy(np.multiply(pair[0, 1:] - pair[0, :-1], ops._x_sums), sums, a=weight)
            pair[0] *= 1.0 - weight
            kick = dt * weight / eps / (4.0 * ops.dx * ops.dy * ops.ny)
        out = np.zeros(2 * n + 2)  # F', a gap of two, E'
        macro_new, effective_new = out[:n], out[n + 2 :]
        np.subtract(sums[1:], sums[:-1], out=macro_new)
        macro_new *= dt / (ops.ny * ops.dx**2)
        macro_new += macro
        daxpy(first_sums, macro_new, a=kick)  # a no-op for kick = 0
        effective_new[:] = effective
        ops._effective_pair(pair.ravel(), dt, out)

        t_new = state.t + dt
        # the max of a field is non-finite exactly when some entry is
        scale = np.maximum.reduce(np.abs(micro_new), axis=None)
        if not (math.isfinite(scale) and math.isfinite(np.maximum.reduce(np.abs(macro_new)))):
            raise StabilityError(f"non-finite field at step {state.step + 1} (t={t_new:.6g})")
        mean_drift = np.maximum.reduce(np.abs(np.dot(micro_new, ops._ones))) / ops.ny
        if mean_drift > _MEAN_DRIFT_TOL * scale:
            raise StabilityError(
                f"fast-average drift {mean_drift:.3e} exceeds {_MEAN_DRIFT_TOL:g} "
                f"* max|micro| at step {state.step + 1}"
            )
        return MicroMacroState(macro_new, micro_new, effective_new, t_new, state.step + 1)

    def run(self, n_steps: int | None = None) -> MicroMacroResult:
        """Iterate to t_end (or for exactly n_steps full steps when given)."""
        if n_steps is None:
            total = _step_count(self.problem.t_end, self.dt)
            # not past the step the stability bound allows, for all rounding
            last_dt = min(self.problem.t_end - (total - 1) * self.dt, self.dt)
        else:
            total = int(n_steps)
            if total < 1:
                raise ValueError(f"n_steps must be >= 1, got {n_steps}")
            last_dt = self.dt

        state = self.initial_state()
        for k in range(1, total + 1):
            state = self.step(state, dt=last_dt if k == total else None)
        return MicroMacroResult(  # a copy frees the buffer F shares with the companion
            self.xmesh, self.ymesh, state.macro.copy(), state.micro, total, self.dt, self.tables.hom
        )


def run_micro_macro(
    problem: ProblemSpec,
    n_x: int,
    n_y: int,
    dt_factor: float = 0.2,
) -> MicroMacroResult:
    """Convenience wrapper: build a MicroMacroSolver and run it to t_end."""
    return MicroMacroSolver(problem, n_x, n_y, dt_factor=dt_factor).run()
