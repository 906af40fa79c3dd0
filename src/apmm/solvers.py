"""Time integrators for the oscillatory diffusion problem.

Three schemes share one explicit finite-volume backbone:

- ``run_reference``: brute force on a fine grid with the coefficient sampled
  along the diagonal y = x/epsilon, the accuracy yardstick;
- ``run_homogenized``: the effective equation with the harmonic-average
  coefficient plus the first-order two-scale corrector at the final time;
- ``MicroMacroSolver`` / ``run_micro_macro``: the stiff two-scale splitting
  scheme whose micro part is integrated implicitly in the fast direction.

All schemes use a fixed step dt = dt_factor * dx**2 with the final step
shortened to land exactly on t_end, and abort with ``StabilityError`` when a
field stops being finite.  The explicit runs without a source are not
stepped: their snapshots are evaluated in the eigenbasis of the step matrix,
which gives the same discrete solution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .homogenization import (
    HomogenizedData,
    build_homogenized,
    first_order_corrector,
    wall_gradients,
)
from .mesh import CellMesh, FloatArray, SpatialMesh, make_cell_mesh, make_spatial_mesh
from .operators import GridOperators, remove_y_average, y_average
from .problem import ConfigError, ProblemSpec, sample_coefficient
from .reconstruct import trig_interpolate

_FINITE_CHECK_EVERY = 256  # step interval of the NaN/Inf scan in the fine loop
_MEAN_DRIFT_TOL = 1e-11
_MODE_TOL = 1e-17  # modes whose gain by the first snapshot is below this are dropped
_MODE_BLOCK = 8  # eigenvectors computed per dstein call


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


def _snapshot_steps(record_times, dt: float, n_steps: int) -> dict[int, float]:
    """Map requested output times to completed-step indices (nearest snap)."""
    chosen: dict[int, float] = {}
    for t in record_times:
        k = int(round(float(t) / dt))
        chosen[min(max(k, 0), n_steps)] = float(t)
    chosen[n_steps] = math.nan  # final state is always recorded
    return chosen


@dataclass(frozen=True)
class MacroResult:
    """Trajectory of a macro-only run: snapshots at the recorded times."""

    mesh: SpatialMesh
    times: FloatArray
    snapshots: FloatArray
    steps: int
    dt: float

    @property
    def final(self) -> FloatArray:
        return self.snapshots[-1]


@dataclass(frozen=True)
class HomogenizedResult(MacroResult):
    corrector: FloatArray  # first-order two-scale corrector at t_end, (nx, ny)
    hom: HomogenizedData


def _growth(mu: FloatArray, powers) -> FloatArray:
    """``(1 + mu)**k`` for every power k (rows) and eigenvalue mu (columns).

    Binary powering of ``mu`` itself, ``(1 + b)**2 - 1 = b * (2 + b)``, so
    ``1 + mu`` is never rounded: near 1 that rounding would cost k ulps.
    """
    k = np.array(powers, dtype=np.int64)[:, None]
    acc = np.zeros((k.shape[0], mu.shape[0]))  # (1 + mu)**(bits of k done) - 1
    base = acc + mu
    while k.any():
        acc = np.where(k & 1, acc + base + acc * base, acc)
        base = base * (2.0 + base)
        k = k >> 1
    return 1.0 + acc


def _modal_snapshots(
    u0: FloatArray, a_interfaces: FloatArray, r: float, last_ratio: float,
    n_steps: int, steps: list[int],
) -> FloatArray:
    """Source-free explicit snapshots from the eigenmodes of the step matrix.

    One step is ``u + B u`` with ``B`` the symmetric tridiagonal flux
    difference times ``r = dt/dx**2`` (the odd wall ghosts count the wall
    interfaces twice on the diagonal); the shortened last step is ``u +
    last_ratio * B u``, with the same eigenvectors.  So snapshot k is ``sum
    g_k(mu) (z . u0) z`` over the eigenpairs ``(mu, z)`` of ``B``.  Only the
    modes whose ``|1 + mu|`` keeps a gain above ``_MODE_TOL`` over the fewest
    full steps of any snapshot matter: bisection (``dstebz``) finds them by
    value near ``1 + mu = 1`` and, for dt at the stability bound, near -1,
    and inverse iteration (``dstein``) gives their eigenvectors a block at a
    time, so no n x n matrix is ever formed.
    """
    diag = -r * (a_interfaces[:-1] + a_interfaces[1:])
    diag[0] -= r * a_interfaces[0]
    diag[-1] -= r * a_interfaces[-1]
    off = r * a_interfaces[1:-1]
    full = [min(k, n_steps - 1) for k in steps]  # full steps before each snapshot
    fewest = min(f for f, k in zip(full, steps) if k > 0)
    cut = _MODE_TOL ** (1.0 / fewest) if fewest else 0.0
    snaps = np.zeros((len(steps), u0.shape[0]))
    # the stability bound keeps every mu in [-2, 0]
    for lower, upper in ((cut - 1.0, 1.0), (-3.0, -1.0 - cut)):
        found, mu, block, split, info = dstebz(diag, off, 1, lower, upper, 0, 0, 0.0, b"B")
        if info != 0:
            raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
        for i in range(0, found, _MODE_BLOCK):
            j = min(i + _MODE_BLOCK, found)
            mu_i = mu[i:j]
            # dstein reads the split-off block of each eigenvalue from the
            # front of iblock; that front is spent, so it is overwritten
            block[: j - i] = block[i:j]
            z, info = dstein(diag, off, mu_i, block, split)
            if info != 0:
                raise np.linalg.LinAlgError(f"dstein failed with info={info}")
            gains = _growth(mu_i, full)
            gains[-1] *= 1.0 + last_ratio * mu_i  # the final snapshot is step n_steps
            snaps += (gains * (u0 @ z)) @ z.T
    if steps[0] == 0:
        snaps[0] = u0
    return snaps


def _stepped_snapshots(
    u0: FloatArray, a_interfaces: FloatArray, dx: float, dt: float, t_end: float,
    n_steps: int, steps: list[int], source, centers: FloatArray,
) -> FloatArray:
    """Step the explicit scheme with its source, keeping the listed steps."""
    n = u0.shape[0]
    u = u0.copy()
    padded = np.empty(n + 2)
    flux = np.empty(n + 1)
    update = np.empty(n)
    kept = set(steps)
    snaps: list[FloatArray] = [u.copy()] if 0 in kept else []

    t = 0.0
    for k in range(1, n_steps + 1):
        step_dt = dt if k < n_steps else t_end - (n_steps - 1) * dt
        padded[1:-1] = u
        padded[0] = -u[0]
        padded[-1] = -u[-1]
        np.subtract(padded[1:], padded[:-1], out=flux)
        flux *= a_interfaces
        np.subtract(flux[1:], flux[:-1], out=update)
        update *= step_dt / dx**2
        u += update
        u += step_dt * np.asarray(source(t, centers), dtype=float)
        t = t_end if k == n_steps else k * dt
        if k % _FINITE_CHECK_EVERY == 0 and not np.all(np.isfinite(u)):
            raise StabilityError(f"non-finite field at step {k} (t={t:.6g})")
        if k in kept:
            snaps.append(u.copy())
    return np.array(snaps)


def _explicit_heat_loop(
    u0: FloatArray,
    a_interfaces: FloatArray,
    dx: float,
    dt: float,
    t_end: float,
    source,
    centers: FloatArray,
    record_times,
) -> tuple[FloatArray, FloatArray, int]:
    """Shared explicit flux-form scheme for the reference and effective runs.

    Without a source the recorded states are evaluated in the eigenbasis of
    the step matrix; with one the scheme is stepped.
    """
    n_steps = _step_count(t_end, dt)
    steps = sorted(_snapshot_steps(record_times, dt, n_steps))
    times = np.array([t_end if k == n_steps else k * dt for k in steps])
    if source is None:
        last_ratio = (t_end - (n_steps - 1) * dt) / dt
        snaps = _modal_snapshots(u0, a_interfaces, dt / dx**2, last_ratio, n_steps, steps)
    else:
        snaps = _stepped_snapshots(
            u0, a_interfaces, dx, dt, t_end, n_steps, steps, source, centers
        )
    if not np.all(np.isfinite(snaps[-1])):
        raise StabilityError(f"non-finite field at the final step (t={t_end:.6g})")
    return times, snaps, n_steps


def run_reference(
    problem: ProblemSpec,
    n_cells: int,
    dt_factor: float = 0.05,
    record_times=(),
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
    times, snaps, steps = _explicit_heat_loop(
        u0, a_if, mesh.dx, dt, problem.t_end, problem.source, mesh.centers, record_times
    )
    return MacroResult(mesh=mesh, times=times, snapshots=snaps, steps=steps, dt=dt)


def run_homogenized(
    problem: ProblemSpec,
    hom: HomogenizedData,
    dt_factor: float = 0.2,
    record_times=(),
) -> HomogenizedResult:
    """Explicit run of the effective equation on hom's macro mesh.

    Returns the macro trajectory together with the first-order corrector
    evaluated from the final field.
    """
    mesh = hom.xmesh
    _validate_dt_factor(dt_factor, problem.coefficient.a_max)
    dt = dt_factor * mesh.dx**2
    u0 = np.asarray(problem.initial(mesh.centers), dtype=float)
    times, snaps, steps = _explicit_heat_loop(
        u0, hom.a0_interfaces, mesh.dx, dt, problem.t_end, problem.source,
        mesh.centers, record_times,
    )
    corrector = first_order_corrector(hom, snaps[-1])
    return HomogenizedResult(
        mesh=mesh, times=times, snapshots=snaps, steps=steps, dt=dt,
        corrector=corrector, hom=hom,
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
    xmesh: SpatialMesh
    ymesh: CellMesh
    times: FloatArray
    macro_snapshots: FloatArray  # (n_times, nx)
    micro_snapshots: FloatArray  # (n_times, nx, ny)
    steps: int
    dt: float
    hom: HomogenizedData

    @property
    def final_macro(self) -> FloatArray:
        return self.macro_snapshots[-1]

    @property
    def final_micro(self) -> FloatArray:
        return self.micro_snapshots[-1]


class MicroMacroSolver:
    """Two-scale splitting integrator on a coarse tensor grid.

    One instance fixes the meshes, coefficient tables, cell-problem data,
    the wall corrector traces and the operators (which cache the bordered
    factorizations); ``step`` advances a state by one level.  The implicit
    fast update ``(I - (dt/epsilon**2) Ly) G' = G + (dt/epsilon) r``, with
    ``r`` the fluctuating part of the coupling terms, is multiplied through
    by ``s = (epsilon/dt)*epsilon`` and solved on the mean-free subspace:
    ``(s*I - Ly) G' = s*G + epsilon*r``.  ``s`` underflows to zero without
    error and never overflows, so this one solve holds for every epsilon,
    and at ``s = 0`` it is the singular cell solve, whose ``G'`` is the
    O(epsilon) corrector limit.  The slow update blends the effective
    operator with the plain averaged diffusion through the stiffness weight
    exp(-dt/epsilon**2) (which underflows to zero in the strongly
    oscillatory regime, exactly as the splitting is designed to do), and
    the wall corrector data comes from a companion integration of the
    effective equation.
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
        self.hom = build_homogenized(problem.coefficient, self.xmesh, self.ymesh)
        self.ops = GridOperators(self.tables)
        self.dt = dt_factor * self.xmesh.dx**2
        self.epsilon = problem.epsilon
        # corrector at each wall's own fast coordinate, 0 and (1/epsilon) mod 1
        self._wall_traces = (
            trig_interpolate(self.hom.chi_walls[0], 0.0),
            trig_interpolate(self.hom.chi_walls[1], (1.0 / problem.epsilon) % 1.0),
        )

    def initial_state(self) -> MicroMacroState:
        macro = np.asarray(self.problem.initial(self.xmesh.centers), dtype=float)
        micro = np.zeros((self.xmesh.n_cells, self.ymesh.n_points))
        return MicroMacroState(
            macro=macro, micro=micro, effective=macro.copy(), t=0.0, step=0
        )

    def boundary_data(self, effective: FloatArray):
        """Wall data for the current step, built from the companion field.

        In corrector mode the micro remainder takes the scaled two-scale
        corrector profile at each wall, and the macro value compensates it at
        the wall's own fast coordinate so their sum vanishes where the true
        solution does.  Homogeneous mode zeroes everything (and exhibits a
        wall layer).
        """
        ny = self.ymesh.n_points
        if self.problem.bc_mode == "dirichlet_homogeneous":
            zero = np.zeros(ny)
            return (0.0, 0.0), (zero, zero)
        grad_left, grad_right = wall_gradients(effective, self.xmesh.dx)
        profile_left = self.hom.chi_walls[0] * grad_left
        profile_right = self.hom.chi_walls[1] * grad_right
        eps = self.epsilon
        macro_left = -eps * self._wall_traces[0] * grad_left
        macro_right = -eps * self._wall_traces[1] * grad_right
        return (macro_left, macro_right), (eps * profile_left, eps * profile_right)

    def step(self, state: MicroMacroState, dt: float | None = None) -> MicroMacroState:
        """Advance one level: implicit fast solve, then the slow update."""
        dt = self.dt if dt is None else float(dt)
        eps = self.epsilon
        ops = self.ops
        macro, micro = state.macro, state.micro
        macro_bc, micro_bc = self.boundary_data(state.effective)
        total_bc = (macro_bc[0] + micro_bc[0], macro_bc[1] + micro_bc[1])

        combined = macro[:, None] + micro
        coupled = ops.apply_mixed_derivatives(combined, total_bc)
        coupled += eps * ops.apply_x_diffusion(combined, total_bc)
        s = (eps / dt) * eps
        micro_new = ops.solve_bordered(s * micro + eps * remove_y_average(coupled), s)

        weight = math.exp(-(dt / eps) / eps)
        macro_new = macro + dt * (1.0 - weight) * ops.apply_effective(macro, macro_bc)
        if weight > 0.0:
            macro_new += dt * weight * y_average(ops.apply_x_diffusion(macro, macro_bc))
            macro_new += (dt * weight / eps) * y_average(
                ops.apply_mixed_derivatives(micro, micro_bc)
            )
        macro_new += dt * y_average(ops.apply_x_diffusion(micro_new, micro_bc))
        source = self.problem.source_at(state.t, self.xmesh.centers)
        if source is not None:
            macro_new += dt * source

        effective_new = state.effective + dt * ops.apply_effective(state.effective)
        if source is not None:
            effective_new += dt * source

        t_new = state.t + dt
        if not (np.all(np.isfinite(macro_new)) and np.all(np.isfinite(micro_new))):
            raise StabilityError(
                f"non-finite field at step {state.step + 1} (t={t_new:.6g})"
            )
        scale = float(np.max(np.abs(micro_new)))
        if scale > 0.0:
            drift = float(np.max(np.abs(micro_new.mean(axis=-1))))
            if drift > _MEAN_DRIFT_TOL * scale:
                raise StabilityError(
                    f"fast-average drift {drift:.3e} exceeds {_MEAN_DRIFT_TOL:g} "
                    f"* max|micro| at step {state.step + 1}"
                )
        return MicroMacroState(
            macro=macro_new,
            micro=micro_new,
            effective=effective_new,
            t=t_new,
            step=state.step + 1,
        )

    def run(self, record_times=(), n_steps: int | None = None) -> MicroMacroResult:
        """Iterate to t_end (or for exactly n_steps full steps when given)."""
        if n_steps is None:
            total = _step_count(self.problem.t_end, self.dt)
            last_dt = self.problem.t_end - (total - 1) * self.dt
        else:
            total = int(n_steps)
            if total < 1:
                raise ValueError(f"n_steps must be >= 1, got {n_steps}")
            last_dt = self.dt
        record = _snapshot_steps(record_times, self.dt, total)

        state = self.initial_state()
        times: list[float] = []
        macro_snaps: list[FloatArray] = []
        micro_snaps: list[FloatArray] = []
        if 0 in record:
            times.append(0.0)
            macro_snaps.append(state.macro.copy())
            micro_snaps.append(state.micro.copy())
        for k in range(1, total + 1):
            state = self.step(state, dt=last_dt if k == total else None)
            if k in record:
                times.append(state.t)
                macro_snaps.append(state.macro.copy())
                micro_snaps.append(state.micro.copy())
        return MicroMacroResult(
            xmesh=self.xmesh,
            ymesh=self.ymesh,
            times=np.array(times),
            macro_snapshots=np.array(macro_snaps),
            micro_snapshots=np.array(micro_snaps),
            steps=total,
            dt=self.dt,
            hom=self.hom,
        )


def run_micro_macro(
    problem: ProblemSpec,
    n_x: int,
    n_y: int,
    dt_factor: float = 0.2,
    record_times=(),
    n_steps: int | None = None,
) -> MicroMacroResult:
    """Convenience wrapper: build a MicroMacroSolver and run it."""
    solver = MicroMacroSolver(problem, n_x, n_y, dt_factor=dt_factor)
    return solver.run(record_times=record_times, n_steps=n_steps)
