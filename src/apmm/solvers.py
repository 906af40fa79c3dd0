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
runs are not stepped: their final state, a polynomial of the step matrix
applied to the initial data, comes from a rational Krylov projection.
Trajectories of the splitting scheme come from
``MicroMacroSolver.initial_state`` and ``step``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, dgbmv, dgemm, dger, dnrm2, dsbmv
from scipy.linalg.lapack import dpttrf, dpttrs

from .homogenization import first_order_corrector, wall_gradients
from .mesh import CellMesh, FloatArray, SpatialMesh, make_cell_mesh, make_spatial_mesh
from .operators import GridOperators, y_average
from .problem import ConfigError, HomogenizedData, ProblemSpec, sample_coefficient
from .reconstruct import fast_coordinate, trig_interpolate

_MEAN_DRIFT_TOL = 1e-11
_MODE_TOL = 1e-17  # a gain over the full steps below this is none: no second pole for it
_KRYLOV_TOL = 1e-11  # settling tolerance of the projection, a share of the final state's norm
_ROUNDING_LIFT = 7.4e-9  # 100 times the largest lift of max|u0| measured, 7.4e-11
_THIRD_DIFFERENCE = np.array([1.0, -3.0, 3.0, -1.0])  # an array: a tuple costs numpy 3 us


class StabilityError(RuntimeError):
    """An explicit time loop produced non-finite values."""


def _validate_dt_factor(dt_factor: float, a_max: float) -> None:
    if not dt_factor > 0.0:  # also true for nan
        raise ConfigError(f"dt_factor must be positive, got {dt_factor}")
    limit = 1.0 / (2.0 * a_max)
    if not dt_factor <= limit * (1.0 + 1e-12):
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


def _explicit_heat_loop(
    u0: FloatArray, a_interfaces: FloatArray, dx: float, dt: float, t_end: float
) -> tuple[FloatArray, int]:
    """Final state and step count of the explicit flux-form scheme shared by
    the reference and effective runs, from a rational Krylov projection.

    One step is ``u + B u`` with ``B`` the symmetric tridiagonal flux
    difference times ``r = dt/dx**2`` (the odd wall ghosts count the wall
    interfaces twice on the diagonal), the shortened last one ``u + last_ratio
    * B u``: the final state is ``f(B) u0``, ``f(mu) = (1 + mu)**(n - 1) (1 +
    last_ratio*mu)``.  The basis V grows by solves with ``I - gamma*B``,
    alternating with ``(1 + 2 gamma) I + gamma*B`` when a mode near -2 can keep
    a gain; Rayleigh-Ritz with ``B`` gives the pairs (theta, s), and the final
    state is ``|u0| V s f(theta) s[0]``, evaluated once from the coordinates the
    last check accepted.  Slow pairs, whose gains n - 1 times theta's rounding
    would blur, take theta from the Rayleigh quotient over the jumps of their
    Ritz vectors, free of cancellation.  Overwrites u0.
    """
    if not np.all(np.isfinite(u0)):  # before numpy warns on inf - inf
        raise StabilityError("non-finite initial data")
    n_steps = _step_count(t_end, dt)
    last_ratio = (t_end - (n_steps - 1) * dt) / dt
    peak = np.max(np.abs(u0))
    if peak == 0.0:
        return np.zeros(u0.shape[0]), n_steps
    # f(B) is linear: evaluate it on u0 / 2**shift, whose max is in [1, 2), so that the
    # norm neither overflows nor loses subnormal digits, and scale back exactly
    shift = math.frexp(peak)[1] - 1
    np.ldexp(u0, -shift, out=u0)  # in place: a copy would be alive at the basis' peak
    full, n, norm = n_steps - 1, u0.shape[0], dnrm2(u0)
    flux = (dt / dx**2) * a_interfaces
    diag = -(flux[:-1] + flux[1:])
    diag[[0, -1]] -= flux[[0, -1]]
    weights = -flux  # B's quadratic form per squared jump; the odd ghosts double the wall jumps
    weights[[0, -1]] *= 0.5
    bound = 2.0 * np.max(flux[:-1] + flux[1:])  # Gershgorin: every mu >= -bound
    gamma = 0.1 * n_steps
    poles = [dpttrf(1.0 - gamma * diag, -gamma * flux[1:-1])[:2]]
    if not full or abs(1.0 - bound) > _MODE_TOL ** (1.0 / full):  # a mode near -2 keeps a gain
        poles.append(dpttrf(1.0 + 2.0 * gamma + gamma * diag, gamma * flux[1:-1])[:2])

    jumps = np.empty(n + 1)

    def jumps_of(v):  # of the ghost-padded v, in the shared buffer
        np.subtract(v[1:], v[:-1], out=jumps[1:-1])
        jumps[0], jumps[-1] = 2.0 * v[0], -2.0 * v[-1]
        return jumps

    def gains(mu):  # f(mu); |1 + mu| from log1p of mu or, below -1, of -2 - mu (exact)
        x = np.maximum(np.where(mu < -1.0, -2.0 - mu, mu), 2.0**-53 - 1.0)  # log1p(-1) warns
        power = np.exp(full * np.log1p(x))
        return np.where((mu < -1.0) & (full % 2 == 1), -power, power) * (1.0 + last_ratio * mu)

    basis = np.empty((4, n))  # grown in place, four rows at a time
    basis[0] = u0 / norm
    proj, prev = np.zeros((64, 64)), np.zeros(64)  # V^T B V, the coordinates at the last check
    last = best = math.inf  # the last move, and the least that halved the one before
    stalls = m = 0
    while True:
        proj[: m + 1, m] = basis[: m + 1] @ np.diff(flux * jumps_of(basis[m]))
        proj[m, :m] = proj[:m, m]
        m += 1
        w = dpttrs(*poles[(m - 1) % len(poles)], basis[m - 1])[0]
        h = basis[:m] @ w  # classical Gram-Schmidt, twice
        w -= h @ basis[:m]
        w -= (basis[:m] @ w) @ basis[:m]
        step = dnrm2(w)
        invariant = m == n or step <= 1e-15 * dnrm2(h)  # V spans an invariant space: exact
        if m % 2 == 0 or invariant:
            theta, s = np.linalg.eigh(proj[:m, :m])
            parts = gains(theta) * s[0]  # f(theta) (V s . u0) / |u0|
            size = dnrm2(parts)
            # slow pairs: theta and the residual rho from their Ritz vectors
            blur = full * 2.0**-53 * np.max(np.abs(theta)) * np.abs(parts)
            slow = np.flatnonzero(blur * math.sqrt(m) > 0.5 * _KRYLOV_TOL * size)
            rho = np.zeros(slow.size)
            for k, i in enumerate(slow):
                vector = s[:, i] @ basis[:m]
                theta[i] = weights @ jumps_of(vector) ** 2
                rho[k] = dnrm2(np.diff(flux * jumps) - theta[i] * vector)  # the same jumps
            parts[slow] = gains(theta[slow]) * s[0, slow]
            coords = s @ parts  # of f(B) u0 / |u0| in the basis
            moved = dnrm2(coords - prev[:m]) / size if size else 0.0  # of the coordinates' norm
            best, stalls = (moved, 0) if moved < 0.5 * best else (best, stalls + 1)
            if invariant or stalls >= 3 and best <= 1e-6:  # stuck at the eigenproblem's rounding
                break
            # settled: the move and the next one, extrapolated, are below the tolerance,
            # and the slow residuals bound the gains' errors, (n - 1) rho**2 / gap, as tightly
            if moved <= _KRYLOV_TOL and moved**2 <= _KRYLOV_TOL * last:
                edges = np.concatenate(([-np.inf], theta, [np.inf]))
                gap = np.minimum(theta[slow] - edges[slow], edges[slow + 2] - theta[slow])
                if np.all(full * rho**2 * np.abs(parts[slow]) <= _KRYLOV_TOL * size * gap):
                    break
            prev[:m], last = coords, moved
        if m == basis.shape[0]:  # no view of the basis is alive here
            basis.resize((min(m + 4, n), n), refcheck=False)
        if m == proj.shape[0]:
            proj, prev = np.pad(proj, (0, m)), np.pad(prev, (0, m))
        basis[m] = w / step
    final = (norm * coords) @ basis[:m]
    # a validated dt makes every step non-expansive in the max norm: cap rounding past max|u0|
    top = math.ldexp(peak, -shift)
    np.clip(final, -top, top, out=final, where=np.abs(final) <= top * (1.0 + _ROUNDING_LIFT))
    with np.errstate(over="ignore"):  # reported below
        np.ldexp(final, shift, out=final)
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
    a_if = np.asarray(a(x_if, fast_coordinate(x_if, problem.epsilon)), dtype=float)
    dt = dt_factor * mesh.dx**2
    u0 = np.array(problem.initial(mesh.centers), dtype=float)  # overwritten by the loop
    final, steps = _explicit_heat_loop(u0, a_if, mesh.dx, dt, problem.t_end)
    return MacroResult(mesh=mesh, final=final, steps=steps, dt=dt)


def run_homogenized(
    problem: ProblemSpec,
    hom: HomogenizedData,
    dt_factor: float = 0.2,
) -> HomogenizedResult:
    """Explicit run of the effective equation on hom's macro mesh.

    Returns the final macro field together with the first-order corrector
    evaluated from it; a corrector that overflows is a StabilityError.
    """
    mesh = hom.xmesh
    _validate_dt_factor(dt_factor, problem.coefficient.a_max)
    dt = dt_factor * mesh.dx**2
    u0 = np.array(problem.initial(mesh.centers), dtype=float)  # overwritten by the loop
    final, steps = _explicit_heat_loop(u0, hom.a0_interfaces, mesh.dx, dt, problem.t_end)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        corrector = first_order_corrector(hom, final)
    if not np.all(np.isfinite(corrector)):
        raise StabilityError("non-finite corrector: the final macro gradient overflows")
    return HomogenizedResult(mesh=mesh, final=final, steps=steps, dt=dt, corrector=corrector)


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
    the wall corrector traces and the operators, and holds the step
    operators of the latest step size only, dropped when ``run`` ends;
    ``step`` advances a state by one level.  The implicit
    fast update ``(I - (dt/epsilon**2) Ly) G' = G + (dt/epsilon) r``, with
    ``r`` the fluctuating part of the coupling terms, is multiplied through
    by ``s = (epsilon/dt)*epsilon`` and solved on the mean-free subspace:
    ``(s*I - Ly) G' = s*G + epsilon*r``.  ``s`` underflows to zero without error
    and, as ``step`` takes only a normal dt, never overflows, so this one solve
    holds for every epsilon, and at ``s = 0`` it is the singular cell solve,
    whose ``G'`` is the O(epsilon) corrector limit.  The slow update blends the
    effective operator ``K`` with the plain averaged diffusion through the
    stiffness weight ``w = exp(-dt/epsilon**2)``, which underflows to zero in
    the strongly oscillatory regime, exactly as the splitting is designed to do.
    ``F'`` is one band product per step, of ``I + dt*((1 - w) K + w A)`` (``A`` that plain
    diffusion) with the wall data folded in, on ``[left, F, right]`` (the wall gradients of the
    companion, the effective equation's run), onto ``alpha*dJ + kick*S``: ``dJ`` the
    differences of G's y-summed x-fluxes, ``S`` the mixed block's first-term y-sums and ``kick``
    their weight; dt*K steps the companion.  With an x-uniform coefficient the coupling terms,
    the fast solve, S and the flux sums are three products of the padded ``[G | F]`` with the
    step's matrices; else the coupling terms read flat slices of one padded buffer.  ``run``
    enters numpy's error state once, ``step`` per call.  Over 2**24 steps is a ConfigError.
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
        self.dt = dt_factor * self.xmesh.dx**2
        if not problem.t_end / self.dt <= 2**24:  # about 20 minutes of 64x16 steps
            raise ConfigError(f"t_end={problem.t_end:g} takes over 2**24 steps of dt={self.dt:.3g}")
        self.ymesh = make_cell_mesh(n_y)
        self.tables = sample_coefficient(problem.coefficient, self.xmesh, self.ymesh)
        self.ops = GridOperators(self.tables)
        self.epsilon = eps = float(problem.epsilon)  # a numpy eps would warn as 1/eps**2 overflows
        # wall data per unit companion gradient (none with homogeneous walls): eps*chi for G,
        # minus its value at the wall's fast coordinate for F; twice their sum; G's flux y-sums
        self._wall_profiles = (
            eps * (problem.bc_mode == "dirichlet_corrector") * self.tables.hom.chi_walls
        )
        walls = zip(self._wall_profiles, fast_coordinate(np.array([0.0, 1.0]), eps))
        self._wall_traces = [-trig_interpolate(profile, y) for profile, y in walls]
        self._wall_totals = 2.0 * (self._wall_profiles + np.array(self._wall_traces)[:, None])
        wall_rows = 2.0 * self.tables.x_interfaces[[0, -1]]
        self._wall_sums = np.add.reduce(wall_rows * self._wall_profiles, axis=-1).tolist()
        self._held = None  # the step operators of the latest dt, see _step_operators

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

    def _step_operators(self, dt: float):
        """``(dt, s, kick, fast, band, alpha)`` for dt, built when dt changes: the shift, the
        x-uniform step's matrices or else the fast solve, and the band of ``I + dt*((1 - w) K +
        w A)``, wall columns times the wall traces, plus ``alpha`` G's wall sums (see the class)."""
        if self._held is None or self._held[0] != dt:
            self._held = None  # not held through the next assembly
            eps, ops = self.epsilon, self.ops
            s, weight = (eps / dt) * eps, math.exp(-(dt / eps) / eps)
            fast = ops._step_matrices(s, eps) if ops._blocks == 1 else ops._factor(s)
            band, alpha = ops._blended_band(weight, dt), dt / (ops.ny * ops.dx**2)
            band[:, :: ops.nx + 1] *= self._wall_traces
            band[4, 0] += alpha * self._wall_sums[0]
            band[2, -1] += alpha * self._wall_sums[1]
            kick = dt * weight / eps / (4.0 * ops.dx * ops.dy * ops.ny)
            self._held = (dt, s, kick, fast, band, alpha)
        return self._held

    def step(self, state: MicroMacroState, dt: float | None = None) -> MicroMacroState:
        """Advance one level (by a normal 0 < dt <= self.dt): fast solve, then slow update."""
        with np.errstate(over="ignore", invalid="ignore"):  # the guards report non-finite fields
            return self._advance(state, self.dt if dt is None else float(dt))

    def _advance(self, state: MicroMacroState, dt: float) -> MicroMacroState:
        if not sys.float_info.min <= dt <= self.dt:  # also false for nan
            raise ValueError(f"dt must satisfy 0 < dt <= {self.dt:.6g} and be normal, got {dt}")
        eps, ops, n = self.epsilon, self.ops, self.ops.nx
        macro, micro, effective = state.macro, state.micro, state.effective
        _, s, kick, fast, band, alpha = self._step_operators(dt)  # assembled before U is held
        left, right = wall_gradients(effective, ops.dx)

        if ops._blocks == 1:  # x-uniform: the products of GridOperators._step_matrices
            u = np.empty((n + 2, ops.ny + 1))  # [G | F], ghost rows 2*wall - the first
            u[1:-1, :-1], u[1:-1, -1] = micro, macro
            np.negative(u[1 : n + 1 : n - 1], out=u[:: n + 1])
            daxpy(self._wall_totals[0], u[0, :-1], ops.ny, left)  # in place; n, a by position
            daxpy(self._wall_totals[1], u[-1, :-1], ops.ny, right)
            g = dgemm(1.0, u[:n].T, fast[0], 0.0, None, 1)  # trans_a = 1: contiguous operands
            for k in (1, 2):  # beta = 1, overwrite_c = 1
                dgemm(1.0, u[k : k + n].T, fast[k], 1.0, g, 1, 0, 1)
            g[:: n - 1] += np.dot(np.dot(_THIRD_DIFFERENCE, (u[:4], u[-4:])), fast[3])
            del u  # off the peak of the slow update and the guards
            micro_new, out = g[:, :-2], np.zeros((2, n + 3))  # out: F' and E', see below
            out[0, :n] = g[:, -1]
            # alpha*dJ + kick*S; beta and overwrite_y = 1 by position: keywords cost f2py 1 us
            dsbmv(1, alpha, ops._jump_diffs, g[:, -2], 1, 0, kick, out[0], 1, 0, 0, 1)
        else:
            # 4*dx*dy times the coupling terms, less their slice means by a rank-one update:
            # the fast solve removes them only to rounding, and G' of a y-independent one must be 0
            coupled, first_sums = ops._coupling(macro, micro, self._wall_totals, (left, right), eps)
            dger(-1.0, ops._ones, y_average(coupled), a=coupled.T, overwrite_a=1)
            coupled *= eps / (4.0 * ops.dx * ops.dy)
            daxpy(micro.ravel(), coupled.ravel(), a=s)  # coupled += s * micro, in place
            micro_new = fast(coupled)  # in place
            sums = ops._jumps(micro_new)
            sums = np.dot(np.multiply(sums, ops.tables.x_interfaces, out=sums), ops._ones)
            out = np.zeros((2, n + 3))
            daxpy(np.diff(sums), out[0], a=alpha)  # alpha*dJ + kick*S
            daxpy(first_sums, out[0], a=kick)  # a no-op for kick = 0

        out[1, :n] = effective  # rows n .. n+2 stay 0: scipy's dgbmv takes no m < kl + ku + 1
        x = np.zeros((2, n + 2))  # [left, F, right] for the held band, [0, E, 0] for K
        x[0, 1:-1], x[1, 1:-1] = macro, effective
        x[0, 0], x[0, -1] = left, right
        dgbmv(n + 3, n + 2, 2, 4, 1.0, band, x[0], 1, 0, 1.0, out[0], 1, 0, 0, 1)
        dgbmv(n + 3, n + 2, 2, 4, dt, ops._effective_band, x[1], 1, 0, 1.0, out[1], 1, 0, 0, 1)
        macro_new, effective_new = out[0, :n], out[1, :n]  # basic slices: unpacking costs 1 us

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
            if not 1 <= total <= 2**24:  # the horizon's cap
                raise ConfigError(f"n_steps must be in 1 .. 2**24, got {n_steps}")
            last_dt = self.dt

        state = self.initial_state()
        with np.errstate(over="ignore", invalid="ignore"):  # entered once: it costs 2 us
            for k in range(1, total + 1):
                state = self._advance(state, last_dt if k == total else self.dt)
        self._held = None  # a finished run holds no step operators (memory)
        return MicroMacroResult(  # copies free the buffers F and G share with other fields
            self.xmesh, self.ymesh, state.macro.copy(), np.ascontiguousarray(state.micro),
            total, self.dt, self.tables.hom,
        )


def run_micro_macro(
    problem: ProblemSpec,
    n_x: int,
    n_y: int,
    dt_factor: float = 0.2,
) -> MicroMacroResult:
    """Convenience wrapper: build a MicroMacroSolver and run it to t_end."""
    return MicroMacroSolver(problem, n_x, n_y, dt_factor=dt_factor).run()
