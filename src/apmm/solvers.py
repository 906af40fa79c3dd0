"""Time integrators for the oscillatory diffusion problem.

Three schemes share one explicit finite-volume backbone:

- ``run_reference``: brute force on a fine grid with the coefficient sampled
  along the diagonal y = x/epsilon, the accuracy yardstick;
- ``run_homogenized``: the effective equation with the harmonic-average
  coefficient plus the first-order two-scale corrector at the final time;
- ``MicroMacroSolver``: the stiff two-scale splitting scheme whose micro
  part is integrated implicitly in the fast direction.

All schemes use a fixed step dt = dt_factor * dx**2 with the final step
shortened to land exactly on t_end, abort with ``StabilityError`` when a
field stops being finite, and return the final state only.  The explicit
runs are not stepped: their final state, a polynomial of the step matrix
applied to the initial data, comes from a rational Krylov projection.
A trajectory of the splitting scheme is ``MicroMacroSolver.initial_state``
followed by ``step``s at the solver's one dt, each by ``run``'s kernel driver.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy import multiply, subtract
from scipy.linalg.blas import dasum, daxpy, dgbmv, dgemm, dgemv, dger, dnrm2, dsbmv, dscal
from scipy.linalg.lapack import dpttrf, dpttrs, dsyevd

from .homogenization import first_order_corrector
from .mesh import FloatArray, SpatialMesh, make_cell_mesh, make_spatial_mesh
from .operators import GridOperators
from .problem import ConfigError, HomogenizedData, ProblemSpec, StabilityError, sample_coefficient
from .reconstruct import _balanced_coefficients, fast_coordinate

_MEAN_DRIFT_TOL = 1e-11
_DRIFT_FLOOR = _MEAN_DRIFT_TOL * sys.float_info.min  # subnormal fields round absolutely
_MODE_TOL = 1e-17  # a gain over the full steps below this is none: no second pole for it
_KRYLOV_TOL = 1e-11  # settling tolerance of the projection, a share of the final state's norm
_ROUNDING_LIFT = 7.4e-9  # 100 times the largest lift of max|u0| measured, 7.4e-11
# the x-uniform step's blocks as sums of GridOperators._step_matrices' M_0 .. M_3: M_0, M_1 and
# M_2 for the GEMMs, then those of g's wall row 0 over U's rows 1-3 and of row nx-1 over rows
# nx-2..nx, U's ghost rows 2*wall - first and the third differences folded in; the ghosts' wall
# data weigh M_0 + M_3 (left) and M_2 - M_3 (right)
_FOLD = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 1, 0, -4], [0, 0, 1, 3], [0, 0, 0, -1],
     [0, 0, 0, 1], [1, 0, 0, -3], [0, 1, -1, 4]],
    dtype=float,
)
_GHOSTS = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, -1.0]])
_WALL_JUMPS = np.array([2.0, -2.0])  # the x-jumps of G at the walls per wall value (odd ghosts)


def _exact_guards(micro: FloatArray, macro: FloatArray, ones: FloatArray, step: int, t: float):
    """The ``emm`` step's exact guards on its new fields: a non-finite entry, or a slice mean of
    the micro field above ``_MEAN_DRIFT_TOL * max|micro|`` (and the subnormal floor), raises.
    The step runs them only where its screen fails (see ``MicroMacroSolver._stepper``)."""
    # the max of a field is non-finite exactly when some entry is
    scale = np.maximum.reduce(np.abs(micro), axis=None)
    if not (math.isfinite(scale) and math.isfinite(np.maximum.reduce(np.abs(macro)))):
        raise StabilityError(f"non-finite field at step {step} (t={t:.6g})")
    mean_drift = np.maximum.reduce(np.abs(np.dot(micro, ones))) / ones.size
    if mean_drift > _MEAN_DRIFT_TOL * scale and mean_drift > _DRIFT_FLOOR:
        raise StabilityError(
            f"fast-average drift {mean_drift:.3e} exceeds {_MEAN_DRIFT_TOL:g} "
            f"* max|micro| at step {step}"
        )


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
    Ritz vectors, free of cancellation.  Overwrites u0.  On figure1's reference (2048 cells,
    26 vectors, 13 checks) the solves take about 14 % of a call, the ``B v`` products 15 %,
    Gram-Schmidt 32 % and the checks 32 %, over half of it in ``dsyevd`` (2-core Xeon).
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
        if mu.min() > -1.0:  # the common case, in half the numpy calls
            return np.exp(full * np.log1p(mu)) * (1.0 + last_ratio * mu)
        x = np.maximum(np.where(mu < -1.0, -2.0 - mu, mu), 2.0**-53 - 1.0)  # log1p(-1) warns
        power = np.exp(full * np.log1p(x))
        return np.where((mu < -1.0) & (full % 2 == 1), -power, power) * (1.0 + last_ratio * mu)

    basis = np.empty((4, n))  # grown in place, four rows at a time
    basis[0] = u0 / norm
    proj, prev = np.zeros((64, 64)), np.zeros(64)  # V^T B V (lower), the last check's coordinates
    last = best = math.inf  # the last move, and the least that halved the one before
    stalls = m = 0
    while True:
        np.multiply(flux, jumps_of(basis[m]), out=jumps)  # the fluxes, then B v, in place
        np.subtract(jumps[1:], jumps[:-1], out=jumps[:-1])  # into V^T B V's lower triangle,
        np.dot(basis[: m + 1], jumps[:-1], out=proj[m, : m + 1])  # all that dsyevd reads
        m += 1
        w = dpttrs(*poles[(m - 1) % len(poles)], basis[m - 1])[0]
        h = basis[:m] @ w  # classical Gram-Schmidt, twice
        w -= h @ basis[:m]
        w -= (basis[:m] @ w) @ basis[:m]
        step = dnrm2(w)
        invariant = m == n or step <= 1e-15 * dnrm2(h)  # V spans an invariant space: exact
        if m % 2 == 0 or invariant:
            theta, s, info = dsyevd(proj[:m, :m], lower=1)  # ascending theta
            if info != 0:
                raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
            parts = gains(theta) * s[0]  # f(theta) (V s . u0) / |u0|
            size = dnrm2(parts)
            # slow pairs: theta and the residual rho from their Ritz vectors
            blur = full * 2.0**-53 * max(-theta[0], theta[-1]) * np.abs(parts)
            slow = np.flatnonzero(blur * math.sqrt(m) > 0.5 * _KRYLOV_TOL * size)
            rho = np.zeros(slow.size)
            for k, i in enumerate(slow):
                vector = s[:, i] @ basis[:m]
                theta[i] = weights @ jumps_of(vector) ** 2
                rho[k] = dnrm2(np.diff(flux * jumps) - theta[i] * vector)  # the same jumps
            if slow.size:
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
        np.divide(w, step, out=basis[m])
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
    final_macro: FloatArray  # (nx,)
    final_micro: FloatArray  # (nx, ny)
    steps: int
    dt: float
    hom: HomogenizedData


class MicroMacroSolver:
    """Two-scale splitting integrator on a coarse tensor grid.

    One instance fixes the meshes, coefficient tables, cell-problem data, the wall corrector
    traces and the operators, and holds the step operators of the latest step size only.  The
    implicit fast update ``(I - (dt/epsilon**2) Ly) G' = G + (dt/epsilon) r``, with ``r`` the
    fluctuating part of the coupling terms, is multiplied through by ``s = (epsilon/dt)*epsilon``
    and solved on the mean-free subspace: ``(s*I - Ly) G' = s*G + epsilon*r``.  ``s`` underflows
    to zero without error and, as every step is normal, never overflows, so this one solve holds
    for every epsilon, and at ``s = 0`` it is the singular cell solve, whose ``G'`` is the
    O(epsilon) corrector limit.  The slow update blends the effective operator ``K`` with
    the plain averaged diffusion through the stiffness weight ``w = exp(-dt/epsilon**2)``, which
    underflows to zero in the strongly oscillatory regime, exactly as the splitting is designed
    to do.  ``F'`` is one band product per step, of ``I + dt*((1 - w) K + w A)`` (``A`` that plain
    diffusion) with the wall data folded in, on ``[left, F, right]`` (the wall gradients of the
    companion, the effective equation's run), onto ``alpha*dJ + kick*S``: ``dJ`` the
    differences of G's y-summed x-fluxes, ``S`` the mixed block's first-term y-sums and ``kick``
    their weight; dt*K steps the companion.  With an x-uniform coefficient the coupling terms,
    the fast solve, S and the flux sums are three products of the padded ``[G | F]``, U, with
    the step's matrices; each one-sided wall row is U's three rows next to its wall times a
    held block, into which the ghost row ``2*wall - first`` and the third differences are
    folded, plus the wall gradient times a held row, so U's ghost rows stay 0 and no step reads
    them.  Else the coupling terms read flat slices of one padded buffer.  The constructor fixes
    dt and the last step, shortened to land on t_end: over 2**24 steps, or a step below the
    normal range, is a ConfigError.

    One kernel per step size advances a working state in place: F and E in the rows of ``x =
    [left, F, right; 0, E, 0]``, with one block G in the padded ``[G | F]``, U, and the products,
    F' and E' in buffers held per step size; else the kernel holds the coupling's padded,
    half-node and work buffers, which the jumps and the Woodbury product reuse, and a spare G
    field into which G' goes, and binds their views once (the G fields' per order of the two,
    at its first step).  One driver, ``_advance``, binds a step size's kernel once, runs it a
    count of steps in numpy's error state and frees it: ``run`` loads once and advances by its
    full steps, then its last; ``step`` loads afresh and advances one dt.  Each step screens its
    new fields with BLAS sums into held buffers and runs the exact non-finite and drift guards,
    ``_exact_guards``, only where that screen fails.
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
        self.dt = dt = dt_factor * self.xmesh.dx**2
        if not problem.t_end / dt <= 2**24:  # about 20 minutes of 64x16 steps
            raise ConfigError(f"t_end={problem.t_end:g} takes over 2**24 steps of dt={dt:.3g}")
        self._steps = _step_count(problem.t_end, dt)  # the last step lands on t_end, <= dt
        self._last_dt = last = min(problem.t_end - (self._steps - 1) * dt, dt)
        if not sys.float_info.min <= last:  # s = (eps/dt)*eps would overflow
            raise ConfigError(f"dt_factor={dt_factor:g} gives a subnormal step of {last:.3g}")
        self.ymesh = make_cell_mesh(n_y)
        self.tables = sample_coefficient(problem.coefficient, self.xmesh, self.ymesh)
        self.ops = GridOperators(self.tables)
        self.epsilon = eps = float(problem.epsilon)  # a numpy eps would warn as 1/eps**2 overflows
        # wall data per unit companion gradient (none with homogeneous walls): eps*chi for G,
        # minus its value at the wall's fast coordinate for F; twice their sum; G's flux y-sums
        profiles = eps * (problem.bc_mode == "dirichlet_corrector") * self.tables.hom.chi_walls
        # the profiles' trigonometric interpolants at the walls' fast coordinates, one rfft per wall
        y, ny = fast_coordinate(np.array([[0.0], [1.0]]), eps), self.ymesh.n_points
        z = np.exp(2j * np.pi * y * np.arange(ny // 2 + 1))[:, None]
        traces = (z @ _balanced_coefficients(profiles)[..., None]).real[:, 0, 0] / -ny
        self._wall_traces = traces.tolist()
        self._wall_totals = 2.0 * (profiles + traces[:, None])
        wall_rows = 2.0 * self.tables.x_interfaces[[0, -1]]
        self._wall_sums = np.add.reduce(wall_rows * profiles, axis=-1).tolist()
        self._held = None  # the step operators of the latest dt, see _step_operators

    def initial_state(self) -> MicroMacroState:
        macro = np.asarray(self.problem.initial(self.xmesh.centers), dtype=float)
        if not np.all(np.isfinite(macro)):  # before numpy warns on inf - inf
            raise StabilityError("non-finite initial data")
        micro = np.zeros((self.xmesh.n_cells, self.ymesh.n_points))
        return MicroMacroState(macro, micro, effective=macro.copy(), t=0.0, step=0)

    def _step_operators(self, dt: float):
        """``(dt, s, kick, fast, band, alpha)`` for dt, built when dt changes: the shift, the
        x-uniform step's blocks or else the fast solve, and the band of ``I + dt*((1 - w) K +
        w A)``, wall columns times the wall traces, plus ``alpha`` G's wall sums (see the class).
        The x-uniform blocks are one array: its k-th ny+1 rows are ``_FOLD[k]`` of
        ``GridOperators._step_matrices``' four (M_0 to M_2, then each wall's three), and its
        last two rows each wall's data per unit wall gradient, by ``_GHOSTS``."""
        if not sys.float_info.min <= dt <= self.dt:  # also false for nan
            raise ValueError(f"dt must satisfy 0 < dt <= {self.dt:.6g} and be normal, got {dt}")
        if self._held is None or self._held[0] != dt:
            self._held = None  # not held through the next assembly
            eps, ops, ny = self.epsilon, self.ops, self.ops.ny
            s, weight = (eps / dt) * eps, math.exp(-(dt / eps) / eps)
            if ops._blocks == 1:  # M's four blocks flat, folded
                m, fast = ops._step_matrices(s, eps).reshape(4, -1), np.empty((9 * ny + 11, ny + 2))
                np.dot(_FOLD, m, out=fast[:-2].reshape(9, -1))
                ghosts = np.dot(_GHOSTS, m).reshape(2, ny + 1, ny + 2)[:, :ny]  # G's rows
                np.matmul(self._wall_totals[:, None], ghosts, out=fast[-2:, None])
            else:
                fast = ops._factor(s)
            band, alpha = ops._blended_band(weight, dt), dt / (ny * ops.dx**2)
            band[:, :: ops.nx + 1] *= self._wall_traces
            band[4, 0] += alpha * self._wall_sums[0]
            band[2, -1] += alpha * self._wall_sums[1]
            kick = dt * weight / eps / (4.0 * ops.dx * ops.dy * ops.ny)
            self._held = (dt, s, kick, fast, band, alpha)
        return self._held

    def step(self, state: MicroMacroState) -> MicroMacroState:
        """Advance one level by dt: fast solve, then slow update."""
        held = self._load(state)
        self._advance(held, self.dt, 1)
        return held  # its buffers are this call's own

    def _advance(self, held: MicroMacroState, dt: float, count: int) -> None:
        """Advance the working state ``held`` by ``count`` steps of dt, one kernel bound."""
        with np.errstate(over="ignore", invalid="ignore"):  # the guards report non-finite fields
            advance = self._stepper(held, self._step_operators(dt))
            for _ in range(count):
                advance()

    def _load(self, state: MicroMacroState) -> MicroMacroState:
        """A working state for :meth:`_stepper` in buffers of its own, as the class names them."""
        n, micro, x = self.ops.nx, state.micro, np.zeros((2, self.ops.nx + 2))
        x[0, 1:-1], x[1, 1:-1] = state.macro, state.effective
        if self.ops._blocks == 1:  # U's ghost rows: 0, and no step writes them
            u = np.zeros((n + 2, self.ops.ny + 1))
            u[1:-1, :-1], u[1:-1, -1], micro = micro, state.macro, u[1:-1, :-1]
        else:  # the steps write G' into G's buffer of the step before
            micro = np.array(micro, dtype=float, order="C")
        return MicroMacroState(x[0, 1:-1], micro, x[1, 1:-1], state.t, state.step)

    def _stepper(self, held: MicroMacroState, operators):
        """The step kernel of ``operators``' dt: a function advancing ``held`` a step in place."""
        eps, ops, n, ny, dx = self.epsilon, self.ops, self.ops.nx, self.ops.ny, self.ops.dx
        (dt, s, kick, fast, band, alpha), uniform = operators, ops._blocks == 1
        x, out = held.macro.base, np.zeros((2, n + 3))  # out: F' and E', see _load for x
        f, e, f_out, e_out, fe, fe_new = x[0], x[1], out[0], out[1], x[:, 1:-1], out[:, :n]
        f_new, e_out[:n] = out[0, :n], held.effective  # rows n .. n+2 stay 0 (dgbmv takes no m < 7)
        row_sums = np.zeros(n)  # the slice sums of G', for the guards' screen
        ends = np.ndarray((2, 3), float, x, 8 * (n + 3), (8 * (n - 3), 8))  # E's first, last three
        if uniform:  # the products of _step_operators' blocks with the held [G | F], U
            u, g, k = held.micro.base, np.empty((n, ny + 2), order="F"), ny + 1  # g: [G' | dJ | S]
            u0, u1, u2 = u[:n].T, u[1 : n + 1].T, u[2 : n + 2].T
            # the blocks transposed, Fortran-ordered as BLAS reads them, and U's rows next to each
            # wall flat; g flat holds g's wall rows 0 and n-1 from entries 0 and n-1, at stride n
            blocks, (ghost_l, ghost_r) = fast.T, fast[-2:]
            m0, m1, m2 = blocks[:, :k], blocks[:, k : 2 * k], blocks[:, 2 * k : 3 * k]
            wall_l, wall_r = blocks[:, 3 * k : 6 * k], blocks[:, 6 * k : -2]
            rows_l, rows_r, g_flat = u[1:4].ravel(), u[n - 2 : -1].ravel(), g.T.ravel()
            g_micro, flux_sums, kicks = g[:, :-2], g[:, -2], g[:, -1]
            held_f = u[1:-1, -1]
        else:  # the coupling's padded, half-node and work buffers, shared with the sums after it
            padded, half, work = np.empty((n + 2, ny)), np.empty((n + 2, ny)), np.empty((n, ny))
            first_sums, flux_sums, vt_w = np.empty(n), np.empty(n + 1), np.empty((n, 3))
            pad = ops._padded(held.macro[:, None], self._wall_totals, padded)  # F + G, padded once
            jumps, mixed = half[:-1], ops._mixed(padded, half, work, first_sums)
            x_diffusion, product = ops._x_diffusion(padded, jumps, work), work.reshape(n, 1, ny)
            jumps_t, jumps_in, jump_walls, x_flat = jumps.T, jumps[1:-1], jumps[::n].T, work.ravel()
            ahead, behind, x_weight = flux_sums[1:], flux_sums[:-1], 4.0 * ops.dy * eps / dx

            def bind(micro, coupled):  # the step from G in micro to G' in coupled
                def update(left, right, block=mixed(coupled), solve=fast(coupled, vt_w, product),
                           coupled_t=coupled.T, up=coupled[1:], down=coupled[:-1],
                           walls=coupled[:: n - 1].T, flat=coupled.ravel(), old=micro.ravel()):
                    pad(micro, left, right)
                    block()
                    x_diffusion()
                    daxpy(x_flat, flat, x_flat.size, x_weight)  # 4*dx*dy*(Mixed + eps*Xdiff)(F+G)
                    # less the slice means: the solve leaves rounding, G' of a y-independent one 0
                    dgemv(1.0 / ny, coupled_t, ops._ones, 0.0, row_sums, 0, 1, 0, 1, 1, 1)
                    dger(-1.0, ops._ones, row_sums, 1, 1, coupled_t, 1, 1, 1)  # overwrite_a = 1
                    dscal(eps / (4.0 * dx * ops.dy), flat)
                    daxpy(old, flat, old.size, s)  # coupled += s * micro
                    solve()  # in place; then the x-jumps of G', 2*G' at the walls (odd ghosts)
                    subtract(up, down, jumps_in)
                    multiply(walls, _WALL_JUMPS, jump_walls)
                    multiply(jumps, ops.tables.x_interfaces, jumps)
                    dgemv(alpha, jumps_t, ops._ones, 0.0, flux_sums, 0, 1, 0, 1, 1, 1)
                    subtract(ahead, behind, f_new)  # alpha*dJ + kick*S
                    daxpy(first_sums, f_out, n, kick)  # a no-op for kick = 0
                    return coupled, coupled_t
                return update
            def alternating(micro, spare):  # G' goes into the spare, the buffer of the G before
                yield (first := bind(micro, spare))  # this one; each order bound at its first step
                yield from itertools.cycle((bind(spare, micro), first))
            orders = alternating(held.micro, np.empty((n, ny)))

        def advance():
            (a, b, c), (p, q, r) = ends.tolist()  # the one-sided second-order wall gradients
            left, right = (-2.0 * a + 3.0 * b - c) / dx, (2.0 * r - 3.0 * q + p) / dx
            if uniform:
                dgemm(1.0, u0, m0, 0.0, g, 1, 1, 1)  # trans_a, trans_b = 1 (contiguous operands),
                dgemm(1.0, u1, m1, 1.0, g, 1, 1, 1)  # beta = 0 then 1; overwrite_c = 1
                dgemm(1.0, u2, m2, 1.0, g, 1, 1, 1)
                # the wall rows afresh (beta = 0), then plus the ghosts' wall data; by position
                dgemv(1.0, wall_l, rows_l, 0.0, g_flat, 0, 1, 0, n, 0, 1)
                dgemv(1.0, wall_r, rows_r, 0.0, g_flat, 0, 1, n - 1, n, 0, 1)
                daxpy(ghost_l, g_flat, ny + 2, left, 0, 1, 0, n)  # in place, as g_flat is 1-D
                daxpy(ghost_r, g_flat, ny + 2, right, 0, 1, n - 1, n)
                f_new[...], micro_new = kicks, g_micro
                # alpha*dJ + kick*S; beta and overwrite_y = 1 by position: keywords cost f2py 1 us
                dsbmv(1, alpha, ops._jump_diffs, flux_sums, 1, 0, kick, f_out, 1, 0, 0, 1)
            else:
                micro_new, micro_t = next(orders)(left, right)
                held.micro = micro_new
            f[0], f[-1] = left, right
            dgbmv(n + 3, n + 2, 2, 4, 1.0, band, f, 1, 0, 1.0, f_out, 1, 0, 0, 1)
            dgbmv(n + 3, n + 2, 2, 4, dt, ops._effective_band, e, 1, 0, 1.0, e_out, 1, 0, 0, 1)
            t_new = held.t + dt
            # G' F-ordered, as f2py passes it uncopied (and flat to dasum); trans by position
            screened, trans = (g_micro, 0) if uniform else (micro_t, 1)
            total = dasum(screened)
            dgemv(1.0, screened, ops._ones, 0.0, row_sums, 0, 1, 0, 1, trans, 1)  # overwrite_y
            # the screen: an IEEE sum of |x| or 2-norm is non-finite whenever an entry is, and
            # the slice sums r of G' have max|r| <= |r|_2 (sqrt(n) rounding sizes; sum|r| has n),
            # sum|G'| <= n ny max|G'|, so a pass bounds the drift by half the guards' tolerance
            # (the 2 for the sums' rounding); a field whose sum overflows, or a subnormal one, fails
            if not (
                total + dasum(f_new) < math.inf
                and 2.0 * n * dnrm2(row_sums) <= _MEAN_DRIFT_TOL * total
            ):
                _exact_guards(micro_new, f_new, ops._ones, held.step + 1, t_new)
            held.t, held.step, fe[...] = t_new, held.step + 1, fe_new
            if uniform:
                held.micro[...], held_f[...] = micro_new, held.macro

        return advance

    def run(self) -> MicroMacroResult:
        """Iterate to t_end: full steps of dt, then a shortened last one where t_end needs it."""
        total, last_dt = self._steps, self._last_dt
        held, full = self._load(self.initial_state()), total - (last_dt != self.dt)
        for dt, count in ((self.dt, full), (last_dt, total - full)):
            if count:  # each kernel is freed before the next step size's operators are built
                self._advance(held, dt, count)
        self._held = None  # a finished run holds no step operators (memory)
        return MicroMacroResult(  # copies: no buffer of the run stays alive
            self.xmesh, held.macro.copy(), held.micro.copy(),
            total, self.dt, self.tables.hom,
        )

