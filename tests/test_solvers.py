"""Time-integrator tests: analytic limits, structural identities, guards.

The micro-macro update is additionally pinned against a literal transcription
of its own one-step formula, so any accidental reordering of the blended
terms shows up even where the dynamics would hide it.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dstebz, dstein

from apmm import solvers
from apmm.homogenization import first_order_corrector
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import remove_y_average, y_average
from apmm.harness import ap_degeneracy_study
from apmm.problem import (
    ConfigError,
    DiffusionField,
    ProblemSpec,
    _cell_corrector,
    benchmark_problem,
    constant_coefficient,
    sample_coefficient,
)
from apmm.solvers import (
    MicroMacroSolver,
    MicroMacroState,
    StabilityError,
    run_homogenized,
    run_micro_macro,
    run_reference,
)

A0 = math.sqrt(0.21)

# x-dependent, so every x-slice has its own block in the fast solve
X_DEPENDENT = DiffusionField(
    func=lambda x, y: 1.3
    + (0.5 + 0.4 * x) * np.sin(2.0 * np.pi * y)
    + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y),
    a_min=0.1,
    a_max=2.5,
)


def _inf_initial_problem():
    # inf in the interior, zero at the walls; inf - inf in the first stencil
    # would only warn, which the suite turns into an error
    return ProblemSpec(
        coefficient=benchmark_problem(0.1).coefficient,
        epsilon=0.1,
        initial=lambda x: np.where((x > 0.4) & (x < 0.6), np.inf, np.sin(np.pi * x)),
        t_end=0.01,
    )


def _heat_problem(t_end=0.1):
    return ProblemSpec(
        coefficient=constant_coefficient(1.0),
        epsilon=1.0,
        initial=lambda x: np.sin(np.pi * x),
        bc_mode="dirichlet_homogeneous",
        t_end=t_end,
    )


# ----------------------------------------------------------------- reference


def test_reference_heat_analytic():
    res = run_reference(_heat_problem(), 128, dt_factor=0.05)
    exact = math.exp(-math.pi**2 * 0.1) * np.sin(np.pi * res.mesh.centers)
    rel = np.max(np.abs(res.final - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-3  # measured 3.5e-5


def test_reference_step_accounting():
    problem = _heat_problem(t_end=0.0101)
    res = run_reference(problem, 16, dt_factor=0.2)
    dt = 0.2 / 16**2
    assert res.steps == math.ceil(0.0101 / dt - 1e-9)
    # exact multiples do not pick up a spurious extra step
    res = run_reference(_heat_problem(t_end=8 * dt), 16, dt_factor=0.2)
    assert res.steps == 8


def _stepped_reference(problem, n_cells, dt_factor):
    """The explicit reference scheme stepped one level at a time to t_end."""
    mesh = make_spatial_mesh(n_cells)
    x_if = mesh.interfaces
    a_if = problem.coefficient(x_if, np.mod(x_if / problem.epsilon, 1.0))
    dt = dt_factor * mesh.dx**2
    n_steps = math.ceil(problem.t_end / dt - 1e-9)
    u = problem.initial(mesh.centers)
    for k in range(1, n_steps + 1):
        h = dt if k < n_steps else problem.t_end - (n_steps - 1) * dt
        padded = np.concatenate(([-u[0]], u, [-u[-1]]))
        u = u + (h / mesh.dx**2) * np.diff(a_if * np.diff(padded))
    return u, n_steps


@pytest.mark.filterwarnings("ignore:n_cells=256 under-resolves")
@pytest.mark.parametrize("case", ["oscillatory", "stability bound", "undamped mode"])
def test_reference_modes_match_stepping(case):
    # horizons: one step (no full step, so no mode is cut), and two that
    # are no multiple of dt, so the last step is shortened; at the
    # stability bound the step matrix has eigenvalues near -1, and exactly
    # -1 for a constant coefficient, whose mode the jump in g excites
    problem = benchmark_problem(0.05, t_end=0.0017)
    dt_factor = 0.05 if case == "oscillatory" else 1.0 / (2.0 * problem.coefficient.a_max)
    if case == "undamped mode":
        problem = ProblemSpec(
            coefficient=constant_coefficient(1.0),
            epsilon=1.0,
            initial=lambda x: np.where((x > 0.3) & (x < 0.6), 1.0, 0.0),
            bc_mode="dirichlet_homogeneous",
            t_end=0.0017,
        )
        dt_factor = 0.5
    dt = dt_factor / 256**2
    for t_end in (dt, 0.3 * 0.0017, 0.0017):
        horizon = dataclasses.replace(problem, t_end=t_end)
        res = run_reference(horizon, 256, dt_factor=dt_factor)
        expected, n_steps = _stepped_reference(horizon, 256, dt_factor)
        assert res.steps == n_steps and res.dt == dt
        if t_end == dt:
            assert n_steps == 1
        else:
            assert n_steps * dt > t_end > (n_steps - 1) * dt
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale


def _full_precision_reference(problem, n_cells, dt_factor):
    """The reference's final state from eigenpairs bisected to full precision
    (``dstebz`` at abstol 0) and one ``dstein`` call for all kept modes."""
    mesh = make_spatial_mesh(n_cells)
    x_if = mesh.interfaces
    a_if = problem.coefficient(x_if, np.mod(x_if / problem.epsilon, 1.0))
    dt = dt_factor * mesh.dx**2
    n_steps = math.ceil(problem.t_end / dt - 1e-9)
    last_ratio = (problem.t_end - (n_steps - 1) * dt) / dt
    r = dt_factor  # dt / dx**2
    diag = -r * (a_if[:-1] + a_if[1:])
    diag[[0, -1]] -= r * a_if[[0, -1]]
    off = r * a_if[1:-1]
    cut = 1e-17 ** (1.0 / (n_steps - 1))
    u0 = problem.initial(mesh.centers)
    final = np.zeros(n_cells)
    for lower, upper in ((cut - 1.0, 1.0), (-3.0, -1.0 - cut)):
        found, mu, block, split, info = dstebz(diag, off, 1, lower, upper, 0, 0, 0.0, b"B")
        assert info == 0
        if found:
            z, info = dstein(diag, off, mu[:found], block, split)
            assert info == 0
            gains = np.exp((n_steps - 1) * np.log1p(mu[:found])) * (1.0 + last_ratio * mu[:found])
            final += (gains * (u0 @ z)) @ z.T
    return final


def test_reference_at_a_long_horizon_matches_full_precision_modes(monkeypatch):
    # the benchmark's figure1 case: 419,431 steps, so each gain is a power
    # (1 + mu)**419430 and an eigenvalue error is amplified by the step count
    tolerances = []

    def recording_dstebz(*args):
        tolerances.append(args[7])
        return dstebz(*args)

    monkeypatch.setattr(solvers, "dstebz", recording_dstebz)
    problem = benchmark_problem(0.01, t_end=0.005)
    res = run_reference(problem, 2048)
    assert res.steps == 419431
    assert len(tolerances) == 2 and min(tolerances) > 0.0  # one coarse pass per window
    expected = _full_precision_reference(problem, 2048, 0.05)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale  # measured 1.5e-11


def test_reference_warns_when_underresolved():
    problem = benchmark_problem(0.01, t_end=1e-5)
    with pytest.warns(UserWarning, match="under-resolves"):
        run_reference(problem, 128)


def test_reference_rejects_unstable_dt():
    with pytest.raises(ConfigError):
        run_reference(benchmark_problem(0.5, t_end=0.01), 64, dt_factor=0.9)
    with pytest.raises(ConfigError):
        run_reference(_heat_problem(), 64, dt_factor=0.0)


def test_reference_detects_blowup():
    problem = ProblemSpec(
        coefficient=constant_coefficient(1.0),
        epsilon=1.0,
        initial=lambda x: np.where((x > 0.4) & (x < 0.6), np.nan, np.sin(np.pi * x)),
        bc_mode="dirichlet_homogeneous",
        t_end=1e-4,
    )
    with pytest.raises(StabilityError):
        run_reference(problem, 16, dt_factor=0.05)


def test_reference_rejects_inf_initial_data():
    with pytest.raises(StabilityError, match="non-finite initial data"):
        run_reference(_inf_initial_problem(), 256)


# --------------------------------------------------------------- homogenized


@pytest.mark.parametrize("value", [0.7, 1.3, 1.7, 2.0])
def test_homogenized_equals_reference_for_constant_coefficient(value):
    problem = ProblemSpec(
        coefficient=constant_coefficient(value),
        epsilon=1.0,
        initial=lambda x: np.sin(2 * np.pi * x),
        t_end=0.01,
    )
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(64), make_cell_mesh(8)).hom
    u_hmm = run_homogenized(problem, hom, dt_factor=0.2)
    u_ref = run_reference(problem, 64, dt_factor=0.2)
    assert u_hmm.steps == u_ref.steps
    assert np.max(np.abs(u_hmm.final - u_ref.final)) <= 1e-13  # measured 0
    assert np.max(np.abs(u_hmm.corrector)) <= 1e-14  # measured <= 3.4e-16


def test_homogenized_analytic_decay():
    problem = benchmark_problem(0.1, t_end=0.02)
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(64), make_cell_mesh(16)).hom
    res = run_homogenized(problem, hom)
    x = res.mesh.centers
    exact = math.exp(-A0 * 4 * math.pi**2 * 0.02) * np.sin(2 * np.pi * x)
    rel = np.max(np.abs(res.final - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-2  # measured 7.3e-4


def test_homogenized_zero_data():
    problem = ProblemSpec(
        coefficient=benchmark_problem(0.1).coefficient,
        epsilon=0.1,
        initial=lambda x: np.zeros(np.shape(x)),
        t_end=0.001,
    )
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(16), make_cell_mesh(8)).hom
    res = run_homogenized(problem, hom)
    assert np.max(np.abs(res.final)) == 0.0
    assert np.max(np.abs(res.corrector)) == 0.0


def test_homogenized_rejects_inf_initial_data():
    problem = _inf_initial_problem()
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(16), make_cell_mesh(8)).hom
    with pytest.raises(StabilityError, match="non-finite initial data"):
        run_homogenized(problem, hom)


def test_homogenized_corrector_consistency():
    problem = benchmark_problem(0.1, t_end=0.002)
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(32), make_cell_mesh(16)).hom
    res = run_homogenized(problem, hom)
    assert res.corrector.shape == (32, 16)
    assert np.max(np.abs(res.corrector - first_order_corrector(hom, res.final))) == 0.0


# --------------------------------------------------------------- micro-macro


def test_emm_initial_state():
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.02), 32, 8)
    state = solver.initial_state()
    assert np.allclose(state.macro, np.sin(2 * np.pi * solver.xmesh.centers), atol=1e-15)
    assert np.max(np.abs(state.micro)) == 0.0
    assert np.max(np.abs(state.effective - state.macro)) == 0.0
    assert state.t == 0.0 and state.step == 0


def test_emm_set_up_samples_the_coefficient_once(monkeypatch):
    """Set-up and a first step evaluate the coefficient only inside sample_coefficient,
    whose cell data are two corrector builds: the cell centres and the walls."""
    calls = {"inside": 0, "outside": 0, "corrector": 0}
    inside = [False]
    base = benchmark_problem(0.1)

    def counted(x, y):
        calls["inside" if inside[0] else "outside"] += 1
        return base.coefficient.func(x, y)

    def sampling(*args):
        inside[0] = True
        try:
            return sample_coefficient(*args)
        finally:
            inside[0] = False

    def corrector(*args):
        calls["corrector"] += 1
        return _cell_corrector(*args)

    monkeypatch.setattr("apmm.solvers.sample_coefficient", sampling)
    monkeypatch.setattr("apmm.problem._cell_corrector", corrector)
    coefficient = dataclasses.replace(base.coefficient, func=counted)
    solver = MicroMacroSolver(dataclasses.replace(base, coefficient=coefficient), 16, 8)
    solver.step(solver.initial_state())
    assert calls["inside"] > 0
    assert calls["outside"] == 0
    assert calls["corrector"] == 2


def test_emm_one_step_matches_update_formula():
    """Transcribe the split update once by hand and demand bitwise agreement."""
    eps = 0.7
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 32, 16)
    state = solver.step(solver.initial_state())  # nonzero micro going in
    out = solver.step(state)

    ops, dt = solver.ops, solver.dt
    macro, micro = state.macro, state.micro
    macro_bc, micro_bc = solver.boundary_data(state.effective)
    total_bc = (macro_bc[0] + micro_bc[0], macro_bc[1] + micro_bc[1])
    combined = macro[:, None] + micro
    coupled = ops.apply_mixed_derivatives(combined, total_bc)
    coupled += eps * ops.apply_x_diffusion(combined, total_bc)
    g_new = remove_y_average(
        ops.solve_shifted(micro + (dt / eps) * remove_y_average(coupled), dt / eps**2)
    )
    w = math.exp(-dt / eps**2)
    f_new = (
        macro
        + dt * (1.0 - w) * ops.apply_effective(macro, macro_bc)
        + dt * w * y_average(ops.apply_x_diffusion(macro, macro_bc))
        + (dt * w / eps) * y_average(ops.apply_mixed_derivatives(micro, micro_bc))
        + dt * y_average(ops.apply_x_diffusion(g_new, micro_bc))
    )
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13


def test_emm_one_step_matches_update_formula_xdep():
    """The same transcription on an x-dependent coefficient, where every x-slice
    has its own block in the fast solve, at an eps with 0 < exp(-dt/eps**2) < 1."""
    eps = 0.3
    problem = dataclasses.replace(benchmark_problem(eps, t_end=1.0), coefficient=X_DEPENDENT)
    solver = MicroMacroSolver(problem, 32, 8)
    assert problem.bc_mode == "dirichlet_corrector" and not solver.tables.x_uniform
    state = solver.step(solver.initial_state())  # nonzero micro going in
    out = solver.step(state)

    ops, dt = solver.ops, solver.dt
    macro, micro = state.macro, state.micro
    macro_bc, micro_bc = solver.boundary_data(state.effective)
    total_bc = (macro_bc[0] + micro_bc[0], macro_bc[1] + micro_bc[1])
    combined = macro[:, None] + micro
    coupled = ops.apply_mixed_derivatives(combined, total_bc)
    coupled += eps * ops.apply_x_diffusion(combined, total_bc)
    g_new = remove_y_average(
        ops.solve_shifted(micro + (dt / eps) * remove_y_average(coupled), dt / eps**2)
    )
    w = math.exp(-dt / eps**2)
    assert 0.0 < w < 1.0
    f_new = (
        macro
        + dt * (1.0 - w) * ops.apply_effective(macro, macro_bc)
        + dt * w * y_average(ops.apply_x_diffusion(macro, macro_bc))
        + (dt * w / eps) * y_average(ops.apply_mixed_derivatives(micro, micro_bc))
        + dt * y_average(ops.apply_x_diffusion(g_new, micro_bc))
    )
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13


def test_emm_underflow_regime_reduces_exactly():
    # dt/eps^2 ~ 5e11: the stiff weight underflows and the slow update is
    # exactly the asymptotic one
    eps = 1e-8
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 64, 16)
    assert math.exp(-solver.dt / eps**2) == 0.0
    state = solver.step(solver.initial_state())
    out = solver.step(state)

    ops, dt = solver.ops, solver.dt
    macro_bc, micro_bc = solver.boundary_data(state.effective)
    total_bc = (macro_bc[0] + micro_bc[0], macro_bc[1] + micro_bc[1])
    combined = state.macro[:, None] + state.micro
    coupled = ops.apply_mixed_derivatives(combined, total_bc)
    coupled += eps * ops.apply_x_diffusion(combined, total_bc)
    g_new = remove_y_average(
        ops.solve_shifted(state.micro + (dt / eps) * remove_y_average(coupled), dt / eps**2)
    )
    f_new = (
        state.macro
        + dt * ops.apply_effective(state.macro, macro_bc)
        + dt * y_average(ops.apply_x_diffusion(g_new, micro_bc))
    )
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13


def test_emm_constant_coefficient_degenerates_to_euler():
    problem = ProblemSpec(
        coefficient=constant_coefficient(1.3),
        epsilon=0.5,
        initial=lambda x: np.sin(2 * np.pi * x),
        t_end=1.0,
    )
    solver = MicroMacroSolver(problem, 32, 8)
    state = solver.initial_state()
    euler = state.macro.copy()
    for _ in range(10):
        state = solver.step(state)
        euler = euler + solver.dt * y_average(solver.ops.apply_x_diffusion(euler))
        assert np.max(np.abs(state.micro)) == 0.0  # B p and (I-Pi) D p vanish
        assert np.max(np.abs(state.macro - euler)) <= 1e-12


def test_emm_single_step_ap_degeneracy():
    # prepared G = -eps L^{-1} (I-Pi) B F: one step lands O(eps) from the
    # explicit homogenized step, with a cleanly linear eps-scaling
    devs = {}
    for eps in (1e-4, 1e-6):
        solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 64, 16)
        f = np.sin(2 * np.pi * solver.xmesh.centers)
        bf = solver.ops.apply_mixed_derivatives(f)
        g = -eps * solver.ops.solve_y_diffusion(remove_y_average(bf))
        state = MicroMacroState(macro=f.copy(), micro=g, effective=f.copy(), t=0.0, step=0)
        out = solver.step(state)
        target = f + solver.dt * solver.ops.apply_effective(f)
        devs[eps] = float(np.max(np.abs(out.macro - target)))
    assert devs[1e-4] <= 1e-4  # measured 2.9e-5
    assert 50.0 <= devs[1e-4] / devs[1e-6] <= 200.0  # measured 100.0


@pytest.mark.parametrize("coeff", [None, X_DEPENDENT], ids=["x_uniform", "x_dependent"])
@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-6, 1e-300])
def test_emm_micro_mean_free_along_run(eps, coeff):
    # every slice of G' leaves the fast solve mean-free, also where s
    # underflows to 0 and for per-slice blocks
    problem = benchmark_problem(eps, t_end=0.001)
    if coeff is not None:
        problem = dataclasses.replace(problem, coefficient=coeff)
    solver = MicroMacroSolver(problem, 32, 8)
    state = solver.initial_state()
    for _ in range(6):
        state = solver.step(state)
        g = state.micro
        scale = np.max(np.abs(g))
        assert scale > 0.0
        assert np.max(np.abs(g.mean(axis=-1))) <= 1e-11 * scale


@pytest.fixture(scope="module")
def emm_eps_1e11():
    return run_micro_macro(benchmark_problem(1e-11, t_end=0.001), 32, 8)


@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-15, 1e-100, 1e-160, 1e-300])
def test_emm_runs_uniformly_at_tiny_eps(eps, emm_eps_1e11):
    # one fast solve for every eps, also where eps**2 underflows:
    # the micro field stays mean-free and keeps its O(eps) corrector shape
    res = run_micro_macro(benchmark_problem(eps, t_end=0.001), 32, 8)
    g = res.final_micro
    assert np.max(np.abs(g.mean(axis=-1))) <= 1e-11 * np.max(np.abs(g))
    # the eps = 1e-11 run sits O(eps) from the limit: measured 6.2e-12 .. 6.9e-12
    base = emm_eps_1e11.final_macro
    assert np.max(np.abs(res.final_macro - base)) <= 1e-11 * np.max(np.abs(base))
    # G/eps: measured <= 4.1e-11
    scaled, near = g / eps, emm_eps_1e11.final_micro / 1e-11
    assert np.max(np.abs(scaled)) > 0.0
    assert np.max(np.abs(scaled - near)) <= 1e-10 * np.max(np.abs(near))


def test_emm_numpy_epsilon_steps_without_warning():
    # (dt/eps)/eps overflows for eps below about 1e-154: a numpy float64 warns
    # there, an error under the suite's filter, where a Python float gives inf
    eps = np.float64(1e-200)
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=0.001), 16, 8)
    assert type(solver.epsilon) is float
    state = solver.step(solver.initial_state())
    plain = MicroMacroSolver(benchmark_problem(float(eps), t_end=0.001), 16, 8)
    expected = plain.step(plain.initial_state())
    assert np.array_equal(state.macro, expected.macro)
    assert np.array_equal(state.micro, expected.micro)


def test_emm_fast_average_drift_trips_the_guard(monkeypatch):
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8)
    solve = solver.ops.solve_bordered
    monkeypatch.setattr(solver.ops, "solve_bordered", lambda rhs, s: solve(rhs, s) + 1e-3)
    with pytest.raises(StabilityError, match="fast-average drift"):
        solver.step(solver.initial_state())


def test_ap_degeneracy_holds_where_eps_squared_underflows():
    # eps**2 underflows here, so s = 0 and the weight is 0: the step is
    # plain effective Euler up to the O(eps) micro and wall terms
    rows = ap_degeneracy_study(eps_values=(1e-100, 1e-160, 1e-300))
    assert [eps for eps, _ in rows] == [1e-100, 1e-160, 1e-300]
    assert all(math.isfinite(dev) and dev <= 1e-12 for _, dev in rows)


def test_emm_step_count_and_overrides():
    problem = benchmark_problem(0.5, t_end=0.01)
    solver = MicroMacroSolver(problem, 16, 8)
    res = solver.run()
    assert res.steps == math.ceil(0.01 / solver.dt - 1e-9)

    fixed = solver.run(n_steps=5)
    assert fixed.steps == 5
    with pytest.raises(ValueError):
        solver.run(n_steps=0)


@pytest.mark.parametrize("share", [0.0, -1.0, math.nan, math.inf, 10.0])
def test_emm_step_rejects_bad_dt(share):
    # 0 divided by zero, a negative dt failed in dpttrf, nan and inf only after
    # a full step's work, and 10*dt ran past the stability bound
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8)
    state = solver.initial_state()
    with pytest.raises(ValueError, match="dt must satisfy"):
        solver.step(state, dt=share * solver.dt)
    assert solver.ops._factors == {}  # rejected before any work


def test_emm_run_keeps_small_caches():
    # fast-solve factors for the run's full and shortened steps only, and one
    # slow operator whatever dt is: the band of the effective pair
    eps, t_end = 0.1, 0.01
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=t_end), 16, 8)
    res = solver.run()
    last = t_end - (res.steps - 1) * solver.dt
    assert 0.0 < last < solver.dt
    ops = solver.ops
    assert set(ops._factors) == {(eps / solver.dt) * eps, (eps / last) * eps}
    assert [name for name, value in vars(ops).items() if isinstance(value, dict)] == ["_factors"]
    band = ops._effective_band
    solver.run(n_steps=2)
    assert ops._effective_band is band and band.shape == (7, 2 * (16 + 2))


def test_emm_rejects_unstable_dt():
    with pytest.raises(ConfigError):
        MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8, dt_factor=0.5)
    with pytest.raises(ConfigError):
        MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8, dt_factor=-0.2)


def test_emm_detects_blowup():
    problem = ProblemSpec(
        coefficient=benchmark_problem(0.1).coefficient,
        epsilon=0.1,
        initial=lambda x: np.where((x > 0.4) & (x < 0.6), np.nan, np.sin(2 * np.pi * x)),
        t_end=0.01,
    )
    solver = MicroMacroSolver(problem, 16, 8)
    with pytest.raises(StabilityError):
        solver.step(solver.initial_state())


def test_emm_rejects_inf_initial_data():
    solver = MicroMacroSolver(_inf_initial_problem(), 16, 8)
    with pytest.raises(StabilityError, match="non-finite initial data"):
        solver.run()


def test_emm_homogeneous_walls_mode():
    # boundary data collapses to zeros in dirichlet_homogeneous mode
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01, bc_mode="dirichlet_homogeneous"), 16, 8)
    macro_bc, micro_bc = solver.boundary_data(solver.initial_state().effective)
    assert macro_bc == (0.0, 0.0)
    assert np.max(np.abs(micro_bc[0])) == 0.0
    assert np.max(np.abs(micro_bc[1])) == 0.0


def test_emm_corrector_walls_cancel_totals():
    # corrector mode: macro trace compensates the micro profile at the wall's
    # own fast coordinate, so the reconstructed total vanishes at the walls
    eps = 0.1
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=0.01), 32, 16)
    state = solver.step(solver.initial_state())
    macro_bc, micro_bc = solver.boundary_data(state.effective)
    from apmm.reconstruct import trig_interpolate

    left_total = macro_bc[0] + trig_interpolate(micro_bc[0], 0.0)
    right_total = macro_bc[1] + trig_interpolate(micro_bc[1], (1.0 / eps) % 1.0)
    assert abs(left_total) <= 1e-14
    assert abs(right_total) <= 1e-14
