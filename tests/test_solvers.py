"""Time-integrator tests: analytic limits, structural identities, guards.

The micro-macro update is additionally pinned against a literal transcription
of its own one-step formula, so any accidental reordering of the blended
terms shows up even where the dynamics would hide it.
"""

import dataclasses
import math

import numpy as np
import pytest

from apmm.homogenization import build_homogenized, first_order_corrector
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import remove_y_average, y_average
from apmm.harness import ap_degeneracy_study
from apmm.problem import (
    ConfigError,
    ProblemSpec,
    benchmark_problem,
    constant_coefficient,
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


def test_reference_energy_decay():
    problem = benchmark_problem(0.2, t_end=0.005)
    dt = 0.05 / 128**2
    res = run_reference(problem, 128, record_times=np.arange(0.0, 0.005, 8 * dt))
    norms = [math.sqrt(float(np.dot(u, u)) / 128) for u in res.snapshots]
    assert len(norms) > 50
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_reference_step_accounting():
    problem = _heat_problem(t_end=0.0101)
    res = run_reference(problem, 16, dt_factor=0.2)
    dt = 0.2 / 16**2
    assert res.steps == math.ceil(0.0101 / dt - 1e-9)
    assert res.times[-1] == pytest.approx(0.0101, abs=1e-15)
    # exact multiples do not pick up a spurious extra step
    res = run_reference(_heat_problem(t_end=8 * dt), 16, dt_factor=0.2)
    assert res.steps == 8


def test_reference_snapshot_times():
    problem = _heat_problem(t_end=0.01)
    res = run_reference(problem, 32, dt_factor=0.05, record_times=(0.0, 0.005))
    assert res.times[0] == 0.0
    assert abs(res.times[1] - 0.005) <= res.dt
    assert res.times[-1] == pytest.approx(0.01)
    assert res.snapshots.shape == (3, 32)
    assert np.max(np.abs(res.snapshots[0] - np.sin(np.pi * res.mesh.centers))) == 0.0


def _stepped_reference(problem, n_cells, dt_factor, steps):
    """The explicit reference scheme stepped one level at a time."""
    mesh = make_spatial_mesh(n_cells)
    x_if = mesh.interfaces
    a_if = problem.coefficient(x_if, np.mod(x_if / problem.epsilon, 1.0))
    dt = dt_factor * mesh.dx**2
    n_steps = math.ceil(problem.t_end / dt - 1e-9)
    u = problem.initial(mesh.centers)
    kept = {0: u.copy()}
    for k in range(1, n_steps + 1):
        h = dt if k < n_steps else problem.t_end - (n_steps - 1) * dt
        padded = np.concatenate(([-u[0]], u, [-u[-1]]))
        u = u + (h / mesh.dx**2) * np.diff(a_if * np.diff(padded))
        kept[k] = u.copy()
    return np.array([kept[min(k, n_steps)] for k in steps]), n_steps


@pytest.mark.filterwarnings("ignore:n_cells=256 under-resolves")
@pytest.mark.parametrize("case", ["oscillatory", "stability bound", "undamped mode"])
def test_reference_modes_match_stepping(case):
    # 0.0017 is no multiple of dt, so the last step is shortened; at the
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
    res = run_reference(problem, 256, dt_factor=dt_factor, record_times=(0.0, dt, 0.3 * 0.0017))
    steps = [round(t / dt) for t in res.times[:-1]] + [res.steps]
    assert steps[:2] == [0, 1]
    expected, n_steps = _stepped_reference(problem, 256, dt_factor, steps)
    assert res.steps == n_steps and res.dt == dt
    assert n_steps * dt > 0.0017 > (n_steps - 1) * dt
    assert np.array_equal(res.snapshots[0], expected[0])
    scale = np.max(np.abs(expected), axis=1)
    assert np.all(np.max(np.abs(res.snapshots - expected), axis=1) <= 1e-10 * scale)


@pytest.mark.filterwarnings("ignore:n_cells=256 under-resolves")
def test_reference_zero_source_matches_source_free():
    problem = benchmark_problem(0.05, t_end=0.0017)
    stepped = dataclasses.replace(problem, source=lambda t, x: 0 * x)
    res = run_reference(problem, 256, record_times=(0.0, 0.001))
    res_stepped = run_reference(stepped, 256, record_times=(0.0, 0.001))
    assert np.array_equal(res.times, res_stepped.times)
    scale = np.max(np.abs(res_stepped.snapshots), axis=1)
    diff = np.max(np.abs(res.snapshots - res_stepped.snapshots), axis=1)
    assert np.all(diff <= 1e-10 * scale)


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
        initial=lambda x: np.sin(np.pi * x),
        source=lambda t, x: np.full(np.shape(x), np.nan),
        bc_mode="dirichlet_homogeneous",
        t_end=1e-4,
    )
    with pytest.raises(StabilityError):
        run_reference(problem, 16, dt_factor=0.05)


# --------------------------------------------------------------- homogenized


def test_homogenized_equals_reference_for_constant_coefficient():
    problem = ProblemSpec(
        coefficient=constant_coefficient(1.7),
        epsilon=1.0,
        initial=lambda x: np.sin(2 * np.pi * x),
        t_end=0.01,
    )
    hom = build_homogenized(problem.coefficient, make_spatial_mesh(64), make_cell_mesh(8))
    u_hmm = run_homogenized(problem, hom, dt_factor=0.2)
    u_ref = run_reference(problem, 64, dt_factor=0.2)
    assert u_hmm.steps == u_ref.steps
    assert np.max(np.abs(u_hmm.final - u_ref.final)) <= 1e-12


def test_homogenized_analytic_decay():
    problem = benchmark_problem(0.1, t_end=0.02)
    hom = build_homogenized(problem.coefficient, make_spatial_mesh(64), make_cell_mesh(16))
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
    hom = build_homogenized(problem.coefficient, make_spatial_mesh(16), make_cell_mesh(8))
    res = run_homogenized(problem, hom)
    assert np.max(np.abs(res.final)) == 0.0
    assert np.max(np.abs(res.corrector)) == 0.0


def test_homogenized_corrector_consistency():
    problem = benchmark_problem(0.1, t_end=0.002)
    hom = build_homogenized(problem.coefficient, make_spatial_mesh(32), make_cell_mesh(16))
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


def test_emm_micro_mean_free_along_run():
    res = run_micro_macro(benchmark_problem(0.1, t_end=0.001), 32, 8, record_times=(0.0, 0.0005))
    assert res.micro_snapshots.shape[0] == res.macro_snapshots.shape[0] == len(res.times)
    for g in res.micro_snapshots:
        scale = np.max(np.abs(g))
        if scale > 0.0:
            assert np.max(np.abs(g.mean(axis=-1))) <= 1e-11 * scale


@pytest.fixture(scope="module")
def emm_eps_1e11():
    return run_micro_macro(benchmark_problem(1e-11, t_end=0.001), 32, 8)


@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-15, 1e-100, 1e-160, 1e-300])
def test_emm_runs_uniformly_at_tiny_eps(eps, emm_eps_1e11):
    # one bordered fast solve for every eps, also where eps**2 underflows:
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
    assert res.times[-1] == pytest.approx(0.01, abs=1e-15)

    fixed = solver.run(n_steps=5)
    assert fixed.steps == 5
    assert fixed.times[-1] == pytest.approx(5 * solver.dt, abs=1e-15)
    with pytest.raises(ValueError):
        solver.run(n_steps=0)


def test_emm_rejects_unstable_dt():
    with pytest.raises(ConfigError):
        MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8, dt_factor=0.5)
    with pytest.raises(ConfigError):
        MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8, dt_factor=-0.2)


def test_emm_detects_blowup():
    problem = ProblemSpec(
        coefficient=benchmark_problem(0.1).coefficient,
        epsilon=0.1,
        initial=lambda x: np.sin(2 * np.pi * x),
        source=lambda t, x: np.full(np.shape(x), np.inf),
        t_end=0.01,
    )
    solver = MicroMacroSolver(problem, 16, 8)
    with pytest.raises(StabilityError):
        solver.step(solver.initial_state())


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
