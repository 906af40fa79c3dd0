"""Time-integrator tests: analytic limits, structural identities, guards.

The micro-macro update is additionally pinned against a literal transcription
of its own one-step formula, so any accidental reordering of the blended
terms shows up even where the dynamics would hide it.
"""

import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrs, dstebz, dstein

from apmm import solvers
from apmm.homogenization import first_order_corrector
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, remove_y_average, y_average
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
from apmm.reconstruct import reconstruct_micro_macro
from apmm.solvers import (
    MicroMacroSolver,
    MicroMacroState,
    StabilityError,
    _explicit_heat_loop,
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
    (``dstebz`` at abstol 0) and one ``dstein`` call for all kept modes.

    The eigenpairs of a window are then taken from Rayleigh-Ritz on its
    vectors with ``B``'s quadratic form over their jumps, whose entries carry
    no cancellation: bisection's absolute error of about 1e-17 would cost 1e-8
    of the gains over 1e9 steps, and ``dstein`` leaves close modes mixed by
    about 1e-16 / gap.  The windows reach 8 times past the kept modes, as
    those mix with their next neighbours too.  Windows of more than 256 modes
    keep ``dstein``'s pairs: their horizons are too short for either error to
    show.  Like the program, it evaluates on the data scaled by the power of
    two that puts their max in [1, 2), so subnormal data keep their digits."""
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
    weights = -r * np.r_[0.5 * a_if[0], a_if[1:-1], 0.5 * a_if[-1]]
    reach = min(8.0 * (1.0 - 1e-17 ** (1.0 / (n_steps - 1))), 1.0)
    u0 = problem.initial(mesh.centers)
    shift = math.frexp(np.max(np.abs(u0)))[1] - 1
    u0 = np.ldexp(u0, -shift)
    final = np.zeros(n_cells)
    for lower, upper in ((-reach, 1.0), (-3.0, reach - 2.0)):
        found, mu, block, split, info = dstebz(diag, off, 1, lower, upper, 0, 0, 0.0, b"B")
        assert info == 0
        if found:
            z, info = dstein(diag, off, mu[:found], block, split)
            assert info == 0
            jumps = np.diff(np.concatenate((-z[:1], z, -z[-1:])), axis=0)
            if found <= 256:
                mu, rotation = np.linalg.eigh(jumps.T @ (weights[:, None] * jumps))
                z = z @ rotation
            else:
                mu = weights @ (jumps * jumps)
            # |1 + mu| from log1p of mu or, below -1, of -2 - mu, both exact
            below = mu < -1.0
            with np.errstate(divide="ignore"):  # no gain at mu = -1
                gains = np.exp((n_steps - 1) * np.log1p(np.where(below, -2.0 - mu, mu)))
            gains *= np.where(below & (n_steps % 2 == 0), -1.0, 1.0) * (1.0 + last_ratio * mu)
            final += (gains * (u0 @ z)) @ z.T
    return np.ldexp(final, shift)


def test_reference_at_a_long_horizon_matches_full_precision_modes(monkeypatch):
    # the benchmark's figure1 case: 419,431 steps, so each gain is a power
    # (1 + mu)**419430 and an eigenvalue error is amplified by the step count
    solves = []

    def recording_dpttrs(*args, **kwargs):
        solves.append(args)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(solvers, "dpttrs", recording_dpttrs)
    problem = benchmark_problem(0.01, t_end=0.005)
    res = run_reference(problem, 2048)
    assert res.steps == 419431
    assert 0 < len(solves) <= 64  # one tridiagonal solve per basis vector, far fewer than cells
    expected = _full_precision_reference(problem, 2048, 0.05)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale  # measured 1.5e-11


def test_reference_at_a_very_long_horizon_matches_full_precision_modes():
    # 1.34e9 steps on 8192 cells: an eigenvalue error of 1e-19 already moves
    # the slowest gain by 1e-10, so only Rayleigh quotients are accurate enough;
    # at eps = 0.003 the projection ends at the stall exit, at 20 vectors
    for eps in (0.01, 0.003):
        problem = benchmark_problem(eps, t_end=1.0)
        res = run_reference(problem, 8192)
        assert res.steps == 1342177280
        expected = _full_precision_reference(problem, 8192, 0.05)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale  # 1.5e-11, 5.7e-11


@settings(max_examples=5, deadline=None)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    eps=st.floats(0.01, 1.0),
    n=st.integers(128, 1024),
    log_steps=st.floats(1.0, 6.0),
    last_share=st.floats(0.05, 1.0),
    dt_share=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    sines=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    box=st.floats(0.0, 1.0),
)
@example(  # subnormal data: 4 ulps off before its scaled evaluation, against a bound of 5
    c0=1.0, p=0.0, r=0.0, eps=1.0, n=128, log_steps=1.0, last_share=1.0, dt_share=1.0,
    sines=[0.0], box=2.2250738585e-313,
)
def test_reference_matches_full_precision_modes(
    c0, p, r, eps, n, log_steps, last_share, dt_share, sines, box
):
    # far more cells than the Krylov basis takes vectors, from 10 to 1e6
    # steps, at the stability bound (dt_share 1) and below it; a box in the
    # data excites every mode
    coefficient = DiffusionField(
        func=lambda x, y: c0
        + p * np.sin(2.0 * np.pi * y)
        + r * np.cos(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y),
        a_min=c0 - abs(p) - abs(r),
        a_max=c0 + abs(p) + abs(r),
    )
    dt_factor = dt_share / (2.0 * coefficient.a_max)
    dt = dt_factor / n**2

    def initial(x):
        x = np.asarray(x, dtype=float)
        smooth = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(sines))
        return smooth + box * ((x > 0.3) & (x < 0.6))

    t_end = (round(10.0**log_steps) - 1 + last_share) * dt
    problem = ProblemSpec(coefficient=coefficient, epsilon=eps, initial=initial, t_end=t_end)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # under-resolved oscillation
        res = run_reference(problem, n, dt_factor=dt_factor)
    expected = _full_precision_reference(problem, n, dt_factor)
    # a field decayed below 1e-5 of its start is held to that floor
    scale = max(np.max(np.abs(expected)), 1e-5 * np.max(np.abs(initial(res.mesh.centers))))
    assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale


def test_reference_zero_data_gives_exact_zero():
    problem = dataclasses.replace(
        benchmark_problem(0.1, t_end=0.01), initial=lambda x: np.zeros(np.shape(x))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_reference(problem, 256)
    assert res.steps > 1
    assert np.all(res.final == 0.0)


def test_reference_warns_when_underresolved():
    problem = benchmark_problem(0.01, t_end=1e-5)
    with pytest.warns(UserWarning, match="under-resolves"):
        run_reference(problem, 128)


def test_reference_rejects_unstable_dt():
    with pytest.raises(ConfigError):
        run_reference(benchmark_problem(0.5, t_end=0.01), 64, dt_factor=0.9)
    with pytest.raises(ConfigError):
        run_reference(_heat_problem(), 64, dt_factor=0.0)


def _huge_problem(amplitude, coefficient=None):
    # wall-compatible data, zero at the walls, of a size near the largest double
    return ProblemSpec(
        coefficient=benchmark_problem(0.1).coefficient if coefficient is None else coefficient,
        epsilon=0.1,
        initial=lambda x: np.where((x > 0) & (x < 1), amplitude, 0.0) * np.sin(np.pi * x),
        t_end=0.01,
    )


# numpy's overflow and inf - inf warnings come before the guards; the suite makes them errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reference_detects_blowup():
    # a validated dt keeps the reference bounded by its data, so its final-state guard is
    # reached by the shared evaluation at 4 times the stability bound: a box excites modes
    # with |1 + mu| up to 7, which overflow within 1280 steps
    mesh = make_spatial_mesh(16)
    u0 = 1.0 * ((mesh.centers > 0.3) & (mesh.centers < 0.6))
    with pytest.raises(StabilityError, match="non-finite field at the final step"):
        _explicit_heat_loop(u0, np.ones(17), mesh.dx, 2.0 * mesh.dx**2, 10.0)


def test_reference_overflow_trips_the_final_state_guard(monkeypatch):
    # the final-state guard, reached from run_reference: a projection whose Ritz vectors are
    # stretched grows data near the largest double past it as they are scaled back
    problem = dataclasses.replace(_huge_problem(1e308), t_end=1e-5)
    assert np.all(np.isfinite(run_reference(problem, 256).final))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (lambda t, s: (t, 1.5 * s))(*eigh(a)))
    with pytest.raises(StabilityError, match="non-finite field at the final step"):
        run_reference(problem, 256)


@pytest.mark.filterwarnings("ignore:n_cells=128 under-resolves")
def test_reference_box_at_the_largest_double_stays_finite():
    # the projection's rounding lifts a plateau past max|u0|, which scaled back
    # would overflow; the final state is capped at it, to rounding
    largest = np.finfo(float).max
    for n_cells in (128, 1024, 4096):
        for t_end in (1e-6, 1e-5, 1e-4):
            fields = []
            for amplitude in (largest, largest * 2.0**-23):
                problem = dataclasses.replace(
                    benchmark_problem(0.1, t_end=t_end),
                    initial=lambda x, a=amplitude: np.where((x > 0.3) & (x < 0.6), a, 0.0),
                )
                fields.append(run_reference(problem, n_cells).final)
            box, small = fields
            assert np.all(np.isfinite(box)) and np.max(np.abs(box)) <= largest
            away = np.abs(box) < largest  # off the cap
            assert np.max(np.abs(box - small * 2.0**23)[away]) <= 1e-13 * largest


def test_huge_data_scale_exactly():
    # |g|_2 overflows past about 1e307 on 256 cells; the runs evaluate on g scaled
    # by a power of two, so they are the 1e307 runs scaled
    hom = sample_coefficient(
        benchmark_problem(0.1).coefficient, make_spatial_mesh(64), make_cell_mesh(16)
    ).hom
    base_ref = run_reference(_huge_problem(1e307), 256).final
    base_hmm = run_homogenized(_huge_problem(1e307), hom).final
    for amplitude in (5e307, 1.7e308):
        ref = run_reference(_huge_problem(amplitude), 256).final
        expected = base_ref * (amplitude / 1e307)
        assert np.max(np.abs(ref - expected)) <= 1e-13 * np.max(np.abs(expected))  # 2.2e-14
    hmm = run_homogenized(_huge_problem(5e307), hom)
    assert np.max(np.abs(hmm.final - 5.0 * base_hmm)) <= 1e-13 * np.max(np.abs(hmm.final))
    # at 1.7e308 the final field is finite, but its gradient, about 5e308, is not
    with pytest.raises(StabilityError, match="non-finite corrector"):
        run_homogenized(_huge_problem(1.7e308), hom)


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


def _split_update(solver, state, dt):
    """The split update by one dt, transcribed by hand from the public operators: the
    micro, macro and companion fields."""
    eps, ops = solver.epsilon, solver.ops
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
    return g_new, f_new, state.effective + dt * ops.apply_effective(state.effective)


def test_emm_one_step_matches_update_formula():
    """Transcribe the split update once by hand and demand bitwise agreement."""
    eps = 0.7
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 32, 16)
    state = solver.step(solver.initial_state())  # nonzero micro going in
    out = solver.step(state)

    g_new, f_new, e_new = _split_update(solver, state, solver.dt)
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13
    assert np.max(np.abs(out.effective - e_new)) <= 1e-13


def test_emm_one_step_matches_update_formula_xdep():
    """The same transcription on an x-dependent coefficient, where every x-slice
    has its own block in the fast solve, at an eps with 0 < exp(-dt/eps**2) < 1."""
    eps = 0.3
    problem = dataclasses.replace(benchmark_problem(eps, t_end=1.0), coefficient=X_DEPENDENT)
    solver = MicroMacroSolver(problem, 32, 8)
    assert problem.bc_mode == "dirichlet_corrector" and not solver.tables.x_uniform
    state = solver.step(solver.initial_state())  # nonzero micro going in
    out = solver.step(state)

    assert 0.0 < math.exp(-solver.dt / eps**2) < 1.0
    g_new, f_new, e_new = _split_update(solver, state, solver.dt)
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13
    assert np.max(np.abs(out.effective - e_new)) <= 1e-13


# sin(4 pi y) breaks the symmetry about y = 1/4 that makes the wall sums of a*chi vanish
SKEWED = DiffusionField(
    func=lambda x, y: 1.3 + 0.5 * np.sin(2.0 * np.pi * y) + 0.3 * np.sin(4.0 * np.pi * y),
    a_min=0.1,
    a_max=2.5,
)
SKEWED_X = DiffusionField(
    func=lambda x, y: SKEWED.func(x, y) + 0.3 * np.sin(np.pi * x) * np.cos(2.0 * np.pi * y),
    a_min=0.1,
    a_max=2.5,
)


@pytest.mark.parametrize("coeff", [SKEWED, SKEWED_X], ids=["x_uniform", "x_dependent"])
@pytest.mark.parametrize(
    "bc_mode, share",
    [
        pytest.param("dirichlet_homogeneous", 1.0, id="homogeneous"),
        pytest.param("dirichlet_corrector", 0.37, id="corrector-shortened"),
        pytest.param("dirichlet_homogeneous", 0.37, id="homogeneous-shortened"),
    ],
)
def test_emm_one_step_matches_update_formula_cases(coeff, bc_mode, share):
    # the step holds one band per step size with the wall data folded in: G's wall sums
    # (of a*chi, nonzero here), zero wall traces and sums with homogeneous walls, and a dt
    # other than the full one
    eps = 0.3
    problem = dataclasses.replace(benchmark_problem(eps, 1.0, bc_mode), coefficient=coeff)
    solver = MicroMacroSolver(problem, 32, 8)
    assert solver.tables.x_uniform == (coeff is SKEWED)
    corrector = bc_mode == "dirichlet_corrector"
    assert (np.min(np.abs(solver._wall_sums)) > 1e-3) == corrector
    state = solver.step(solver.initial_state())  # nonzero micro going in
    assert np.max(np.abs(state.micro)) > 0.0
    dt = share * solver.dt
    out = solver.step(state, dt)

    g_new, f_new, e_new = _split_update(solver, state, dt)
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13
    assert np.max(np.abs(out.effective - e_new)) <= 1e-13


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
    e_new = state.effective + dt * ops.apply_effective(state.effective)
    assert np.max(np.abs(out.effective - e_new)) <= 1e-13


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


@pytest.mark.parametrize("ny", [6, 10, 12, 16])
def test_emm_constant_coefficient_keeps_g_at_wall_rounding(ny):
    # a constant a has no corrector, so G stays exactly 0. F's coupling rows were constant
    # up to an inexact slice mean at these ny, and the solve's rounding of them tripped the
    # fast-average drift guard (exit 1 from `apmm run`); the corrector was about 1e-16
    eps = 1e-3
    problem = ProblemSpec(
        coefficient=constant_coefficient(1.3),
        epsilon=eps,
        initial=lambda x: np.sin(2 * np.pi * x),
        t_end=0.01,
    )
    solver = MicroMacroSolver(problem, 8, ny)
    assert np.max(np.abs(solver.tables.hom.chi)) == 0.0
    assert np.max(np.abs(solver.tables.hom.chi_walls)) == 0.0
    assert np.max(np.abs(solver.run().final_micro)) == 0.0


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


@pytest.mark.parametrize(
    "eps, nx, t_end",
    [
        pytest.param(1.0, 32, 0.01, id="1.0"),
        pytest.param(0.1, 32, 0.01, id="0.1"),
        pytest.param(1e-6, 32, 0.01, id="1e-06"),
        pytest.param(1e-300, 32, 0.01, id="1e-300"),
        pytest.param(0.3, 32, 0.01, id="0.3-kick"),  # corrector walls, 0 < w < 1, kick != 0
        pytest.param(0.3, 4, 0.31, id="0.3-nx4"),  # both one-sided wall rows reach every row
        pytest.param(1e-6, 4, 0.31, id="1e-06-nx4"),
    ],
)
def test_emm_fast_solve_paths_agree(eps, nx, t_end):
    # an x-uniform run takes its step as three products with cached matrices; the same run
    # with per-slice stencils and solves, as for an x-dependent coefficient, must agree
    problem = benchmark_problem(eps, t_end=t_end)
    shared, per_slice = MicroMacroSolver(problem, nx, 8), MicroMacroSolver(problem, nx, 8)
    assert shared.tables.x_uniform and shared.ops._blocks == 1
    per_slice.ops = GridOperators(dataclasses.replace(shared.tables, x_uniform=False))
    assert per_slice.ops._blocks == nx
    assert problem.bc_mode == "dirichlet_corrector" and np.max(np.abs(shared._wall_totals)) > 0.0
    if eps == 0.3:
        assert 0.0 < math.exp(-shared.dt / eps**2) < 1.0  # the kick term is on
    a, b = shared.run(), per_slice.run()
    assert a.steps == b.steps > 20
    assert 0.0 < t_end - (a.steps - 1) * shared.dt < shared.dt  # a shortened last step
    for x, y in ((a.final_macro, b.final_macro), (a.final_micro, b.final_micro)):
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(x))


def test_emm_blend_stays_out_of_the_effective_operator():
    # the step blends the stiffness weight into the band's F-block in place: the E-block,
    # which apply_effective reads, must stay K, and no step may depend on earlier steps' dt
    problem = benchmark_problem(0.1, t_end=0.01)
    solver = MicroMacroSolver(problem, 16, 8)
    assert 0.0 < math.exp(-solver.dt / 0.1**2) < 1.0
    solver.run()  # its full steps and a shortened last one
    fresh = GridOperators(solver.tables)
    f, bc = np.sin(3.0 * solver.xmesh.centers), (0.4, -1.1)
    assert np.array_equal(solver.ops.apply_effective(f, bc), fresh.apply_effective(f, bc))
    state = solver.step(solver.initial_state())
    for share in np.linspace(0.5, 1.0, 50, endpoint=False):
        dt = share * solver.dt
        other = MicroMacroSolver(problem, 16, 8)
        want, state = other.step(state, dt=dt), solver.step(state, dt=dt)
        assert np.array_equal(state.macro, want.macro)
        assert np.array_equal(state.micro, want.micro)


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


@pytest.mark.parametrize("eps", [1e-310, 1e-320, 5e-324])
def test_emm_runs_at_subnormal_eps(eps, emm_eps_1e11):
    # 1/eps overflows here: the right wall's fast coordinate and the
    # reconstruction's were NaN, and the first step's fields non-finite
    res = run_micro_macro(benchmark_problem(eps, t_end=0.001), 32, 8)
    g = res.final_micro
    assert np.all(np.isfinite(res.final_macro)) and np.all(np.isfinite(g))
    assert np.max(np.abs(g.mean(axis=-1))) <= 1e-11 * np.max(np.abs(g))
    base = emm_eps_1e11.final_macro
    assert np.max(np.abs(res.final_macro - base)) <= 1e-11 * np.max(np.abs(base))
    # G/eps keeps its corrector size, up to subnormal rounding: measured 1.0 .. 1.34
    assert 0.0 < np.max(np.abs(g)) <= 1.5 * eps
    fine = make_spatial_mesh(256)
    u = reconstruct_micro_macro(res.final_macro, g, eps, res.xmesh, fine)
    assert np.all(np.isfinite(u))


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


@pytest.mark.parametrize("x_uniform", [True, False], ids=["products", "per_slice"])
def test_emm_fast_average_drift_trips_the_guard(monkeypatch, x_uniform):
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8)
    if x_uniform:  # F's row of M_1 gives every slice of G' the mean 1e-3 * F
        build = solver.ops._step_matrices

        def drifting_matrices(s, eps):
            m = build(s, eps)
            m[1, -1, :-2] += 1e-3
            return m

        monkeypatch.setattr(solver.ops, "_step_matrices", drifting_matrices)
    else:
        solver.ops = GridOperators(dataclasses.replace(solver.tables, x_uniform=False))
        factor = solver.ops._factor
        monkeypatch.setattr(
            solver.ops, "_factor", lambda s: lambda rows, solve=factor(s): solve(rows) + 1e-3
        )
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


@pytest.mark.parametrize("share", [0.0, -1.0, math.nan, math.inf, 10.0, 1e-306])
def test_emm_step_rejects_bad_dt(share, monkeypatch):
    # 0 divided by zero, a negative dt failed in dpttrf, nan and inf only after
    # a full step's work, 10*dt ran past the stability bound, and a subnormal
    # dt overflowed s = (eps/dt)*eps
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8)
    state = solver.initial_state()

    def built(*args):
        raise AssertionError("a step operator was built")

    for name in ("_factor", "_step_matrices", "_blended_band"):
        monkeypatch.setattr(GridOperators, name, built)
    with pytest.raises(ValueError, match="dt must satisfy"):
        solver.step(state, dt=share * solver.dt)
    assert solver._held is None  # rejected before any work


def test_emm_run_keeps_small_caches():
    # the operators keep only what their tables give, written once; the solver holds the
    # step operators of one step size at a time, and none once a run ends
    eps, t_end = 0.1, 0.01
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=t_end), 16, 8)
    for x_uniform in (True, False):  # the step's matrices, or the fast solve per slice
        tables = dataclasses.replace(solver.tables, x_uniform=x_uniform)
        solver.ops = ops = GridOperators(tables)
        kept = dict(vars(ops))
        arrays = {name: v.copy() for name, v in kept.items() if isinstance(v, np.ndarray)}
        assert arrays["_effective_band"].shape == (7, 16 + 2)
        res = solver.run()
        assert 0.0 < t_end - (res.steps - 1) * solver.dt < solver.dt  # a shortened last step
        assert solver._held is None
        solver.run(n_steps=2)
        assert solver._held is None
        # 50 distinct step sizes: each step's operators are freed by the next
        state, held = solver.initial_state(), None
        for share in np.linspace(0.5, 1.0, 50, endpoint=False):
            state = solver.step(state, dt=share * solver.dt)
            assert solver._held[0] == share * solver.dt
            assert held is None or held() is None
            held = weakref.ref(solver._held[3])
        assert vars(ops).keys() == kept.keys()
        assert all(vars(ops)[name] is value for name, value in kept.items())
        assert all(np.array_equal(kept[name], copy) for name, copy in arrays.items())
        assert np.array_equal(ops._effective_band, GridOperators(tables)._effective_band)


def test_emm_rejects_a_horizon_past_the_step_cap():
    # t_end = 1e300 was about 1e304 steps, stepped one by one: a hang
    problem = benchmark_problem(0.1, t_end=1e300)
    with pytest.raises(ConfigError, match="t_end"):
        MicroMacroSolver(problem, 16, 8)
    # the cap itself: 2**24 steps are allowed, one more is not
    dt = 0.2 / 16**2
    MicroMacroSolver(dataclasses.replace(problem, t_end=2**24 * dt), 16, 8)
    with pytest.raises(ConfigError, match="t_end"):
        MicroMacroSolver(dataclasses.replace(problem, t_end=(2**24 + 1) * dt), 16, 8)


def test_emm_rejects_unstable_dt():
    with pytest.raises(ConfigError):
        MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8, dt_factor=0.5)
    with pytest.raises(ConfigError):
        MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8, dt_factor=-0.2)


def test_emm_detects_blowup():
    # finite data near the largest double overflow in the first step, on both slice layouts,
    # from step() and run(): numpy warns of none of it, so under the suite's error filter the
    # step's own guard reports it, and the caller's error state is restored
    errors = np.geterr()
    for coefficient in (None, X_DEPENDENT):
        solver = MicroMacroSolver(_huge_problem(1e308, coefficient), 16, 8)
        assert solver.ops._blocks == (1 if coefficient is None else 16)
        with pytest.raises(StabilityError, match="non-finite field at step 1 "):
            solver.step(solver.initial_state())
        with pytest.raises(StabilityError, match="non-finite field at step 1 "):
            solver.run()
        assert np.geterr() == errors


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
