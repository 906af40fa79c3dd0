"""Time-integrator tests: analytic limits, structural identities, guards.

The micro-macro update is additionally pinned against a literal transcription
of its own one-step formula, so any accidental reordering of the blended
terms shows up even where the dynamics would hide it.
"""

import dataclasses
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dasum, dgemv, dnrm2
from scipy.linalg.lapack import dpttrs, dstebz, dstein

from apmm import solvers
from apmm.homogenization import first_order_corrector
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, y_average
from apmm.harness import ap_degeneracy_study
from apmm.problem import (
    BC_MODES,
    ConfigError,
    DiffusionField,
    EllipticityError,
    ProblemSpec,
    _cell_corrector,
    benchmark_problem,
    constant_coefficient,
    sample_coefficient,
)
from apmm.reconstruct import fast_coordinate, reconstruct_micro_macro
from apmm.solvers import (
    MicroMacroSolver,
    MicroMacroState,
    StabilityError,
    _explicit_heat_loop,
    _time_grid,
    run_homogenized,
    run_reference,
)
from oracle import (
    apply_effective, apply_mixed_derivatives, apply_x_diffusion, boundary_data, remove_y_average,
    split_update, step_by, stepped, trig_interpolate,
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
    mesh = make_spatial_mesh(256)
    a_if = problem.coefficient(mesh.interfaces, np.mod(mesh.interfaces / problem.epsilon, 1.0))
    dt = dt_factor / 256**2
    for t_end in (dt, 0.3 * 0.0017, 0.0017):
        horizon = dataclasses.replace(problem, t_end=t_end)
        res = run_reference(horizon, 256, dt_factor=dt_factor)
        expected, n_steps = stepped(problem.initial(mesh.centers), a_if, mesh.dx, dt, t_end)
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


def test_reference_refines_slow_pairs_on_a_small_mesh(monkeypatch):
    # 15.7 M steps on 512 cells: the screen finds no slow pair at the first checks and one at
    # the last two, so one run takes both sides of its empty-set exit; 8.0e-13 measured
    # (9.3e-12 with theta left unrefined)
    flatnonzero, slow_counts = np.flatnonzero, []

    def recording_flatnonzero(a):
        slow_counts.append(np.count_nonzero(a))
        return flatnonzero(a)

    problem = benchmark_problem(0.1, t_end=3.0)
    with monkeypatch.context() as patch:
        patch.setattr(np, "flatnonzero", recording_flatnonzero)
        res = run_reference(problem, 512)
    assert slow_counts[0] == 0 and slow_counts[-1] > 0
    expected = _full_precision_reference(problem, 512, 0.05)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale


def test_reference_projection_traced_peak_at_figure1_scale():
    # figure1's reference, 2048 cells and 419,431 steps: the 28-row basis plus about a dozen
    # vectors, 586,331 bytes traced; one more held 2048-cell vector (16 KB) breaks the bound
    problem = benchmark_problem(0.01, t_end=0.005)
    mesh = make_spatial_mesh(2048)
    x_if = mesh.interfaces
    a_if = problem.coefficient(x_if, fast_coordinate(x_if, problem.epsilon))
    u0 = np.array(problem.initial(mesh.centers), dtype=float)
    grid = _time_grid(problem.t_end, 0.05, mesh.dx, problem.coefficient.a_max)
    tracemalloc.start()
    try:
        _explicit_heat_loop(u0, a_if, mesh.dx, *grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600_000


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


def test_reference_checks_its_coefficient_samples():
    # the samples on the fine interfaces are checked as sample_coefficient checks its tables;
    # unchecked, a coefficient of -1 ran 820 steps to max|final| = 3.3e44, as dt's stability
    # bound holds only for samples within the declared a_max
    for func, message in (
        (lambda x, y: -1.0 + 0.0 * x * y, "has non-positive entry"),
        (lambda x, y: 3.0 + 0.0 * x * y, "leaves declared bounds"),
        (lambda x, y: np.where(x > 0.5, np.nan, 1.5) + 0.0 * y, "contains non-finite entries"),
    ):
        problem = ProblemSpec(
            coefficient=DiffusionField(func, a_min=1.0, a_max=2.0),
            epsilon=1.0,
            initial=lambda x: np.sin(np.pi * x),
            t_end=0.01,
        )
        with pytest.raises(EllipticityError, match=f"'reference interfaces' {message}"):
            run_reference(problem, 64)
        with pytest.raises(EllipticityError):
            MicroMacroSolver(problem, 16, 8)


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
        _explicit_heat_loop(u0, np.ones(17), mesh.dx, 2.0 * mesh.dx**2, 1280, 2.0 * mesh.dx**2)


def test_reference_overflow_trips_the_final_state_guard(monkeypatch):
    # the final-state guard, reached from run_reference: a projection whose Ritz vectors are
    # stretched grows data near the largest double past it as they are scaled back
    problem = dataclasses.replace(_huge_problem(1e308), t_end=1e-5)
    assert np.all(np.isfinite(run_reference(problem, 256).final))
    dsyevd = solvers.dsyevd
    monkeypatch.setattr(
        solvers, "dsyevd", lambda a, **kw: (lambda t, s, info: (t, 1.5 * s, info))(*dsyevd(a, **kw))
    )
    with pytest.raises(StabilityError, match="non-finite field at the final step"):
        run_reference(problem, 256)


def test_reference_raises_when_the_ritz_eigensolver_fails(monkeypatch):
    # a nonzero LAPACK info is an error, as np.linalg.eigh reports it
    dsyevd = solvers.dsyevd
    monkeypatch.setattr(solvers, "dsyevd", lambda a, **kw: (*dsyevd(a, **kw)[:2], 3))
    with pytest.raises(np.linalg.LinAlgError, match="dsyevd failed with info=3"):
        run_reference(benchmark_problem(0.1, t_end=1e-4), 256)


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
    )
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
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(64), make_cell_mesh(8))
    u_hmm = run_homogenized(problem, hom, dt_factor=0.2)
    u_ref = run_reference(problem, 64, dt_factor=0.2)
    assert u_hmm.steps == u_ref.steps
    assert np.max(np.abs(u_hmm.final - u_ref.final)) <= 1e-13  # measured 0
    assert np.max(np.abs(u_hmm.corrector)) <= 1e-14  # measured <= 3.4e-16


def test_homogenized_analytic_decay():
    problem = benchmark_problem(0.1, t_end=0.02)
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(64), make_cell_mesh(16))
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
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(16), make_cell_mesh(8))
    res = run_homogenized(problem, hom)
    assert np.max(np.abs(res.final)) == 0.0
    assert np.max(np.abs(res.corrector)) == 0.0


def test_homogenized_rejects_inf_initial_data():
    problem = _inf_initial_problem()
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(16), make_cell_mesh(8))
    with pytest.raises(StabilityError, match="non-finite initial data"):
        run_homogenized(problem, hom)


def test_homogenized_corrector_consistency():
    problem = benchmark_problem(0.1, t_end=0.002)
    hom = sample_coefficient(problem.coefficient, make_spatial_mesh(32), make_cell_mesh(16))
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
    """Set-up and a first step evaluate the coefficient only inside sample_coefficient, in
    three calls, whose cell data are one corrector build over the centre and wall rows."""
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
    assert calls["inside"] == 3
    assert calls["outside"] == 0
    assert calls["corrector"] == 1


def test_emm_one_step_matches_update_formula():
    """Transcribe the split update once by hand and demand bitwise agreement."""
    eps = 0.7
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 32, 16)
    state = solver.step(solver.initial_state())  # nonzero micro going in
    out = solver.step(state)

    f_new, g_new, e_new = split_update(solver, state, solver.dt)
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
    f_new, g_new, e_new = split_update(solver, state, solver.dt)
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13
    assert np.max(np.abs(out.effective - e_new)) <= 1e-13


@pytest.mark.parametrize("bc_mode", BC_MODES)
def test_emm_x_dependent_kernel_matches_the_update_formula_every_step(bc_mode):
    # one bound kernel runs several steps in its held buffers, G' going into G's buffer of the
    # step before: after every step its fields match the oracle's update of a copy of the state
    # before it, so a buffer read after it was overwritten, or shared where it must not be,
    # shows; four full steps, then two shortened ones with the kernel of their step size
    problem = dataclasses.replace(benchmark_problem(0.3, 1.0, bc_mode), coefficient=X_DEPENDENT)
    solver = MicroMacroSolver(problem, 16, 8)
    assert solver.ops._blocks == 16
    held = solver._load(solver.initial_state())
    for dt, steps in ((solver.dt, 4), (0.37 * solver.dt, 2)):
        advance = solver._stepper(held, solver._step_operators(dt))
        for _ in range(steps):
            before = MicroMacroState(
                held.macro.copy(), held.micro.copy(), held.effective.copy(), held.t, held.step
            )
            advance()
            f_new, g_new, e_new = split_update(solver, before, dt)
            assert held.step == before.step + 1 and np.max(np.abs(g_new)) > 0.0
            for got, want in ((held.micro, g_new), (held.macro, f_new), (held.effective, e_new)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    out = step_by(solver, state, dt)

    f_new, g_new, e_new = split_update(solver, state, dt)
    assert np.max(np.abs(out.micro - g_new)) <= 1e-13
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13
    assert np.max(np.abs(out.effective - e_new)) <= 1e-13


@pytest.mark.parametrize("bc_mode", BC_MODES)
@pytest.mark.parametrize("nx", [4, 5, 7, 16])
def test_emm_wall_rows_match_public_operators(nx, bc_mode):
    # the x-uniform wall rows read U's three rows next to each wall through blocks with U's ghost
    # rows 2*wall - first folded in: at nx = 4 the two walls' rows overlap, at odd nx they meet
    # the interior rows off the middle. A random mean-free micro field and distinct companion
    # ends make every block and both walls' data count, for a full and a shortened step
    problem = dataclasses.replace(benchmark_problem(0.3, 1.0, bc_mode), coefficient=SKEWED)
    solver = MicroMacroSolver(problem, nx, 8)
    assert solver.ops._blocks == 1
    rng = np.random.default_rng(nx)
    state = MicroMacroState(
        rng.standard_normal(nx), remove_y_average(rng.standard_normal((nx, 8))),
        rng.standard_normal(nx), t=0.0, step=0,
    )
    for share in (1.0, 0.37):
        out = step_by(solver, state, share * solver.dt)
        f_new, g_new, e_new = split_update(solver, state, share * solver.dt)
        for got, want in ((out.micro, g_new), (out.macro, f_new), (out.effective, e_new)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_emm_underflow_regime_reduces_exactly():
    # dt/eps^2 ~ 5e11: the stiff weight underflows and the slow update is
    # exactly the asymptotic one
    eps = 1e-8
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 64, 16)
    assert math.exp(-solver.dt / eps**2) == 0.0
    state = solver.step(solver.initial_state())
    out = solver.step(state)

    ops, dt = solver.ops, solver.dt
    macro_bc, micro_bc = boundary_data(solver, state.effective)
    g_new = split_update(solver, state, dt)[1]  # the fast update, whatever the weight
    f_new = (
        state.macro
        + dt * apply_effective(ops, state.macro, macro_bc)
        + dt * y_average(apply_x_diffusion(ops, g_new, micro_bc))
    )
    assert np.max(np.abs(out.macro - f_new)) <= 1e-13
    e_new = state.effective + dt * apply_effective(ops, state.effective)
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
        euler = euler + solver.dt * y_average(apply_x_diffusion(solver.ops, euler))
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
    assert np.max(np.abs(solver.tables.chi)) == 0.0
    assert np.max(np.abs(solver.tables.chi_walls)) == 0.0
    assert np.max(np.abs(solver.run().final_micro)) == 0.0


def test_emm_single_step_ap_degeneracy():
    # prepared G = -eps L^{-1} (I-Pi) B F: one step lands O(eps) from the
    # explicit homogenized step, with a cleanly linear eps-scaling
    devs = {}
    for eps in (1e-4, 1e-6):
        solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 64, 16)
        f = np.sin(2 * np.pi * solver.xmesh.centers)
        bf = apply_mixed_derivatives(solver.ops, f)
        g = solver.ops._factor(0.0)(eps * remove_y_average(bf))()  # s = 0: the eps -> 0 step
        state = MicroMacroState(macro=f.copy(), micro=g, effective=f.copy(), t=0.0, step=0)
        out = solver.step(state)
        target = f + solver.dt * apply_effective(solver.ops, f)
        devs[eps] = float(np.max(np.abs(out.macro - target)))
    assert devs[1e-4] <= 1e-4  # measured 2.9e-5
    assert 50.0 <= devs[1e-4] / devs[1e-6] <= 200.0  # measured 100.0


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_emm_companion_is_effective_euler_over_a_study(eps):
    # the AP study reads the companion as the dt*K Euler run over all its steps, not one
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=1.0), 64, 16)
    state = solver.initial_state()
    u = state.macro.copy()
    for _ in range(100):
        state = solver.step(state)
        u = u + solver.dt * apply_effective(solver.ops, u)
    assert np.max(np.abs(state.effective - u)) <= 1e-14 * np.max(np.abs(u))  # measured 8.9e-16


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
        pytest.param(1.0, 4, 0.31, id="1.0-nx4"),  # the smallest grid (3 cells is a ValueError)
        pytest.param(0.3, 5, 0.31, id="0.3-nx5"),  # odd grids: the wall blocks share row 3
        pytest.param(1e-6, 7, 0.31, id="1e-06-nx7"),
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
    # the step blends the stiffness weight into the band's F-block in place: the E-block, which
    # the oracle's apply_effective reads, must stay K, and no step may depend on earlier steps' dt
    problem = benchmark_problem(0.1, t_end=0.01)
    solver = MicroMacroSolver(problem, 16, 8)
    assert 0.0 < math.exp(-solver.dt / 0.1**2) < 1.0
    solver.run()  # its full steps and a shortened last one
    fresh = GridOperators(solver.tables)
    f, bc = np.sin(3.0 * solver.xmesh.centers), (0.4, -1.1)
    assert np.array_equal(apply_effective(solver.ops, f, bc), apply_effective(fresh, f, bc))
    state = solver.step(solver.initial_state())
    for share in np.linspace(0.5, 1.0, 50, endpoint=False):
        dt = share * solver.dt
        other = MicroMacroSolver(problem, 16, 8)
        want, state = step_by(other, state, dt), step_by(solver, state, dt)
        assert np.array_equal(state.macro, want.macro)
        assert np.array_equal(state.micro, want.micro)


@pytest.fixture(scope="module")
def emm_eps_1e11():
    return MicroMacroSolver(benchmark_problem(1e-11, t_end=0.001), 32, 8).run()


@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-15, 1e-100, 1e-160, 1e-300])
def test_emm_runs_uniformly_at_tiny_eps(eps, emm_eps_1e11):
    # one fast solve for every eps, also where eps**2 underflows:
    # the micro field stays mean-free and keeps its O(eps) corrector shape
    res = MicroMacroSolver(benchmark_problem(eps, t_end=0.001), 32, 8).run()
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
    res = MicroMacroSolver(benchmark_problem(eps, t_end=0.001), 32, 8).run()
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
            solver.ops,
            "_factor",
            lambda s: lambda rows, *out, bind=factor(s): (
                lambda solve=bind(rows, *out): np.add(solve(), 1e-3, out=rows)
            ),
        )
    with pytest.raises(StabilityError, match="fast-average drift"):
        solver.step(solver.initial_state())


def test_ap_degeneracy_holds_where_eps_squared_underflows():
    # eps**2 underflows here, so s = 0 and the weight is 0: the step is
    # plain effective Euler up to the O(eps) micro and wall terms
    rows = ap_degeneracy_study(eps_values=(1e-100, 1e-160, 1e-300))
    assert [eps for eps, _ in rows] == [1e-100, 1e-160, 1e-300]
    assert all(math.isfinite(dev) and dev <= 1e-12 for _, dev in rows)


@pytest.mark.parametrize("horizon", [7.0 - 1e-10, 7.0, 7.0 + 5e-10, 7.4, 0.3])
def test_emm_step_count(horizon):
    # run() takes t_end's steps, the last one shortened, on the explicit runs' grid: a horizon
    # within 1e-9 steps of an integer k takes k, the last clipped to dt; step() one dt
    problem = benchmark_problem(1.0, t_end=horizon * 0.2 / 16**2)
    solver = MicroMacroSolver(problem, 16, 8)
    res = solver.run()
    assert res.steps == solver._steps == math.ceil(problem.t_end / solver.dt - 1e-9)
    assert 0.0 < solver._last_dt <= solver.dt
    assert run_reference(problem, 16, dt_factor=0.2).steps == res.steps
    state = solver.step(solver.initial_state())
    assert state.step == 1 and state.t == solver.dt


@pytest.mark.parametrize("share", [0.0, -1.0, math.nan, math.inf, 10.0, 1e-306])
def test_emm_step_operators_reject_bad_dt(share, monkeypatch):
    # 0 divided by zero, a negative dt failed in dpttrf, nan and inf only after
    # a full step's work, 10*dt ran past the stability bound, and a subnormal
    # dt overflowed s = (eps/dt)*eps
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8)

    def built(*args):
        raise AssertionError("a step operator was built")

    for name in ("_factor", "_step_matrices", "_blended_band"):
        monkeypatch.setattr(GridOperators, name, built)
    with pytest.raises(ValueError, match="dt must satisfy"):
        solver._step_operators(share * solver.dt)
    assert solver._held is None  # rejected before any work


def test_emm_rejects_a_step_below_the_normal_range():
    # a subnormal dt, or a normal one whose last step is subnormal, overflowed s = (eps/dt)*eps:
    # run() raised the step operators' ValueError, a traceback from `apmm run`
    problem = benchmark_problem(0.1, t_end=1e-305)
    with pytest.raises(ConfigError, match="a subnormal step"):
        MicroMacroSolver(problem, 16, 8, dt_factor=1e-306)  # dt = 3.9e-309
    dt = 1e-297 / 16**2
    last = dataclasses.replace(problem, t_end=dt * (1.0 + 4e-9))  # 4e-9 * dt is subnormal
    with pytest.raises(ConfigError, match="a subnormal step"):
        MicroMacroSolver(last, 16, 8, dt_factor=1e-297)
    # the least normal dt is allowed
    tiny = sys.float_info.min
    solver = MicroMacroSolver(dataclasses.replace(problem, t_end=4 * tiny), 16, 8, 256 * tiny)
    assert solver.dt == tiny and solver.run().steps == 4


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
        # 50 distinct step sizes: each step's operators are freed by the next
        state, held = solver.initial_state(), None
        for share in np.linspace(0.5, 1.0, 50, endpoint=False):
            state = step_by(solver, state, share * solver.dt)
            assert solver._held[0] == share * solver.dt
            assert held is None or held() is None
            held = weakref.ref(solver._held[3])
        assert vars(ops).keys() == kept.keys()
        assert all(vars(ops)[name] is value for name, value in kept.items())
        assert all(np.array_equal(kept[name], copy) for name, copy in arrays.items())
        assert np.array_equal(ops._effective_band, GridOperators(tables)._effective_band)


def _with_layout(solver, x_uniform):
    """The solver on its tables' x-uniform products, or on one block per x-slice."""
    solver.ops = GridOperators(dataclasses.replace(solver.tables, x_uniform=x_uniform))
    return solver


@pytest.mark.parametrize("x_uniform", [True, False], ids=["products", "per_slice"])
def test_emm_run_frees_each_step_size_and_its_buffers(monkeypatch, x_uniform):
    # a run fetches operators twice, for its full steps and its shortened last one, and the
    # full steps' fast solve (or matrices) and band are freed before the last step's are built;
    # once the run ends no working buffer, kernel or step operator of it is alive
    solver = _with_layout(MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8), x_uniform)
    step_operators, load, stepper, factor = (
        solver._step_operators, solver._load, solver._stepper, solver.ops._factor
    )
    fetched, alive_at_builds, operators, working = [], [], [], []

    def fetching(dt):
        held = step_operators(dt)
        fetched.append(dt)
        operators.extend((weakref.ref(held[3]), weakref.ref(held[4])))  # fast and band
        return held

    def factoring(s):  # the first operator every build makes
        alive_at_builds.append([ref() is not None for ref in operators])
        return factor(s)

    def loading(state):
        held = load(state)
        fields = (held.macro, held.micro, held.effective)
        working.extend(weakref.ref(a if a.base is None else a.base) for a in fields)
        return held

    def binding(held, step_operators):
        advance = stepper(held, step_operators)
        working.append(weakref.ref(advance))
        return advance

    monkeypatch.setattr(solver, "_step_operators", fetching)
    monkeypatch.setattr(solver.ops, "_factor", factoring)
    monkeypatch.setattr(solver, "_load", loading)
    monkeypatch.setattr(solver, "_stepper", binding)
    res = solver.run()
    last_dt = 0.01 - (res.steps - 1) * solver.dt
    assert 0.0 < last_dt < solver.dt
    assert fetched == [solver.dt, last_dt]
    assert alive_at_builds == [[], [False, False]]
    assert [ref() for ref in operators + working] == [None] * (len(working) + 2 * len(fetched))
    assert solver._held is None
    again = solver.run()
    results = (res.final_macro, res.final_micro, again.final_macro, again.final_micro)
    for k, a in enumerate(results):
        assert all(not np.shares_memory(a, b) for b in results[k + 1 :])


@pytest.mark.parametrize("x_uniform", [True, False], ids=["products", "per_slice"])
def test_emm_run_starts_from_no_stale_state(x_uniform):
    # neither a run's held buffers nor the operators of other step sizes leak into the next run,
    # and a step leaves its input state as it was
    solver = _with_layout(MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 16, 8), x_uniform)
    first = solver.run()
    results = [solver.run()]
    state = solver.initial_state()
    for share in (0.3, 0.7, 1.0):
        before = [a.copy() for a in (state.macro, state.micro, state.effective)]
        after = step_by(solver, state, share * solver.dt)
        assert all(map(np.array_equal, (state.macro, state.micro, state.effective), before))
        state = after
    results.append(solver.run())
    assert solver.step(state).step == 4
    results.append(solver.run())
    for res in results:
        assert np.array_equal(res.final_macro, first.final_macro)
        assert np.array_equal(res.final_micro, first.final_micro)


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


def test_emm_subnormal_micro_field_is_no_drift():
    # eps = 1e-156 makes eps**2, and with it the micro field, subnormal: the rounding of its
    # slice means is then a few subnormal steps, which the drift guard must not take for drift
    a = DiffusionField(
        func=lambda x, y: 1.0 + 0.05 * np.cos(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y),
        a_min=0.95,
        a_max=1.05,
    )
    for bc_mode in BC_MODES:
        problem = ProblemSpec(a, 1e-156, lambda x: np.sin(np.pi * x) + x * (1.0 - x), bc_mode)
        for nx in (4, 8, 9, 12):
            solver = MicroMacroSolver(problem, nx, 4)
            state = solver.initial_state()
            for _ in range(10):
                state = solver.step(state)
            assert 0.0 < np.max(np.abs(state.micro)) < np.finfo(float).tiny


def _spied_exact_guards(monkeypatch):
    """The step numbers the exact guards are called with; they still decide."""
    calls, exact = [], solvers._exact_guards

    def spy(micro, macro, ones, step, t):
        calls.append(step)
        exact(micro, macro, ones, step, t)

    monkeypatch.setattr(solvers, "_exact_guards", spy)
    return calls


@pytest.mark.parametrize("x_uniform", [True, False], ids=["products", "per_slice"])
def test_emm_healthy_steps_pass_the_guards_screen(monkeypatch, x_uniform):
    # the screen of sums decides every healthy step, in every regime and wall mode, through
    # run(), step() and shortened steps: the exact guards never run
    calls = _spied_exact_guards(monkeypatch)
    for eps in (1.0, 0.1, 0.01, 1e-6):
        for bc_mode in BC_MODES:
            for nx, ny in ((16, 8), (64, 16)):
                problem = benchmark_problem(eps, t_end=0.01, bc_mode=bc_mode)
                solver = _with_layout(MicroMacroSolver(problem, nx, ny), x_uniform)
                assert solver.run().steps > 1
                state = solver.initial_state()
                for share in (1.0, 0.5, 1.0):
                    state = step_by(solver, state, share * solver.dt)
    assert calls == []


@pytest.mark.parametrize("x_uniform", [True, False], ids=["products", "per_slice"])
def test_emm_sum_overflow_takes_the_exact_guards(monkeypatch, x_uniform):
    # every entry stays finite at 2**1021, but sum|F'| (about 10 times max|F'| on 16 cells)
    # overflows: the screen fails on every step and the exact guards pass it; the step is
    # linear, so the fields equal a run at 2**-24 of the data scaled back, bitwise
    calls, k = _spied_exact_guards(monkeypatch), 24
    big = _with_layout(MicroMacroSolver(_huge_problem(2.0**1021), 16, 8), x_uniform).run()
    assert calls == list(range(1, big.steps + 1))
    assert math.isinf(sum(map(abs, big.final_macro.tolist())))  # Python floats: no warning
    small = _with_layout(MicroMacroSolver(_huge_problem(2.0 ** (1021 - k)), 16, 8), x_uniform).run()
    assert len(calls) == big.steps  # the smaller run passed the screen
    assert np.all(np.isfinite(big.final_micro)) and np.max(np.abs(big.final_micro)) > 0.0
    assert np.array_equal(big.final_macro, np.ldexp(small.final_macro, k))
    assert np.array_equal(big.final_micro, np.ldexp(small.final_micro, k))


@pytest.mark.parametrize("share", [0.5, 2.0])
@pytest.mark.parametrize("x_uniform", [True, False], ids=["products", "per_slice"])
def test_emm_drift_near_the_tolerance(monkeypatch, x_uniform, share):
    # a slice mean of share * _MEAN_DRIFT_TOL * max|G'|, injected as in the drift test above:
    # either fails the screen, and the exact guards raise only above the tolerance
    problem = benchmark_problem(0.1, t_end=0.01)
    solver = _with_layout(MicroMacroSolver(problem, 16, 8), x_uniform)
    state = solver.initial_state()
    drift = share * solvers._MEAN_DRIFT_TOL * np.max(np.abs(solver.step(state).micro))
    solver = _with_layout(MicroMacroSolver(problem, 16, 8), x_uniform)  # no held operators
    if x_uniform:  # F's row of M_1 gives slice i of G' the mean c * F_i
        build, c = solver.ops._step_matrices, drift / np.max(np.abs(state.macro))

        def drifting_matrices(s, eps):
            m = build(s, eps)
            m[1, -1, :-2] += c
            return m

        monkeypatch.setattr(solver.ops, "_step_matrices", drifting_matrices)
    else:
        factor = solver.ops._factor
        monkeypatch.setattr(
            solver.ops,
            "_factor",
            lambda s: lambda rows, *out, bind=factor(s): (
                lambda solve=bind(rows, *out): np.add(solve(), drift, out=rows)
            ),
        )
    calls = _spied_exact_guards(monkeypatch)
    if share < 1.0:
        stepped = solver.step(state)
        assert np.all(np.isfinite(stepped.micro)) and stepped.step == 1
    else:
        with pytest.raises(StabilityError, match=r"fast-average drift .* at step 1$"):
            solver.step(state)
    assert calls == [1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_blas_sums_propagate_non_finite_entries(bad):
    # the guards' screen relies on the installed BLAS: a sum of |x|, a 2-norm and a row sum are
    # non-finite whenever an entry is, in every position and kernel block length; the step
    # passes G' F-ordered to dasum and dgemv, as (nx, ny) (x-uniform) or transposed (per slice)
    for size in (*range(1, 18), 64, 1024):
        x = np.ones(size)
        for k in range(size):
            x[k] = bad
            assert not math.isfinite(dasum(x))
            assert not math.isfinite(dnrm2(x))  # of the slice sums
            x[k] = 1.0
        for rows, cols in ((size, 3), (3, size)):
            block = np.ones((rows, cols + 2), order="F")  # a column block, as g[:, :-2]
            a, ones, sums = block[:, :cols], np.ones(cols), np.zeros(rows)
            for i in range(rows):
                for j in range(cols):
                    a[i, j] = bad
                    assert not math.isfinite(dasum(a))
                    dgemv(1.0, a, ones, 0.0, sums, 0, 1, 0, 1, 0, 1)
                    assert not math.isfinite(sums[i])
                    dgemv(1.0, a.copy(order="C").T, ones, 0.0, sums, 0, 1, 0, 1, 1, 1)
                    assert not math.isfinite(sums[i])
                    a[i, j] = 1.0
            assert dasum(a) == rows * cols  # the F-ordered block itself, not its neighbours


def test_emm_x_uniform_step_allocates_no_field():
    # the guards read held buffers: a step's allocations stay far below one (nx, ny) field
    # (0.24 KB measured; the exact guards' |G'| alone is 32 KB)
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 128, 32)
    held = solver._load(solver.initial_state())
    advance = solver._stepper(held, solver._step_operators(solver.dt))
    with np.errstate(over="ignore", invalid="ignore"):
        advance()
        tracemalloc.start()
        try:
            advance()
            advance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert held.step == 3
    assert peak < 128 * 32 * 8 // 4


def test_emm_x_uniform_steps_allocate_nothing():
    # after its first step a bound kernel writes held buffers only: over 100 steps at 64x16
    # the traced peak stays within 1 KB of its start (288 B measured, f2py's returned arrays;
    # 5.6 KB while numpy formed the wall rows' third differences)
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 64, 16)
    held = solver._load(solver.initial_state())
    advance = solver._stepper(held, solver._step_operators(solver.dt))
    with np.errstate(over="ignore", invalid="ignore"):
        advance()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                advance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert held.step == 101
    assert peak - start <= 1024


def test_emm_x_dependent_steps_allocate_no_field():
    # the x-dependent kernel, bound once, writes held buffers only: over 50 steps at 128x32 the
    # traced peak stays far below one (nx, ny) field, 32 KB (about 2 KB measured: np.matmul's
    # iterators, Python's floats and tuples; 167 KB with the kernel's arrays made per step)
    problem = dataclasses.replace(benchmark_problem(0.1, t_end=0.01), coefficient=X_DEPENDENT)
    solver = MicroMacroSolver(problem, 128, 32)
    assert solver.ops._blocks == 128
    held = solver._load(solver.initial_state())
    advance = solver._stepper(held, solver._step_operators(solver.dt))
    with np.errstate(over="ignore", invalid="ignore"):
        advance()  # warms numpy's and BLAS's first-call state
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                advance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert held.step == 51
    assert peak - start <= 128 * 32 * 8 // 8


def test_emm_x_dependent_run_binds_the_fast_solve_once_per_step_size(monkeypatch):
    # G' is solved in G's own buffer, so a run binds the fast solve to it once for its full
    # steps and once for its shortened last step, however many full steps it takes
    base = dataclasses.replace(benchmark_problem(0.1, t_end=1.0), coefficient=X_DEPENDENT)
    dt = MicroMacroSolver(base, 16, 8).dt
    solver = MicroMacroSolver(dataclasses.replace(base, t_end=6.5 * dt), 16, 8)
    assert solver.ops._blocks == 16 and solver._steps == 7 and 0.0 < solver._last_dt < dt
    factor, bound = solver.ops._factor, []

    def factoring(s):
        bind = factor(s)

        def binding(*args):
            bound.append(s)
            return bind(*args)

        return binding

    monkeypatch.setattr(solver.ops, "_factor", factoring)
    solver.run()
    assert len(bound) == 2 and bound[0] < bound[1]  # s = eps**2/dt grows as dt shrinks


@pytest.mark.parametrize("full", [5, 6])
@pytest.mark.parametrize("n_x, n_y", [(16, 8), (128, 32)])
def test_emm_x_dependent_run_equals_its_steps(n_x, n_y, full):
    # run() binds one kernel for its full steps and one for its shortened last step, each
    # solving G' in the working state's own G buffer; step() binds afresh per call.  An odd and
    # an even count of full steps, so that no state of the kernel kept by parity goes unseen
    base = dataclasses.replace(benchmark_problem(0.1, t_end=1.0), coefficient=X_DEPENDENT)
    dt = MicroMacroSolver(base, n_x, n_y).dt
    solver = MicroMacroSolver(dataclasses.replace(base, t_end=(full + 0.5) * dt), n_x, n_y)
    assert solver.ops._blocks == n_x and solver._steps == full + 1
    assert 0.0 < solver._last_dt < dt
    res = solver.run()
    state = solver.initial_state()
    for _ in range(full):
        state = solver.step(state)
    state = step_by(solver, state, solver._last_dt)
    assert state.step == res.steps and np.max(np.abs(state.micro)) > 0.0
    assert np.array_equal(res.final_macro, state.macro)
    assert np.array_equal(res.final_micro, state.micro)


def test_emm_x_uniform_ghost_rows_stay_zero():
    # the wall rows fold U's ghost rows in: the load zeroes them once and no step writes them,
    # with corrector walls feeding nonzero wall data into G
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), 64, 16)
    assert np.max(np.abs(solver._wall_totals)) > 0.0
    held = solver._load(solver.initial_state())
    u = held.micro.base
    assert u.shape == (64 + 2, 16 + 1)
    advance = solver._stepper(held, solver._step_operators(solver.dt))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            advance()
            assert np.all(u[0] == 0.0) and np.all(u[-1] == 0.0)
    assert held.step == 100 and np.max(np.abs(held.micro)) > 0.0


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_emm_x_uniform_run_holds_no_full_coefficient_tables():
    # an x-uniform solver holds each coefficient table and the corrector as one row: after a run
    # neither the solver, its operators nor the result's cell data keep an (nx, ny) coefficient
    # or corrector buffer
    nx, ny = 64, 16
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01), nx, ny)
    res = solver.run()
    tables = solver.tables
    assert tables.x_uniform and res.hom is tables and tables.chi.shape == (nx, ny)
    held = [tables.centers, tables.x_interfaces, tables.y_interfaces]
    held += [tables.a0_interfaces, tables.chi, tables.chi_walls]
    held += [v for o in (solver, solver.ops) for v in vars(o).values() if isinstance(v, np.ndarray)]
    assert all(_root(a).nbytes < nx * ny * 8 for a in held)
    assert _root(tables.chi).nbytes <= 6 * ny * 8  # the tables' three rows, chi's and the walls'


def test_emm_guards_screen_keeps_its_margin_on_a_large_grid(monkeypatch):
    # the screen bounds the slice sums' max by their 2-norm, so healthy steps pass it also at
    # 1024x128, where the screen on sum|r| sent steps 1 to 5 to the exact guards
    calls = _spied_exact_guards(monkeypatch)
    solver = MicroMacroSolver(benchmark_problem(0.01, t_end=0.01), 1024, 128)
    assert solver.ops._blocks == 1
    held = solver._load(solver.initial_state())
    advance = solver._stepper(held, solver._step_operators(solver.dt))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(10):
            advance()
    assert held.step == 10
    assert calls == []


def test_emm_rejects_inf_initial_data():
    solver = MicroMacroSolver(_inf_initial_problem(), 16, 8)
    with pytest.raises(StabilityError, match="non-finite initial data"):
        solver.run()


def test_emm_homogeneous_walls_mode():
    # boundary data collapses to zeros in dirichlet_homogeneous mode
    solver = MicroMacroSolver(benchmark_problem(0.1, t_end=0.01, bc_mode="dirichlet_homogeneous"), 16, 8)
    macro_bc, micro_bc = boundary_data(solver, solver.initial_state().effective)
    assert macro_bc == (0.0, 0.0)
    assert np.max(np.abs(micro_bc[0])) == 0.0
    assert np.max(np.abs(micro_bc[1])) == 0.0


def test_emm_corrector_walls_cancel_totals():
    # corrector mode: macro trace compensates the micro profile at the wall's
    # own fast coordinate, so the reconstructed total vanishes at the walls
    eps = 0.1
    solver = MicroMacroSolver(benchmark_problem(eps, t_end=0.01), 32, 16)
    state = solver.step(solver.initial_state())
    macro_bc, micro_bc = boundary_data(solver, state.effective)
    left_total = macro_bc[0] + trig_interpolate(micro_bc[0], 0.0)
    right_total = macro_bc[1] + trig_interpolate(micro_bc[1], (1.0 / eps) % 1.0)
    assert abs(left_total) <= 1e-14
    assert abs(right_total) <= 1e-14
