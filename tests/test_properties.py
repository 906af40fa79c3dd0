"""Property tests over random x-dependent coefficients, fields and walls.

Coefficients are drawn inside declared bounds from the family
``c0 + (p + q*x) sin(2 pi (y + phi)) + r cos(2 pi x) cos(4 pi y)``; fields
and wall profiles come from a seeded generator, so a failing example is
reproducible from what hypothesis prints.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, y_average
from apmm.problem import BC_MODES, DiffusionField, ProblemSpec, sample_coefficient
from apmm.solvers import MicroMacroSolver, MicroMacroState, run_homogenized, run_reference
from oracle import (
    apply_mixed_derivatives, checked_fast_solve, remove_y_average, split_update, step_by, stepped,
)


def _coefficient(c0, p, q, r, phi) -> DiffusionField:
    spread = abs(p) + abs(q) + abs(r)
    return DiffusionField(
        func=lambda x, y: c0
        + (p + q * x) * np.sin(2.0 * np.pi * (y + phi))
        + r * np.cos(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y),
        a_min=c0 - spread,
        a_max=c0 + spread,
    )


@settings(max_examples=40, deadline=1000)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    q=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    phi=st.floats(0.0, 1.0),
    nx=st.integers(4, 24),
    half_ny=st.integers(2, 8),  # the cell mesh takes an even ny >= 4
    seed=st.integers(0, 2**32 - 1),
    profile_walls=st.booleans(),
)
def test_mixed_block_y_average_is_its_first_terms(
    c0, p, q, r, phi, nx, half_ny, seed, profile_walls
):
    # the second term d/dy(a du/dx) telescopes over the periodic half-nodes,
    # so only d/dx(a du/dy) survives the y-average; the fused slow update
    # of the emm step relies on it
    ny = 2 * half_ny
    coeff = _coefficient(c0, p, q, r, phi)
    ops = GridOperators(sample_coefficient(coeff, make_spatial_mesh(nx), make_cell_mesh(ny)))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((nx, ny))
    if profile_walls:
        bc = (rng.standard_normal(ny), rng.standard_normal(ny))
    else:
        bc = (float(rng.standard_normal()), float(rng.standard_normal()))

    # first term written out: centred periodic y-difference, then the
    # centred x-gradient with one-sided rows at the boundary cells
    centre_flux = ops.tables.centers * (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1))
    centre_flux /= 2.0 * ops.dy
    first = np.empty_like(centre_flux)
    first[1:-1] = (centre_flux[2:] - centre_flux[:-2]) / (2.0 * ops.dx)
    first[0] = (-3.0 * centre_flux[0] + 4.0 * centre_flux[1] - centre_flux[2]) / (2.0 * ops.dx)
    first[-1] = (3.0 * centre_flux[-1] - 4.0 * centre_flux[-2] + centre_flux[-3]) / (2.0 * ops.dx)

    mixed = apply_mixed_derivatives(ops, u, bc)
    scale = np.max(np.abs(mixed)) + np.max(np.abs(first))
    assert np.max(np.abs(y_average(mixed) - y_average(first))) <= 1e-13 * scale


@settings(max_examples=40, deadline=1000)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    q=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    phi=st.floats(0.0, 1.0),
    eps=st.floats(0.125, 1.0),
    t_end=st.floats(1e-6, 0.05),
    dt_share=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_energy_does_not_increase(c0, p, q, r, phi, eps, t_end, dt_share, seed):
    # with dt_factor at most 1/(2 a_max) every eigenvalue of the explicit
    # step lies in [-1, 1], so without forcing ||u||_2 cannot grow; random
    # cell values excite every mode, also the ones near -1 at the bound
    coeff = _coefficient(c0, p, q, r, phi)
    values = np.random.default_rng(seed).standard_normal(128)

    def initial(x):
        cells = np.minimum((np.asarray(x) * 128).astype(int), 127)
        return np.where((x > 0.0) & (x < 1.0), values[cells], 0.0)

    problem = ProblemSpec(coefficient=coeff, epsilon=eps, initial=initial, t_end=t_end)
    dt_factor = dt_share / (2.0 * coeff.a_max)
    hom = sample_coefficient(coeff, make_spatial_mesh(64), make_cell_mesh(16))
    for res in (
        run_reference(problem, 128, dt_factor=dt_factor),
        run_homogenized(problem, hom, dt_factor=dt_factor),
    ):
        norm0 = np.linalg.norm(initial(res.mesh.centers))
        assert np.linalg.norm(res.final) <= norm0 * (1.0 + 1e-13)


@settings(max_examples=40, deadline=1000)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    q=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    phi=st.floats(0.0, 1.0),
    x0=st.floats(0.0, 1.0),
    singular=st.booleans(),
    log_s=st.floats(-300.0, 300.0),
    nx=st.integers(4, 12),
    half_ny=st.integers(2, 16),  # the cell mesh takes an even ny >= 4
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_solve_inverts_shifted_operator_on_mean_free_data(
    c0, p, q, r, phi, x0, singular, log_s, nx, half_ny, seed
):
    # one tridiagonal solve and a rank-3 correction for every s >= 0, down to
    # the singular s = 0; the data carries slice means the solve must remove
    s = 0.0 if singular else 10.0**log_s
    meshes = make_spatial_mesh(nx), make_cell_mesh(2 * half_ny)
    coeff = _coefficient(c0, p, q, r, phi)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((nx, 2 * half_ny)) + rng.standard_normal((nx, 1))
    checked_fast_solve(GridOperators(sample_coefficient(coeff, *meshes)), rhs, s)
    # the coefficient frozen at x0, solved as one shared block and as one block per slice
    frozen = dataclasses.replace(coeff, func=lambda x, y: coeff.func(x0 + 0.0 * x, y))
    tables = sample_coefficient(frozen, *meshes)
    assert tables.x_uniform
    shared = checked_fast_solve(GridOperators(tables), rhs, s)
    per_slice = checked_fast_solve(
        GridOperators(dataclasses.replace(tables, x_uniform=False)), rhs, s
    )
    assert np.max(np.abs(shared - per_slice)) <= 1e-13 * np.max(np.abs(shared))


@settings(max_examples=40, deadline=1000)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    q=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    phi=st.floats(0.0, 1.0),
    log_eps=st.floats(-300.0, 0.0),
    bc_mode=st.sampled_from(BC_MODES),
    nx=st.integers(4, 16),
    half_ny=st.integers(2, 6),  # the cell mesh takes an even ny >= 4
    dt_share=st.floats(0.05, 1.0),
    last_share=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# one state in each layout whatever the draw: q = r = 0 gives an x-uniform coefficient
@example(1.5, 0.3, 0.0, 0.0, 0.1, -2.0, "dirichlet_corrector", 7, 3, 0.9, 0.37, 1)
@example(1.5, 0.3, 0.2, 0.1, 0.1, -2.0, "dirichlet_corrector", 7, 3, 0.9, 0.37, 1)
def test_emm_step_matches_public_operators(
    c0, p, q, r, phi, log_eps, bc_mode, nx, half_ny, dt_share, last_share, seed
):
    # the fused step against the public stencils it shares kernels with, on a
    # random state with a mean-free micro field, for full and shortened steps
    coeff = _coefficient(c0, p, q, r, phi)
    problem = ProblemSpec(
        coefficient=coeff,
        epsilon=10.0**log_eps,
        initial=lambda x: np.sin(np.pi * x),
        bc_mode=bc_mode,
    )
    solver = MicroMacroSolver(problem, nx, 2 * half_ny, dt_factor=dt_share / (2.0 * coeff.a_max))
    rng = np.random.default_rng(seed)
    state = MicroMacroState(
        macro=rng.standard_normal(nx),
        micro=remove_y_average(rng.standard_normal((nx, 2 * half_ny))),
        effective=rng.standard_normal(nx),
        t=0.0,
        step=0,
    )
    dt = solver.dt * last_share
    out = step_by(solver, state, dt)
    expected = split_update(solver, state, dt)
    for got, want in zip((out.macro, out.micro, out.effective), expected):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    q=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    phi=st.floats(0.0, 1.0),
    x_uniform=st.booleans(),
    x0=st.floats(0.0, 1.0),
    log_eps=st.floats(-300.0, 0.0),
    bc_mode=st.sampled_from(BC_MODES),
    nx=st.integers(4, 12),
    half_ny=st.integers(2, 6),  # the cell mesh takes an even ny >= 4
    full_steps=st.integers(1, 12),
    last_share=st.floats(0.1, 0.9),
)
def test_emm_run_equals_its_steps(
    c0, p, q, r, phi, x_uniform, x0, log_eps, bc_mode, nx, half_ny, full_steps, last_share
):
    # run() is a loop of step() bit for bit, whatever step operators the solver held
    # before: its full steps, then a shortened last one by the same kernel
    coeff = _coefficient(c0, p, q, r, phi)
    if x_uniform:  # frozen at x0
        coeff = dataclasses.replace(coeff, func=lambda x, y, a=coeff.func: a(x0 + 0.0 * x, y))
    dt_factor = 0.9 / (2.0 * coeff.a_max)
    dt = dt_factor * make_spatial_mesh(nx).dx ** 2
    problem = ProblemSpec(
        coefficient=coeff,
        epsilon=10.0**log_eps,
        initial=lambda x: np.sin(np.pi * x) + x * (1.0 - x),
        t_end=(full_steps + last_share) * dt,
        bc_mode=bc_mode,
    )
    solver = MicroMacroSolver(problem, nx, 2 * half_ny, dt_factor=dt_factor)
    assert solver.tables.x_uniform or not x_uniform
    step_by(solver, solver.initial_state(), 0.5 * dt)  # leaves another step size's operators
    res = solver.run()
    assert res.steps == full_steps + 1
    state = solver.initial_state()
    for _ in range(full_steps):
        state = solver.step(state)
    state = step_by(solver, state, problem.t_end - full_steps * dt)
    assert np.array_equal(res.final_macro, state.macro)
    assert np.array_equal(res.final_micro, state.micro)


@pytest.mark.filterwarnings("ignore:n_cells=.* under-resolves")
@settings(max_examples=40, deadline=1000)
@given(
    c0=st.floats(1.0, 2.0),
    p=st.floats(-0.4, 0.4),
    q=st.floats(-0.4, 0.4),
    r=st.floats(-0.15, 0.15),
    phi=st.floats(0.0, 1.0),
    eps=st.floats(0.125, 1.0),
    n=st.integers(8, 64),
    full_steps=st.one_of(st.integers(0, 3), st.integers(100, 400)),
    last_share=st.floats(0.05, 1.0),
    at_bound=st.booleans(),
    dt_share=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_modal_runs_match_stepping(
    c0, p, q, r, phi, eps, n, full_steps, last_share, at_bound, dt_share, seed
):
    # the reference and homogenized runs evaluate the final state from the
    # step matrix's modes; random cell values excite every mode, also the
    # ones near -1 that a dt at the stability bound keeps
    coeff = _coefficient(c0, p, q, r, phi)
    dt_factor = (1.0 if at_bound else dt_share) / (2.0 * coeff.a_max)
    mesh = make_spatial_mesh(n)
    dt = dt_factor * mesh.dx**2
    values = np.random.default_rng(seed).standard_normal(n)

    def initial(x):
        cells = np.minimum((np.asarray(x) * n).astype(int), n - 1)
        return np.where((x > 0.0) & (x < 1.0), values[cells], 0.0)

    t_end = (full_steps + last_share) * dt
    problem = ProblemSpec(coefficient=coeff, epsilon=eps, initial=initial, t_end=t_end)
    x_if = mesh.interfaces
    hom = sample_coefficient(coeff, mesh, make_cell_mesh(8))
    for res, a_if in (
        (run_reference(problem, n, dt_factor=dt_factor), coeff(x_if, np.mod(x_if / eps, 1.0))),
        (run_homogenized(problem, hom, dt_factor=dt_factor), hom.a0_interfaces),
    ):
        expected, n_steps = stepped(values, a_if, mesh.dx, dt, t_end)
        assert res.steps == n_steps and res.dt == dt
        # the projections on the modes carry rounding of about 1e-16 max|g|,
        # so a field decayed below 1e-5 of its start is held to that floor
        scale = max(np.max(np.abs(expected)), 1e-5 * np.max(np.abs(values)))
        assert np.max(np.abs(res.final - expected)) <= 1e-10 * scale
