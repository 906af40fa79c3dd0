"""Property tests over random x-dependent coefficients, fields and walls.

Coefficients are drawn inside declared bounds from the family
``c0 + (p + q*x) sin(2 pi (y + phi)) + r cos(2 pi x) cos(4 pi y)``; fields
and wall profiles come from a seeded generator, so a failing example is
reproducible from what hypothesis prints.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apmm.homogenization import build_homogenized
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, y_average
from apmm.problem import DiffusionField, ProblemSpec, sample_coefficient
from apmm.solvers import run_homogenized, run_reference


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

    mixed = ops.apply_mixed_derivatives(u, bc)
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
    hom = build_homogenized(coeff, make_spatial_mesh(64), make_cell_mesh(16))
    for res in (
        run_reference(problem, 128, dt_factor=dt_factor),
        run_homogenized(problem, hom, dt_factor=dt_factor),
    ):
        norm0 = np.linalg.norm(initial(res.mesh.centers))
        assert np.linalg.norm(res.final) <= norm0 * (1.0 + 1e-13)
