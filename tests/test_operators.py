"""Invariant battery for the tensor-grid operator blocks.

Consistency targets use the closed forms of the smooth trial fields; the
frozen tolerances sit a comfortable factor above values measured on this
implementation so roundoff jitter cannot flip them.
"""

import dataclasses

import numpy as np
import pytest

from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, y_average
from apmm.problem import (
    DiffusionField,
    benchmark_coefficient,
    constant_coefficient,
    sample_coefficient,
)
from oracle import (
    apply_effective, apply_mixed_derivatives, apply_x_diffusion, apply_y_diffusion,
    checked_fast_solve, grid_ops, orders, remove_y_average,
)

A0 = np.sqrt(0.21)

# x-dependent, so every x-slice gets its own block of the y-system
X_DEPENDENT = DiffusionField(
    func=lambda x, y: 1.3 + (0.5 + 0.4 * x) * np.sin(2 * np.pi * y),
    a_min=0.4,
    a_max=2.2,
)
COEFFICIENTS = pytest.mark.parametrize(
    "coeff", [None, X_DEPENDENT], ids=["x_uniform", "x_dependent"]
)


# ---------------------------------------------------------------- projection


def test_y_average_constant():
    assert np.max(np.abs(y_average(np.full((8, 16), 3.25)) - 3.25)) == 0.0


def test_y_average_kills_full_periods():
    ops = grid_ops(8, 16)
    y = ops.tables.ymesh.nodes
    assert np.max(np.abs(y_average(np.tile(np.sin(2 * np.pi * y), (8, 1))))) <= 1e-14
    u = np.sin(2 * np.pi * ops.tables.xmesh.centers)[:, None] * np.cos(4 * np.pi * y)[None, :]
    assert np.max(np.abs(y_average(u))) <= 1e-13


def test_remove_y_average_idempotent():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((12, 16))
    g = remove_y_average(u)
    assert np.max(np.abs(g.mean(axis=-1))) <= 1e-15
    assert np.max(np.abs(remove_y_average(g) - g)) <= 1e-15


# ------------------------------------------------------------- y-diffusion L


def test_L_kills_y_constants():
    ops = grid_ops(4, 16, constant_coefficient(1.0))
    assert np.max(np.abs(apply_y_diffusion(ops, np.full((4, 16), 2.5)))) == 0.0


def test_L_consistency_unit_coefficient():
    errors = []
    for ny in (16, 32, 64):
        ops = grid_ops(4, ny, constant_coefficient(1.0))
        u = np.tile(np.sin(2 * np.pi * ops.tables.ymesh.nodes), (4, 1))
        errors.append(np.max(np.abs(apply_y_diffusion(ops, u) + 4 * np.pi**2 * u)))
    assert errors[0] <= 0.7  # measured 0.505 at ny=16
    for order in orders(errors):
        assert 1.8 <= order <= 2.2


def test_L_consistency_oscillatory_coefficient():
    # u = sin(2 pi y):  L u = a' u' + a u''
    errors = []
    for ny in (16, 32, 64):
        ops = grid_ops(4, ny)
        y = ops.tables.ymesh.nodes
        u = np.tile(np.sin(2 * np.pi * y), (4, 1))
        ap = 2 * np.pi * np.cos(2 * np.pi * y)
        a = 1.1 + np.sin(2 * np.pi * y)
        want = np.tile(ap * 2 * np.pi * np.cos(2 * np.pi * y) - a * 4 * np.pi**2 * np.sin(2 * np.pi * y), (4, 1))
        errors.append(np.max(np.abs(apply_y_diffusion(ops, u) - want)))
    for order in orders(errors):
        assert 1.8 <= order <= 2.2


def test_L_projection_telescopes():
    rng = np.random.default_rng(1234)
    ops = grid_ops(64, 16)
    u = rng.standard_normal((64, 16))
    assert np.max(np.abs(y_average(apply_y_diffusion(ops, u)))) <= 1e-12


def test_L_symmetric_in_y_inner_product():
    rng = np.random.default_rng(1234)
    ops = grid_ops(64, 16)
    u = rng.standard_normal((64, 16))
    v = rng.standard_normal((64, 16))
    lhs = ops.dy * (apply_y_diffusion(ops, u) * v).sum(axis=-1)
    rhs = ops.dy * (u * apply_y_diffusion(ops, v)).sum(axis=-1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# -------------------------------------------------------- periodic solves


@COEFFICIENTS
def test_solve_roundtrip_random(coeff):
    rng = np.random.default_rng(1234)
    ops = grid_ops(64, 16, coeff)
    assert ops.tables.x_uniform == (coeff is None)
    r = remove_y_average(rng.standard_normal((64, 16)))
    w = -ops._factor(0.0)(r.copy())()  # the singular solve of Ly w = r
    assert np.max(np.abs(w.mean(axis=-1))) <= 1e-13
    rel = np.max(np.abs(apply_y_diffusion(ops, w) - r)) / np.max(np.abs(r))
    assert rel <= 1e-11


def test_solve_zero_and_analytic():
    ops = grid_ops(4, 16, constant_coefficient(1.0))
    assert np.max(np.abs(ops._factor(0.0)(np.zeros((4, 16)))())) == 0.0
    r = np.tile(np.sin(2 * np.pi * ops.tables.ymesh.nodes), (4, 1))
    w = -ops._factor(0.0)(r.copy())()
    assert np.max(np.abs(apply_y_diffusion(ops, w) - r)) <= 1e-12
    # grid value equals r scaled by the discrete k=1 eigenvalue ...
    lam = (2.0 - 2.0 * np.cos(2 * np.pi / 16)) * 16**2
    assert np.max(np.abs(w + r / lam)) <= 1e-14
    # ... and approaches the analytic -1/(4 pi^2) at O(dy^2)
    assert np.max(np.abs(w + r / (4 * np.pi**2))) <= 5e-4


def test_shifted_solve_analytic_mode():
    ops = grid_ops(4, 16, constant_coefficient(1.0))
    r = np.tile(np.sin(2 * np.pi * ops.tables.ymesh.nodes), (4, 1))
    w = ops._factor(1.0)(r.copy())()  # (I - Ly) w = r - mean(r)
    lam = (2.0 - 2.0 * np.cos(2 * np.pi / 16)) * 16**2
    assert np.max(np.abs(w - r / (1.0 + lam))) <= 1e-14
    assert np.max(np.abs(w - r / (1.0 + 4 * np.pi**2))) <= 5e-4


@COEFFICIENTS
def test_shifted_solve_residual_and_mean(coeff):
    rng = np.random.default_rng(1234)
    ops = grid_ops(64, 16, coeff)
    assert ops.tables.x_uniform == (coeff is None)
    r = rng.standard_normal((64, 16))
    s = 1.0 / 0.37
    w = ops._factor(s)(s * r)()  # (I - 0.37 Ly) w = r - mean(r)
    residual = w - 0.37 * apply_y_diffusion(ops, w) - remove_y_average(r)
    assert np.max(np.abs(residual)) <= 1e-11 * np.max(np.abs(r))
    assert np.max(np.abs(w.mean(axis=-1))) <= 1e-12
    for s in (0.0, 1e-300, 1.0, 1e8):
        checked_fast_solve(ops, r, s)


def test_solves_agree_across_slice_layouts():
    # an x-independent coefficient solved as one shared block and as one
    # block per slice: the slice-to-column stacking must not matter
    rng = np.random.default_rng(21)
    tables = sample_coefficient(benchmark_coefficient(), make_spatial_mesh(12), make_cell_mesh(16))
    assert tables.x_uniform
    shared = GridOperators(tables)
    per_slice = GridOperators(dataclasses.replace(tables, x_uniform=False))
    r = rng.standard_normal((12, 16))
    # the shared block's dense R(s)^T against the per-slice factors, over the shifts' range
    for s in (0.0, 1e-300, 1e-3, 1.0, 1e8, 1e300):
        a, b = checked_fast_solve(shared, r, s), checked_fast_solve(per_slice, r, s)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    f, bc = r[:, 0], (0.4, -1.1)
    a, b = apply_effective(shared, f, bc), apply_effective(per_slice, f, bc)
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


# ------------------------------------------------------------ x-diffusion D


def test_D_analytic_and_degenerate():
    errors = []
    for nx in (32, 64, 128):
        ops = grid_ops(nx, 8, constant_coefficient(1.0))
        x = ops.tables.xmesh.centers
        got = apply_x_diffusion(ops, np.sin(np.pi * x))
        errors.append(np.max(np.abs(got[:, 0] + np.pi**2 * np.sin(np.pi * x))))
    assert errors[1] <= 2.5e-3  # measured 1.98e-3 at nx=64
    for order in orders(errors):
        assert 1.8 <= order <= 2.2

    ops = grid_ops(32, 8, constant_coefficient(1.0))
    assert np.max(np.abs(apply_x_diffusion(ops, np.zeros(32)))) == 0.0
    lin = 0.3 + 1.7 * ops.tables.xmesh.centers
    # ghost rule reproduces the linear extension when the walls match
    assert np.max(np.abs(apply_x_diffusion(ops, lin, bc=(0.3, 2.0)))) <= 1e-12


def test_D_consistency_oscillatory_coefficient():
    errors = []
    for n in (32, 64, 128):
        ops = grid_ops(n, n)
        x, y = ops.tables.xmesh.centers, ops.tables.ymesh.nodes
        got = apply_x_diffusion(ops, np.sin(np.pi * x))
        want = -np.pi**2 * np.sin(np.pi * x)[:, None] * (1.1 + np.sin(2 * np.pi * y))[None, :]
        errors.append(np.max(np.abs(got - want)))
    for order in orders(errors):
        assert 1.8 <= order <= 2.2


def test_D_validates_shapes():
    ops = grid_ops(8, 16)
    with pytest.raises(ValueError):
        apply_x_diffusion(ops, np.zeros(9))
    with pytest.raises(ValueError):
        apply_x_diffusion(ops, np.zeros((8, 15)))


# ------------------------------------------------------------------ mixed B


def test_B_macro_input_interior():
    ops = grid_ops(64, 16)
    x, y = ops.tables.xmesh.centers, ops.tables.ymesh.nodes
    got = apply_mixed_derivatives(ops, np.sin(np.pi * x))
    want = 2 * np.pi * np.cos(2 * np.pi * y)[None, :] * (np.pi * np.cos(np.pi * x))[:, None]
    assert np.max(np.abs(got[1:-1] - want[1:-1])) <= 0.2  # measured 0.134


def test_B_y_only_field_with_matching_traces():
    ops = grid_ops(64, 16)
    profile = np.cos(2 * np.pi * ops.tables.ymesh.nodes)
    u = np.tile(profile, (64, 1))
    got = apply_mixed_derivatives(ops, u, bc=(profile, profile))
    assert np.max(np.abs(got)) <= 1e-12


def test_B_projection_vanishes_for_macro_input():
    ops = grid_ops(64, 16)
    u = np.sin(np.pi * ops.tables.xmesh.centers)
    assert np.max(np.abs(y_average(apply_mixed_derivatives(ops, u)))) <= 1e-12


def test_B_constant_coefficient_macro_degeneracy():
    ops = grid_ops(64, 16, constant_coefficient(2.0))
    u = np.sin(np.pi * ops.tables.xmesh.centers)
    assert np.max(np.abs(apply_mixed_derivatives(ops, u))) == 0.0


def test_B_consistency_smooth_micro_field():
    # u = sin(pi x) cos(2 pi y):  B u = 2 a u_xy + a' u_x  for y-only a
    errors = []
    for n in (32, 64, 128):
        ops = grid_ops(n, n)
        x, y = ops.tables.xmesh.centers, ops.tables.ymesh.nodes
        u = np.sin(np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
        a = 1.1 + np.sin(2 * np.pi * y)
        ap = 2 * np.pi * np.cos(2 * np.pi * y)
        u_xy = -2 * np.pi**2 * np.cos(np.pi * x)[:, None] * np.sin(2 * np.pi * y)[None, :]
        u_x = np.pi * np.cos(np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
        want = 2 * a[None, :] * u_xy + ap[None, :] * u_x
        errors.append(np.max(np.abs(apply_mixed_derivatives(ops, u) - want)))
    for order in orders(errors):
        assert 1.8 <= order <= 2.2


# ------------------------------------------------------- effective operator


def test_effective_constant_coefficient_degenerates():
    ops = grid_ops(64, 16, constant_coefficient(2.0))
    x = ops.tables.xmesh.centers
    f = np.sin(2 * np.pi * x) + 0.3 * x * (1 - x)
    got = apply_effective(ops, f)
    want = y_average(apply_x_diffusion(ops, f))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_effective_matches_homogenized_limit():
    # discrete effective operator on sin(2 pi x) vs the harmonic-average
    # constant-coefficient operator, refining x and y together
    errors = []
    for n in (32, 64, 128):
        ops = grid_ops(n, n)
        f = np.sin(2 * np.pi * ops.tables.xmesh.centers)
        want = -A0 * 4 * np.pi**2 * f
        rel = np.max(np.abs(apply_effective(ops, f) - want)) / np.max(np.abs(want))
        errors.append(rel)
    assert errors[1] <= 2e-2  # measured 4.25e-3 at 64x64
    for order in orders(errors):
        assert 1.8 <= order <= 2.2


def test_effective_zero_and_shape():
    ops = grid_ops(64, 16)
    assert np.max(np.abs(apply_effective(ops, np.zeros(64)))) == 0.0
    with pytest.raises(ValueError):
        apply_effective(ops, np.zeros((64, 16)))
    # macro fields take scalar walls only
    with pytest.raises(TypeError):
        apply_effective(ops, np.zeros(64), bc=(np.ones(16), 0.0))


@COEFFICIENTS
def test_effective_matches_composite_definition(coeff):
    # the y-averaged x-diffusion minus the y-averaged cross-derivative of
    # the periodic solve of the fluctuating cross-derivative data
    ops = grid_ops(48, 16, coeff)
    x = ops.tables.xmesh.centers
    f = np.sin(2 * np.pi * x) + 0.7 * x**2
    bc = (0.3, -0.8)
    w = -ops._factor(0.0)(remove_y_average(apply_mixed_derivatives(ops, f, bc)))()
    want = y_average(apply_x_diffusion(ops, f, bc))
    want -= y_average(apply_mixed_derivatives(ops, w))
    got = apply_effective(ops, f, bc)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@COEFFICIENTS
def test_padded_stencils_match_roll_definitions(coeff):
    # the np.roll formulas the padded-buffer stencils replaced, written out
    nx, ny = 24, 12
    ops = grid_ops(nx, ny, coeff)
    t, dx, dy = ops.tables, ops.dx, ops.dy
    rng = np.random.default_rng(11)
    walls = [None, (0.4, -1.3), (rng.standard_normal(ny), rng.standard_normal(ny))]
    for u in (rng.standard_normal(nx), rng.standard_normal((nx, ny))):
        u2 = np.broadcast_to(u[:, None], (nx, ny)) if u.ndim == 1 else u
        for bc in walls:
            left, right = (0.0, 0.0) if bc is None else bc
            padded = np.empty((nx + 2, ny))
            padded[1:-1] = u2
            padded[0] = 2.0 * np.asarray(left) - u2[0]
            padded[-1] = 2.0 * np.asarray(right) - u2[-1]
            flux = t.x_interfaces * (padded[1:] - padded[:-1]) / dx**2
            x_diffusion = flux[1:] - flux[:-1]

            r = t.centers * (np.roll(u2, -1, axis=1) - np.roll(u2, 1, axis=1)) / (2.0 * dy)
            term1 = np.empty_like(r)
            term1[1:-1] = (r[2:] - r[:-2]) / (2.0 * dx)
            term1[0] = (-3.0 * r[0] + 4.0 * r[1] - r[2]) / (2.0 * dx)
            term1[-1] = (3.0 * r[-1] - 4.0 * r[-2] + r[-3]) / (2.0 * dx)
            dudx = (padded[2:] - padded[:-2]) / (2.0 * dx)
            s = t.y_interfaces * 0.5 * (dudx + np.roll(dudx, -1, axis=1))
            mixed = term1 + (s - np.roll(s, 1, axis=1)) / dy

            for got, want in (
                (apply_x_diffusion(ops, u, bc), x_diffusion),
                (apply_mixed_derivatives(ops, u, bc), mixed),
            ):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the oracle's Ly against a dense matrix per slice, assembled entry by entry: row j weighs
    # node j+1 by a_{j+1/2}, node j-1 by a_{j-1/2} and node j by minus both, periodically
    v = rng.standard_normal((nx, ny))
    want = np.empty_like(v)
    for i in range(nx):
        ly = np.zeros((ny, ny))
        for j in range(ny):
            up, down = t.y_interfaces[i, j] / dy**2, t.y_interfaces[i, j - 1] / dy**2
            ly[j, (j + 1) % ny] += up
            ly[j, j - 1] += down
            ly[j, j] -= up + down
        want[i] = ly @ v[i]
    assert np.max(np.abs(apply_y_diffusion(ops, v) - want)) <= 1e-14 * np.max(np.abs(want))
