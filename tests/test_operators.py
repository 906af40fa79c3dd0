"""Invariant battery for the tensor-grid operator blocks.

Consistency targets use the closed forms of the smooth trial fields; the
frozen tolerances sit a comfortable factor above values measured on this
implementation so roundoff jitter cannot flip them.
"""

import dataclasses

import numpy as np
import pytest

from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators, remove_y_average, y_average
from apmm.problem import (
    DiffusionField,
    benchmark_coefficient,
    constant_coefficient,
    sample_coefficient,
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


def _ops(nx, ny, coeff=None):
    coeff = benchmark_coefficient() if coeff is None else coeff
    tables = sample_coefficient(coeff, make_spatial_mesh(nx), make_cell_mesh(ny))
    return GridOperators(tables)


def _orders(errors):
    return [np.log2(a / b) for a, b in zip(errors, errors[1:])]


# ---------------------------------------------------------------- projection


def test_y_average_constant():
    assert np.max(np.abs(y_average(np.full((8, 16), 3.25)) - 3.25)) == 0.0


def test_y_average_kills_full_periods():
    ops = _ops(8, 16)
    y = ops.ymesh.nodes
    assert np.max(np.abs(y_average(np.tile(np.sin(2 * np.pi * y), (8, 1))))) <= 1e-14
    u = np.sin(2 * np.pi * ops.xmesh.centers)[:, None] * np.cos(4 * np.pi * y)[None, :]
    assert np.max(np.abs(y_average(u))) <= 1e-13


def test_remove_y_average_idempotent():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((12, 16))
    g = remove_y_average(u)
    assert np.max(np.abs(g.mean(axis=-1))) <= 1e-15
    assert np.max(np.abs(remove_y_average(g) - g)) <= 1e-15


# ------------------------------------------------------------- y-diffusion L


def test_L_kills_y_constants():
    ops = _ops(4, 16, constant_coefficient(1.0))
    assert np.max(np.abs(ops.apply_y_diffusion(np.full((4, 16), 2.5)))) == 0.0


def test_L_consistency_unit_coefficient():
    errors = []
    for ny in (16, 32, 64):
        ops = _ops(4, ny, constant_coefficient(1.0))
        u = np.tile(np.sin(2 * np.pi * ops.ymesh.nodes), (4, 1))
        errors.append(np.max(np.abs(ops.apply_y_diffusion(u) + 4 * np.pi**2 * u)))
    assert errors[0] <= 0.7  # measured 0.505 at ny=16
    for order in _orders(errors):
        assert 1.8 <= order <= 2.2


def test_L_consistency_oscillatory_coefficient():
    # u = sin(2 pi y):  L u = a' u' + a u''
    errors = []
    for ny in (16, 32, 64):
        ops = _ops(4, ny)
        y = ops.ymesh.nodes
        u = np.tile(np.sin(2 * np.pi * y), (4, 1))
        ap = 2 * np.pi * np.cos(2 * np.pi * y)
        a = 1.1 + np.sin(2 * np.pi * y)
        want = np.tile(ap * 2 * np.pi * np.cos(2 * np.pi * y) - a * 4 * np.pi**2 * np.sin(2 * np.pi * y), (4, 1))
        errors.append(np.max(np.abs(ops.apply_y_diffusion(u) - want)))
    for order in _orders(errors):
        assert 1.8 <= order <= 2.2


def test_L_projection_telescopes():
    rng = np.random.default_rng(1234)
    ops = _ops(64, 16)
    u = rng.standard_normal((64, 16))
    assert np.max(np.abs(y_average(ops.apply_y_diffusion(u)))) <= 1e-12


def test_L_symmetric_in_y_inner_product():
    rng = np.random.default_rng(1234)
    ops = _ops(64, 16)
    u = rng.standard_normal((64, 16))
    v = rng.standard_normal((64, 16))
    lhs = ops.dy * (ops.apply_y_diffusion(u) * v).sum(axis=-1)
    rhs = ops.dy * (u * ops.apply_y_diffusion(v)).sum(axis=-1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# -------------------------------------------------------- periodic solves


@COEFFICIENTS
def test_solve_roundtrip_random(coeff):
    rng = np.random.default_rng(1234)
    ops = _ops(64, 16, coeff)
    assert ops.tables.x_uniform == (coeff is None)
    r = remove_y_average(rng.standard_normal((64, 16)))
    w = ops.solve_y_diffusion(r)
    assert np.max(np.abs(w.mean(axis=-1))) <= 1e-13
    rel = np.max(np.abs(ops.apply_y_diffusion(w) - r)) / np.max(np.abs(r))
    assert rel <= 1e-11


def test_solve_zero_and_analytic():
    ops = _ops(4, 16, constant_coefficient(1.0))
    assert np.max(np.abs(ops.solve_y_diffusion(np.zeros((4, 16))))) == 0.0
    r = np.tile(np.sin(2 * np.pi * ops.ymesh.nodes), (4, 1))
    w = ops.solve_y_diffusion(r)
    assert np.max(np.abs(ops.apply_y_diffusion(w) - r)) <= 1e-12
    # grid value equals r scaled by the discrete k=1 eigenvalue ...
    lam = (2.0 - 2.0 * np.cos(2 * np.pi / 16)) * 16**2
    assert np.max(np.abs(w + r / lam)) <= 1e-14
    # ... and approaches the analytic -1/(4 pi^2) at O(dy^2)
    assert np.max(np.abs(w + r / (4 * np.pi**2))) <= 5e-4


def test_solve_rejects_nonzero_mean():
    rng = np.random.default_rng(5)
    ops = _ops(8, 16)
    with pytest.raises(ValueError, match="zero-mean"):
        ops.solve_y_diffusion(rng.standard_normal((8, 16)) + 0.5)


def test_shifted_solve_identity_limits():
    ops = _ops(4, 16, constant_coefficient(1.0))
    const = np.full((4, 16), -1.7)
    assert np.max(np.abs(ops.solve_shifted(const, 7.3) - const)) <= 1e-12
    rng = np.random.default_rng(11)
    r = rng.standard_normal((4, 16))
    assert np.max(np.abs(ops.solve_shifted(r, 1e-300) - r)) <= 1e-12


def test_shifted_solve_analytic_mode():
    ops = _ops(4, 16, constant_coefficient(1.0))
    r = np.tile(np.sin(2 * np.pi * ops.ymesh.nodes), (4, 1))
    w = ops.solve_shifted(r, 1.0)
    lam = (2.0 - 2.0 * np.cos(2 * np.pi / 16)) * 16**2
    assert np.max(np.abs(w - r / (1.0 + lam))) <= 1e-14
    assert np.max(np.abs(w - r / (1.0 + 4 * np.pi**2))) <= 5e-4


@COEFFICIENTS
def test_shifted_solve_residual_and_mean(coeff):
    rng = np.random.default_rng(1234)
    ops = _ops(64, 16, coeff)
    assert ops.tables.x_uniform == (coeff is None)
    r = rng.standard_normal((64, 16))
    w = ops.solve_shifted(r, 0.37)
    residual = w - 0.37 * ops.apply_y_diffusion(w) - r
    assert np.max(np.abs(residual)) <= 1e-11 * np.max(np.abs(r))
    assert np.max(np.abs(w.mean(axis=-1) - r.mean(axis=-1))) <= 1e-12
    for s in (0.0, 1e-300, 1.0, 1e8):
        _check_bordered(ops, r, s)


def _check_bordered(ops, r, s):
    """The bordered solve is mean-free and solves (s*I - Ly) w = r - mean(r)."""
    w = ops.solve_bordered(r, s)
    assert np.max(np.abs(w.mean(axis=-1))) <= 1e-13 * np.max(np.abs(w))
    residual = s * w - ops.apply_y_diffusion(w) - remove_y_average(r)
    assert np.max(np.abs(residual)) <= 1e-11 * np.max(np.abs(r))
    return w


def test_solves_agree_across_slice_layouts():
    # an x-independent coefficient solved as one shared block and as one
    # block per slice: the slice-to-column stacking must not matter
    rng = np.random.default_rng(21)
    tables = sample_coefficient(benchmark_coefficient(), make_spatial_mesh(12), make_cell_mesh(16))
    assert tables.x_uniform
    shared = GridOperators(tables)
    per_slice = GridOperators(dataclasses.replace(tables, x_uniform=False))
    r = rng.standard_normal((12, 16))
    for c in (0.37, 5.0):
        a, b = shared.solve_shifted(r, c), per_slice.solve_shifted(r, c)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    for s in (0.0, 1e-300, 1.0, 1e8):
        a, b = _check_bordered(shared, r, s), _check_bordered(per_slice, r, s)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    r0 = remove_y_average(r)
    a, b = shared.solve_y_diffusion(r0), per_slice.solve_y_diffusion(r0)
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    f, bc = r[:, 0], (0.4, -1.1)
    a, b = shared.apply_effective(f, bc), per_slice.apply_effective(f, bc)
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def test_shifted_solve_rejects_bad_shift():
    ops = _ops(4, 16)
    r = np.zeros((4, 16))
    with pytest.raises(ValueError):
        ops.solve_shifted(r, -1.0)
    with pytest.raises(ValueError):
        ops.solve_shifted(r, np.nan)


# ------------------------------------------------------------ x-diffusion D


def test_D_analytic_and_degenerate():
    errors = []
    for nx in (32, 64, 128):
        ops = _ops(nx, 8, constant_coefficient(1.0))
        x = ops.xmesh.centers
        got = ops.apply_x_diffusion(np.sin(np.pi * x))
        errors.append(np.max(np.abs(got[:, 0] + np.pi**2 * np.sin(np.pi * x))))
    assert errors[1] <= 2.5e-3  # measured 1.98e-3 at nx=64
    for order in _orders(errors):
        assert 1.8 <= order <= 2.2

    ops = _ops(32, 8, constant_coefficient(1.0))
    assert np.max(np.abs(ops.apply_x_diffusion(np.zeros(32)))) == 0.0
    lin = 0.3 + 1.7 * ops.xmesh.centers
    # ghost rule reproduces the linear extension when the walls match
    assert np.max(np.abs(ops.apply_x_diffusion(lin, bc=(0.3, 2.0)))) <= 1e-12


def test_D_consistency_oscillatory_coefficient():
    errors = []
    for n in (32, 64, 128):
        ops = _ops(n, n)
        x, y = ops.xmesh.centers, ops.ymesh.nodes
        got = ops.apply_x_diffusion(np.sin(np.pi * x))
        want = -np.pi**2 * np.sin(np.pi * x)[:, None] * (1.1 + np.sin(2 * np.pi * y))[None, :]
        errors.append(np.max(np.abs(got - want)))
    for order in _orders(errors):
        assert 1.8 <= order <= 2.2


def test_D_validates_shapes():
    ops = _ops(8, 16)
    with pytest.raises(ValueError):
        ops.apply_x_diffusion(np.zeros(9))
    with pytest.raises(ValueError):
        ops.apply_x_diffusion(np.zeros((8, 15)))


# ------------------------------------------------------------------ mixed B


def test_B_macro_input_interior():
    ops = _ops(64, 16)
    x, y = ops.xmesh.centers, ops.ymesh.nodes
    got = ops.apply_mixed_derivatives(np.sin(np.pi * x))
    want = 2 * np.pi * np.cos(2 * np.pi * y)[None, :] * (np.pi * np.cos(np.pi * x))[:, None]
    assert np.max(np.abs(got[1:-1] - want[1:-1])) <= 0.2  # measured 0.134


def test_B_y_only_field_with_matching_traces():
    ops = _ops(64, 16)
    profile = np.cos(2 * np.pi * ops.ymesh.nodes)
    u = np.tile(profile, (64, 1))
    got = ops.apply_mixed_derivatives(u, bc=(profile, profile))
    assert np.max(np.abs(got)) <= 1e-12


def test_B_projection_vanishes_for_macro_input():
    ops = _ops(64, 16)
    u = np.sin(np.pi * ops.xmesh.centers)
    assert np.max(np.abs(y_average(ops.apply_mixed_derivatives(u)))) <= 1e-12


def test_B_constant_coefficient_macro_degeneracy():
    ops = _ops(64, 16, constant_coefficient(2.0))
    u = np.sin(np.pi * ops.xmesh.centers)
    assert np.max(np.abs(ops.apply_mixed_derivatives(u))) == 0.0


def test_B_consistency_smooth_micro_field():
    # u = sin(pi x) cos(2 pi y):  B u = 2 a u_xy + a' u_x  for y-only a
    errors = []
    for n in (32, 64, 128):
        ops = _ops(n, n)
        x, y = ops.xmesh.centers, ops.ymesh.nodes
        u = np.sin(np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
        a = 1.1 + np.sin(2 * np.pi * y)
        ap = 2 * np.pi * np.cos(2 * np.pi * y)
        u_xy = -2 * np.pi**2 * np.cos(np.pi * x)[:, None] * np.sin(2 * np.pi * y)[None, :]
        u_x = np.pi * np.cos(np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
        want = 2 * a[None, :] * u_xy + ap[None, :] * u_x
        errors.append(np.max(np.abs(ops.apply_mixed_derivatives(u) - want)))
    for order in _orders(errors):
        assert 1.8 <= order <= 2.2


# ------------------------------------------------------- effective operator


def test_effective_constant_coefficient_degenerates():
    ops = _ops(64, 16, constant_coefficient(2.0))
    x = ops.xmesh.centers
    f = np.sin(2 * np.pi * x) + 0.3 * x * (1 - x)
    got = ops.apply_effective(f)
    want = y_average(ops.apply_x_diffusion(f))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_effective_matches_homogenized_limit():
    # discrete effective operator on sin(2 pi x) vs the harmonic-average
    # constant-coefficient operator, refining x and y together
    errors = []
    for n in (32, 64, 128):
        ops = _ops(n, n)
        f = np.sin(2 * np.pi * ops.xmesh.centers)
        want = -A0 * 4 * np.pi**2 * f
        rel = np.max(np.abs(ops.apply_effective(f) - want)) / np.max(np.abs(want))
        errors.append(rel)
    assert errors[1] <= 2e-2  # measured 4.25e-3 at 64x64
    for order in _orders(errors):
        assert 1.8 <= order <= 2.2


def test_effective_zero_and_shape():
    ops = _ops(64, 16)
    assert np.max(np.abs(ops.apply_effective(np.zeros(64)))) == 0.0
    with pytest.raises(ValueError):
        ops.apply_effective(np.zeros((64, 16)))
    # macro fields take scalar walls only
    with pytest.raises(TypeError):
        ops.apply_effective(np.zeros(64), bc=(np.ones(16), 0.0))


@COEFFICIENTS
def test_effective_matches_composite_definition(coeff):
    # the y-averaged x-diffusion minus the y-averaged cross-derivative of
    # the periodic solve of the fluctuating cross-derivative data
    ops = _ops(48, 16, coeff)
    x = ops.xmesh.centers
    f = np.sin(2 * np.pi * x) + 0.7 * x**2
    bc = (0.3, -0.8)
    w = ops.solve_y_diffusion(remove_y_average(ops.apply_mixed_derivatives(f, bc)))
    want = y_average(ops.apply_x_diffusion(f, bc))
    want -= y_average(ops.apply_mixed_derivatives(w))
    got = ops.apply_effective(f, bc)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
