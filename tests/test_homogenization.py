import math

import numpy as np
import pytest

from apmm.homogenization import (
    _x_differences,
    first_order_corrector,
    homogenized_coefficient,
    macro_gradient,
    solve_cell_problem,
)
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators
from apmm.problem import (
    DiffusionField,
    benchmark_coefficient,
    constant_coefficient,
    sample_coefficient,
)
from oracle import apply_y_diffusion, wall_gradients

SQRT_021 = math.sqrt(0.21)


def test_effective_coefficient_benchmark():
    # harmonic mean of 1.1 + sin(2 pi y) has the closed form sqrt(1.1^2 - 1)
    ym = make_cell_mesh(256)
    a0 = homogenized_coefficient(benchmark_coefficient(), 0.5, ym)
    assert isinstance(a0, float)
    assert abs(a0 - SQRT_021) <= 1e-10


def test_effective_coefficient_shifted_cosine():
    a = DiffusionField(func=lambda x, y: 2.0 + np.cos(2 * np.pi * y) + 0 * x, a_min=1.0, a_max=3.0)
    a0 = homogenized_coefficient(a, 0.0, make_cell_mesh(256))
    assert abs(a0 - math.sqrt(3.0)) <= 1e-10


def test_effective_coefficient_spectral_convergence():
    # periodic trapezoid converges geometrically: ny=64 is already at 1e-10
    a = benchmark_coefficient()
    coarse = abs(homogenized_coefficient(a, 0.0, make_cell_mesh(64)) - SQRT_021)
    assert coarse <= 1e-10


def test_effective_coefficient_constant_and_arrays():
    ym = make_cell_mesh(16)
    assert homogenized_coefficient(constant_coefficient(0.7), 0.1, ym) == pytest.approx(0.7, abs=1e-14)
    x = np.linspace(0, 1, 9)
    vals = homogenized_coefficient(benchmark_coefficient(), x, ym)
    assert vals.shape == (9,)
    assert np.max(np.abs(vals - vals[0])) <= 1e-15  # y-only coefficient


def test_effective_coefficient_tracks_x():
    a = DiffusionField(func=lambda x, y: 1.5 + x + 0 * y, a_min=1.4, a_max=2.6)
    x = np.array([0.0, 0.25, 1.0])
    vals = homogenized_coefficient(a, x, make_cell_mesh(8))
    assert np.allclose(vals, 1.5 + x, atol=1e-13)


def test_corrector_zero_for_constant():
    chi = solve_cell_problem(constant_coefficient(2.0), 0.3, make_cell_mesh(16))
    assert chi.shape == (16,)
    assert np.max(np.abs(chi)) <= 1e-14


def test_corrector_zero_mean_and_shapes():
    ym = make_cell_mesh(32)
    chi = solve_cell_problem(benchmark_coefficient(), np.linspace(0, 1, 5), ym)
    assert chi.shape == (5, 32)
    assert np.max(np.abs(chi.mean(axis=-1))) <= 1e-14


def test_corrector_matches_generic_elliptic_solve():
    """The closed-form corrector and the periodic elliptic solver must agree.

    The discrete cell problem is  d/dy( a (chi' + 1) ) = 0, i.e.
    L chi = -(a_{j+1/2} - a_{j-1/2})/dy with the flux-form L of the operator
    module.  The two routes are algebraically independent: one integrates
    1/a in closed form, the other is the fast periodic solve at s = 0.
    """
    a = benchmark_coefficient()
    for ny, tol in ((16, 1e-12), (64, 1e-12), (256, 1e-12)):
        xm = make_spatial_mesh(4)
        ym = make_cell_mesh(ny)
        ops = GridOperators(sample_coefficient(a, xm, ym))
        ay = ops.tables.y_interfaces
        rhs = -(ay - np.roll(ay, 1, axis=1)) / ym.dy
        chi_generic = -ops._factor(0.0)(rhs.copy())()
        chi_closed = solve_cell_problem(a, xm.centers, ym)
        diff = np.max(np.abs(chi_generic - chi_closed))
        assert diff <= tol, f"ny={ny}: routes differ by {diff}"
        # and comfortably inside the contract tolerance
        assert diff <= 1e-8


def test_corrector_discrete_residual():
    # apply the discrete operator to the closed form: residual at roundoff
    a = benchmark_coefficient()
    xm, ym = make_spatial_mesh(4), make_cell_mesh(64)
    ops = GridOperators(sample_coefficient(a, xm, ym))
    chi = solve_cell_problem(a, xm.centers, ym)
    ay = ops.tables.y_interfaces
    rhs = -(ay - np.roll(ay, 1, axis=1)) / ym.dy
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(apply_y_diffusion(ops, chi) - rhs)) <= 1e-11 * scale


def test_harmonic_mean_below_arithmetic():
    rng = np.random.default_rng(99)
    for _ in range(5):
        c0 = rng.uniform(1.5, 3.0)
        c1 = rng.uniform(0.1, 1.0)
        a = DiffusionField(
            func=lambda x, y, c0=c0, c1=c1: c0 + c1 * np.sin(2 * np.pi * y) + 0 * x,
            a_min=c0 - c1 - 1e-9,
            a_max=c0 + c1 + 1e-9,
        )
        ym = make_cell_mesh(128)
        a0 = homogenized_coefficient(a, 0.0, ym)
        node_mean = float(a(0.0, ym.nodes).mean())
        assert c0 - c1 - 1e-9 <= a0 <= node_mean + 1e-12


def test_sampled_cell_data_layout_and_pointwise_agreement():
    xm, ym = make_spatial_mesh(8), make_cell_mesh(16)
    hom = sample_coefficient(benchmark_coefficient(), xm, ym).hom
    assert hom.a0_interfaces.shape == (9,)
    assert hom.chi.shape == (8, 16)
    assert hom.chi_walls.shape == (2, 16)
    # coefficient is x-independent: every cell problem is the same
    assert np.max(np.abs(hom.chi - hom.chi[:1])) <= 1e-14
    assert np.max(np.abs(hom.chi_walls - hom.chi[:1])) <= 1e-14
    assert np.max(np.abs(hom.a0_interfaces - hom.a0_interfaces[0])) <= 1e-15

    # the tables and the data derived from them are the pointwise samples and cell data, bit for
    # bit; an x-dependent coefficient's are C-contiguous, an x-uniform one's tables and corrector
    # one row each, held as read-only views at row stride 0
    x_dependent = DiffusionField(
        func=lambda x, y: 1.3
        + (0.5 + 0.4 * x) * np.sin(2.0 * np.pi * y)
        + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y),
        a_min=0.1,
        a_max=2.5,
    )
    for a in (x_dependent, benchmark_coefficient(), constant_coefficient(0.7)):
        for nx, ny in ((4, 4), (8, 4), (64, 16), (128, 32)):
            xm, ym = make_spatial_mesh(nx), make_cell_mesh(ny)
            tables = sample_coefficient(a, xm, ym)
            hom = tables.hom
            xc, xi = xm.centers[:, None], xm.interfaces[:, None]
            assert np.array_equal(tables.centers, a(xc, ym.nodes))
            assert np.array_equal(tables.x_interfaces, a(xi, ym.nodes))
            assert np.array_equal(tables.y_interfaces, a(xc, ym.half_nodes))
            assert tables.x_uniform == (a is not x_dependent)
            for array in (tables.centers, tables.x_interfaces, tables.y_interfaces, hom.chi):
                if tables.x_uniform:
                    assert array.strides == (0, 8) and not array.flags.writeable
                else:
                    assert array.flags.c_contiguous
            assert hom.chi_walls.flags.c_contiguous
            assert np.array_equal(hom.chi, solve_cell_problem(a, xm.centers, ym))
            assert np.array_equal(hom.chi_walls, solve_cell_problem(a, np.array([0.0, 1.0]), ym))
            assert np.array_equal(hom.a0_interfaces, homogenized_coefficient(a, xm.interfaces, ym))
    hom = sample_coefficient(x_dependent, xm, ym).hom
    assert np.max(np.abs(hom.chi_walls[0] - hom.chi_walls[1])) > 0.1  # x-dependent indeed


def test_corrector_rows_do_not_depend_on_the_rows_in_the_call():
    # the x-uniform tables keep the corrector of three rows (a centre and both walls); those
    # rows have the bits of the same rows in a call on every centre and wall
    for nx, ny in ((4, 4), (64, 16), (128, 32), (256, 64)):
        xm, ym = make_spatial_mesh(nx), make_cell_mesh(ny)
        x, rows = np.concatenate((xm.centers, [0.0, 1.0])), [0, nx, nx + 1]
        full = solve_cell_problem(benchmark_coefficient(), x, ym)
        assert np.array_equal(solve_cell_problem(benchmark_coefficient(), x[rows], ym), full[rows])


def test_macro_gradient_quadratic_exact():
    xm = make_spatial_mesh(16)
    x = xm.centers
    v = 3.0 - 2.0 * x + 5.0 * x**2
    grad = macro_gradient(v, xm.dx)
    assert np.max(np.abs(grad - (-2.0 + 10.0 * x))) <= 1e-11


def test_x_gradient_applies_macro_stencil_per_column():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((10, 4))
    grad = _x_differences(v, np.empty_like(v))() / (2.0 * 0.1)
    for j in range(4):
        assert np.array_equal(grad[:, j], macro_gradient(v[:, j], 0.1))


def test_macro_gradient_rejects_short_input():
    with pytest.raises(ValueError):
        macro_gradient(np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        macro_gradient(np.ones((4, 4)), 0.1)


def test_wall_gradients_quadratic_exact():
    xm = make_spatial_mesh(32)
    v = (xm.centers - 0.3) ** 2
    left, right = wall_gradients(v, xm.dx)
    assert left == pytest.approx(-0.6, abs=1e-11)
    assert right == pytest.approx(1.4, abs=1e-11)


def test_first_order_corrector_linear_macro():
    xm, ym = make_spatial_mesh(8), make_cell_mesh(16)
    hom = sample_coefficient(benchmark_coefficient(), xm, ym).hom
    macro = 0.75 * xm.centers
    u1 = first_order_corrector(hom, macro)
    assert u1.shape == (8, 16)
    assert np.max(np.abs(u1 - 0.75 * hom.chi)) <= 1e-12
    with pytest.raises(ValueError):
        first_order_corrector(hom, np.zeros(9))
