import tracemalloc
import warnings

import numpy as np
import pytest

from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.reconstruct import (
    derivative_on_fine,
    fast_coordinate,
    reconstruct_homogenized,
    reconstruct_micro_macro,
)
from oracle import trig_interpolate


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_fast_coordinate_is_zero_where_the_quotient_overflows():
    x = make_spatial_mesh(64).interfaces
    assert np.array_equal(fast_coordinate(x, 0.01), np.mod(x / 0.01, 1.0))
    # x/eps is inf for x > 0: its floats, all integers, give 0, with no warning
    for eps in (1e-310, 5e-324):
        assert np.array_equal(fast_coordinate(x, eps), np.zeros_like(x))
    # y - floor(y) is exact for y >= 0, so it has np.mod's bits: on the reference mesh, on
    # quotients >= 2**53 (all integers) and at x = 0 and -0.0
    fine = make_spatial_mesh(2048)
    cases = [(x, eps) for x in (fine.centers, fine.interfaces) for eps in (1.0, 0.37, 0.01, 1e-6)]
    cases += [(fine.centers, 1e-20), (fine.interfaces, 1e-300)]
    cases += [(np.array([2.0**53, 2.0**53 + 2.0, 3.0 * 2.0**60, 1.7e308]), 1.0)]
    cases += [(np.array([0.0, -0.0]), eps) for eps in (1.0, 0.01, 5e-324)]
    for x, eps in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fast_coordinate(x, eps)
        assert _same_bits(got, np.fmax(np.mod(x / eps, 1.0), 0.0)), eps
    assert np.all(fast_coordinate(fine.centers, 1e-20) == 0.0)


def test_trig_band_limited_exact():
    y = make_cell_mesh(16).nodes
    got = trig_interpolate(np.sin(2 * np.pi * y), 0.13)
    assert abs(got - np.sin(2 * np.pi * 0.13)) <= 1e-12


def test_trig_constant():
    samples = np.full(8, 2.25)
    for y_star in (0.0, 0.37, 0.999):
        assert trig_interpolate(samples, y_star) == pytest.approx(2.25, abs=1e-13)


def test_trig_two_mode_sample_cloud():
    y = make_cell_mesh(16).nodes
    samples = np.sin(2 * np.pi * y) + 0.5 * np.cos(6 * np.pi * y)
    rng = np.random.default_rng(2024)
    pts = rng.random(100)
    got = trig_interpolate(samples, pts)
    want = np.sin(2 * np.pi * pts) + 0.5 * np.cos(6 * np.pi * pts)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert got.dtype == np.float64


def test_trig_reproduces_nodes():
    y = make_cell_mesh(16).nodes
    samples = np.sin(2 * np.pi * y) + 0.5 * np.cos(6 * np.pi * y)
    assert np.max(np.abs(trig_interpolate(samples, y) - samples)) <= 1e-13


def test_trig_nyquist_is_pure_cosine():
    # the highest mode on 8 nodes: samples (-1)^j come back as cos(8 pi y)
    y = make_cell_mesh(8).nodes
    samples = np.cos(8 * np.pi * y)
    probe = y + 0.25 / 8
    got = trig_interpolate(samples, probe)
    assert np.max(np.abs(got - np.cos(8 * np.pi * probe))) <= 1e-12


def test_trig_wraps_argument():
    y = make_cell_mesh(16).nodes
    samples = np.sin(2 * np.pi * y)
    assert trig_interpolate(samples, 1.13) == pytest.approx(
        trig_interpolate(samples, 0.13), abs=1e-13
    )
    assert trig_interpolate(samples, -0.25) == pytest.approx(
        trig_interpolate(samples, 0.75), abs=1e-13
    )


def test_trig_rejects_bad_samples():
    with pytest.raises(ValueError):
        trig_interpolate(np.ones(7), 0.5)  # odd
    with pytest.raises(ValueError):
        trig_interpolate(np.ones(2), 0.5)  # too short
    with pytest.raises(ValueError):
        trig_interpolate(np.ones((4, 4)), 0.5)


# ------------------------------------------------------------- reconstruction


def test_reconstruct_zero_micro_blends_to_homogeneous_walls():
    # default wall value is zero: the outer half-cells slope down to it
    coarse = make_spatial_mesh(8)
    fine = make_spatial_mesh(512)
    macro = np.sin(2 * np.pi * coarse.centers)
    vals = reconstruct_micro_macro(macro, np.zeros((8, 16)), 1.0, coarse, fine)
    x = fine.centers
    s = x / coarse.dx - 0.5
    inside = (s >= 0) & (s <= 7)
    # interior: plain piecewise-linear interpolation of the macro samples
    want = np.interp(x[inside], coarse.centers, macro)
    assert np.max(np.abs(vals[inside] - want)) <= 1e-12
    # head half-cell: linear ramp from 0 at the wall to the first centre value
    head = s < 0
    lam = 2.0 * s[head] + 1.0
    assert np.max(np.abs(vals[head] - lam * macro[0])) <= 1e-12


def test_reconstruct_x_independent_micro():
    coarse = make_spatial_mesh(8)
    fine = make_spatial_mesh(512)
    eps = 0.1
    profile = np.sin(2 * np.pi * make_cell_mesh(16).nodes)
    micro = np.tile(profile, (8, 1))
    vals = reconstruct_micro_macro(np.zeros(8), micro, eps, coarse, fine)
    s = fine.centers / coarse.dx - 0.5
    inside = (s >= 0) & (s <= 7)
    want = np.sin(2 * np.pi * fine.centers / eps)
    assert np.max(np.abs(vals[inside] - want[inside])) <= 1e-12


def test_reconstruct_is_linear():
    rng = np.random.default_rng(314)
    coarse = make_spatial_mesh(8)
    fine = make_spatial_mesh(256)
    m1, m2 = rng.standard_normal((2, 8))
    g1, g2 = rng.standard_normal((2, 8, 16))
    a, b = 1.3, -0.7
    combo = reconstruct_micro_macro(a * m1 + b * m2, a * g1 + b * g2, 0.37, coarse, fine)
    parts = a * reconstruct_micro_macro(m1, g1, 0.37, coarse, fine) + b * reconstruct_micro_macro(
        m2, g2, 0.37, coarse, fine
    )
    assert np.max(np.abs(combo - parts)) <= 1e-12


def _cellwise_phase_formula(macro, micro, eps, coarse, fine):
    # each bracketing cell's interpolant evaluated from its own phase row, then the two
    # values blended linearly in x and ramped to zero in the wall half-cells
    nx, ny = micro.shape
    x = fine.centers
    s = x / coarse.dx - 0.5
    left = np.clip(np.floor(s).astype(int), 0, nx - 2)
    frac = np.clip(s - left, 0.0, 1.0)
    coeffs = np.fft.rfft(micro, axis=-1)
    coeffs[:, -1] = coeffs[:, -1].real
    coeffs[:, 1:-1] *= 2.0
    phases = np.exp(np.multiply.outer(2j * np.pi * ((x / eps) % 1.0), np.arange(ny // 2 + 1)))

    def cell_values(rows):
        return macro[rows] + np.einsum("pk,pk->p", phases, coeffs[rows]).real / ny

    want = (1.0 - frac) * cell_values(left) + frac * cell_values(left + 1)
    want[s < 0.0] *= 2.0 * s[s < 0.0] + 1.0
    want[s > nx - 1] *= 1.0 - 2.0 * (s[s > nx - 1] - (nx - 1))
    return want


def _per_mode_horner(macro, micro, eps, coarse, fine):
    # the blend and Horner sum one mode at a time in fresh arrays: reconstruction's held
    # buffers must keep these bits
    nx, ny = micro.shape
    x = fine.centers
    s = x / coarse.dx - 0.5
    left = np.clip(np.floor(s).astype(int), 0, nx - 2)
    frac = np.clip(s - left, 0.0, 1.0)
    coeffs = np.fft.rfft(micro, axis=-1)
    coeffs[:, -1] = coeffs[:, -1].real
    coeffs *= np.r_[1.0, np.full(ny // 2 - 1, 2.0), 1.0]
    coeffs /= ny
    coeffs[:, 0] += macro
    start, slope = coeffs[:-1].T, np.diff(coeffs, axis=0).T
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(2j * np.pi * np.fmax(np.mod(x / eps, 1.0), 0.0))
    values = 0.0
    for k in range(ny // 2, -1, -1):
        values = values * z + (start[k, left] + frac * slope[k, left])
    values = values.real.copy()
    head, tail = s < 0.0, s > nx - 1.0
    values[head] *= 2.0 * s[head] + 1.0
    values[tail] *= 1.0 - 2.0 * (s[tail] - (nx - 1))
    return values


def test_reconstruct_matches_the_cellwise_phase_formula():
    # the blended coefficients are summed by Horner's rule, so only the order of the
    # arithmetic differs from the formula (measured <= 1.2e-14 of the largest value);
    # against the per-mode Horner sum the bits are equal
    rng = np.random.default_rng(7)
    grid = ((16, 1500), (64, 2048), (7, 100), (64, 4096), (32, 33), (4, 513))
    for n_coarse, n_fine in grid:
        coarse, fine = make_spatial_mesh(n_coarse), make_spatial_mesh(n_fine)
        s = fine.centers / coarse.dx - 0.5
        assert s[0] < 0.0 and s[-1] > n_coarse - 1  # both wall half-cells hold fine points
        for ny in (4, 6, 16, 64, 128):
            macro, micro = rng.standard_normal(n_coarse), rng.standard_normal((n_coarse, ny))
            for eps in (1.0, 0.37, 0.013, 0.01, 1e-300):
                want = _cellwise_phase_formula(macro, micro, eps, coarse, fine)
                got = reconstruct_micro_macro(macro, micro, eps, coarse, fine)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (
                    n_coarse, n_fine, ny, eps,
                )
                horner = _per_mode_horner(macro, micro, eps, coarse, fine)
                assert _same_bits(got, horner), (n_coarse, n_fine, ny, eps)


def test_reconstruct_traced_peak_at_figure1_scale():
    # figure1's 64x16 emm field onto the 2048-cell reference: the phases, two held complex
    # buffers and the blend's index and weights, about 249 KB traced (315 KB with fresh
    # arrays per mode); it stays below the reference projection that sets the study's peak
    rng = np.random.default_rng(11)
    coarse, fine = make_spatial_mesh(64), make_spatial_mesh(2048)
    macro, micro = rng.standard_normal(64), rng.standard_normal((64, 16))
    tracemalloc.start()
    try:
        reconstruct_micro_macro(macro, micro, 0.01, coarse, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 280_000


def test_reconstruct_homogenized_scaling():
    rng = np.random.default_rng(42)
    coarse = make_spatial_mesh(8)
    fine = make_spatial_mesh(128)
    macro = rng.standard_normal(8)
    corrector = rng.standard_normal((8, 16))
    eps = 0.2
    via_hmm = reconstruct_homogenized(macro, corrector, eps, coarse, fine)
    direct = reconstruct_micro_macro(macro, eps * corrector, eps, coarse, fine)
    assert np.max(np.abs(via_hmm - direct)) <= 1e-14
    # zero corrector degenerates to the piecewise-linear macro blend
    flat = reconstruct_homogenized(macro, np.zeros((8, 16)), eps, coarse, fine)
    plain = reconstruct_micro_macro(macro, np.zeros((8, 16)), eps, coarse, fine)
    assert np.max(np.abs(flat - plain)) == 0.0


def test_reconstruct_validates_shapes():
    coarse = make_spatial_mesh(8)
    fine = make_spatial_mesh(64)
    with pytest.raises(ValueError):
        reconstruct_micro_macro(np.zeros(9), np.zeros((8, 16)), 0.1, coarse, fine)
    with pytest.raises(ValueError):
        reconstruct_micro_macro(np.zeros(8), np.zeros((9, 16)), 0.1, coarse, fine)
    with pytest.raises(ValueError):
        reconstruct_micro_macro(np.zeros(8), np.zeros(16), 0.1, coarse, fine)


def test_reconstruct_rejects_an_odd_or_short_fast_axis():
    # the balanced coefficients treat the last one as the Nyquist mode: an odd count came
    # back 0.25 off between the centres, a single node as inf
    coarse, fine = make_spatial_mesh(8), make_spatial_mesh(64)
    for ny in (1, 2, 5):
        micro = np.tile(np.cos(2 * np.pi * np.arange(ny) / ny), (8, 1))
        with pytest.raises(ValueError, match="even number"):
            reconstruct_micro_macro(np.zeros(8), micro, 0.1, coarse, fine)
        with pytest.raises(ValueError, match="even number"):
            reconstruct_homogenized(np.zeros(8), micro, 0.1, coarse, fine)


# ------------------------------------------------------------- derivatives


def test_derivative_analytic():
    fine = make_spatial_mesh(1024)
    x = fine.centers
    got = derivative_on_fine(np.sin(np.pi * x), fine)
    assert np.max(np.abs(got - np.pi * np.cos(np.pi * x))) <= 1e-4


def test_derivative_constant_and_quadratic():
    fine = make_spatial_mesh(64)
    assert np.max(np.abs(derivative_on_fine(np.full(64, 5.5), fine))) <= 1e-12
    x = fine.centers
    got = derivative_on_fine(x**2, fine)
    assert np.max(np.abs(got - 2 * x)) <= 1e-10


def test_derivative_rejects_small_mesh_and_bad_shape():
    with pytest.raises(ValueError):
        derivative_on_fine(np.zeros(4), make_spatial_mesh(4))
    fine = make_spatial_mesh(64)
    with pytest.raises(ValueError):
        derivative_on_fine(np.zeros(65), fine)
