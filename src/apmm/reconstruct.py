"""Two-scale reconstruction onto a refined diagnostic mesh.

Coarse solutions carry a macro part on the spatial cell centres and a micro
profile on the periodic fast nodes.  To compare against a fine-grid run, the
Fourier coefficients of each cell's balanced trigonometric interpolant (the
macro value in the mean mode) are blended linearly between the two bracketing
coarse centres and summed by Horner's rule at the fine point's fast
coordinate: one complex exponential per fine point.  Fine points beyond the
outermost centres take the nearest single-cell value blended linearly to 0 at
the wall.
"""

from __future__ import annotations

import numpy as np

from .homogenization import macro_gradient
from .mesh import FloatArray, SpatialMesh, make_spatial_mesh


def _balanced_coefficients(profiles: FloatArray) -> np.ndarray:
    """rfft coefficients with the weights of the real balanced interpolant.

    The returned rows satisfy  u(y) = Re(sum_k C[k] e^{2*pi*i*k*y}) / n  with
    the Nyquist coefficient forced real, i.e. that mode is a pure cosine.
    """
    coeffs = np.fft.rfft(profiles, axis=-1)
    coeffs[..., -1] = coeffs[..., -1].real
    coeffs[..., 1:-1] *= 2.0  # the interpolant's weights: 1 for the mean and Nyquist, else 2
    return coeffs


def fast_coordinate(x: FloatArray, epsilon: float) -> FloatArray:
    """(x/epsilon) mod 1 for x >= 0; 0 where x/epsilon overflows, as for every float >= 2**53."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.divide(x, epsilon)
        y -= np.floor(y)  # exact for y >= 0, as np.mod(y, 1.0) is
        return np.fmax(y, 0.0, out=y)  # fmax drops inf - inf = nan


def reconstruct_micro_macro(
    macro: FloatArray,
    micro: FloatArray,
    epsilon: float,
    coarse: SpatialMesh,
    fine: SpatialMesh,
) -> FloatArray:
    """Evaluate macro + micro(x, x/epsilon) on the centres of a finer mesh.

    Between two coarse centres the two cells' Fourier coefficients are
    blended linearly in x and summed by Horner's rule at the fast coordinate
    (x/epsilon) mod 1 of the fine point itself.  In the half-cells outside
    the outermost centres the whole single-cell evaluation is blended
    linearly towards the homogeneous Dirichlet wall value zero, so the
    evaluation honours the physical wall condition and its slope stays
    meaningful there.  The fast axis needs an even number (>= 4) of nodes.

    The sum runs in two complex buffers held for the call, mode by mode in
    the order of ``values * z + (start + frac * slope)``, so it has that
    per-mode formula's bits.
    """
    macro = np.asarray(macro, dtype=float)
    micro = np.asarray(micro, dtype=float)
    nx = coarse.n_cells
    if macro.shape != (nx,):
        raise ValueError(f"macro field has shape {macro.shape}, expected ({nx},)")
    if micro.ndim != 2 or micro.shape[0] != nx:
        raise ValueError(f"micro field has shape {micro.shape}, expected ({nx}, n_y)")
    ny = micro.shape[1]
    if ny < 4 or ny % 2:
        raise ValueError(f"need an even number (>= 4) of periodic samples, got {ny}")

    x = fine.centers
    s = x / coarse.dx - 0.5
    left = np.clip(np.floor(s).astype(int), 0, nx - 2)
    frac = np.clip(s - left, 0.0, 1.0)  # 0 or 1 outside the outermost centres: one cell
    # a cell's value is Re(sum_k C[k] z**k), z = exp(2 pi i y), macro in C[0]; per interval
    # and mode the table holds C_L and C_{L+1} - C_L
    coeffs = _balanced_coefficients(micro) / ny
    coeffs[:, 0] += macro
    coeffs = np.ascontiguousarray(coeffs.T)  # one contiguous row per mode
    start, slope = coeffs[:, :-1], np.diff(coeffs, axis=1)
    z = np.exp(2j * np.pi * fast_coordinate(x, epsilon))
    fracz = frac.astype(complex)  # the cast numpy makes for frac * slope
    values, blend = np.empty_like(z), np.empty_like(z)
    for k in range(ny // 2, -1, -1):  # Horner's rule in z on the blended coefficients
        np.take(slope[k], left, out=blend, mode="clip")  # left is in range: no buffered out
        blend *= fracz
        blend += start[k].take(left, mode="clip")
        if k < ny // 2:
            values *= z
            values += blend
        else:  # the top mode starts the sum
            values, blend = blend, values
    values = values.real.copy()
    head, tail = s < 0.0, s > nx - 1.0
    values[head] *= 2.0 * s[head] + 1.0  # 0 at the wall, 1 at the first centre
    values[tail] *= 1.0 - 2.0 * (s[tail] - (nx - 1))  # 1 at the last centre, 0 at the wall
    return values


def reconstruct_homogenized(
    macro: FloatArray,
    corrector: FloatArray,
    epsilon: float,
    coarse: SpatialMesh,
    fine: SpatialMesh,
) -> FloatArray:
    """Same blend applied to a homogenized solution and its scaled corrector."""
    corrector = np.asarray(corrector, dtype=float)
    return reconstruct_micro_macro(macro, epsilon * corrector, epsilon, coarse, fine)


def diagnostic_mesh(n_cells: int) -> SpatialMesh:
    """The spatial mesh of ``n_cells`` cells, if :func:`derivative_on_fine` accepts it."""
    fine = make_spatial_mesh(n_cells)
    if fine.n_cells < 8:
        raise ValueError(f"diagnostic mesh needs >= 8 cells, got {fine.n_cells}")
    return fine


def derivative_on_fine(values: FloatArray, fine: SpatialMesh) -> FloatArray:
    """Spatial derivative on the diagnostic mesh.

    Centred second-order differences inside, one-sided second-order at the
    two boundary cells — applied uniformly to every scheme's reconstruction
    so derivative comparisons are like-for-like.
    """
    if fine.n_cells < 8:  # the check diagnostic_mesh makes, without building a mesh
        raise ValueError(f"diagnostic mesh needs >= 8 cells, got {fine.n_cells}")
    values = np.asarray(values, dtype=float)
    if values.shape != (fine.n_cells,):
        raise ValueError(f"field has shape {values.shape}, expected ({fine.n_cells},)")
    return macro_gradient(values, fine.dx)
