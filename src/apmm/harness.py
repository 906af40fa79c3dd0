"""Experiment drivers: regime comparison, AP degeneracy, convergence orders.

The regime comparison holds each regime as one ordered column table on the
reference mesh: the curve CSV writes it, and ``RegimeRecord`` and
``summary.csv`` hold error norms of its columns.

Every CSV is written deterministically — fixed column order, floats rendered
with 17 significant digits, ``\\n`` line endings, no timestamps — so identical
configurations produce byte-identical files.  Wall-clock timings live only in
the in-memory report objects.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import _MAX_POINTS, FloatArray, SpatialMesh
from .problem import ConfigError, ProblemSpec, _fmt, _write_rows
from .problem import benchmark_problem, constant_coefficient
from .reconstruct import (
    derivative_on_fine,
    diagnostic_mesh,
    reconstruct_homogenized,
    reconstruct_micro_macro,
)
from .solvers import MicroMacroSolver, run_homogenized, run_reference


def error_norms(
    u: FloatArray, v: FloatArray, mesh: SpatialMesh
) -> tuple[float, float]:
    """Max norm and normalized discrete L2 norm of u - v on the mesh.

    The L2 norm carries the cell-width weight, sqrt(dx * sum d**2), so a
    constant difference c gives (|c|, |c|) on the unit domain.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.shape != (mesh.n_cells,):
        raise ValueError(f"fields have shape {u.shape}, mesh has {mesh.n_cells} cells")
    d = u - v
    l_inf = float(np.max(np.abs(d)))
    l2 = float(math.sqrt(mesh.dx * float(np.dot(d, d))))
    return l_inf, l2


def reference_cells(epsilon: float, periods_per_oscillation: float = 20.0) -> int:
    """Fine-mesh size for the reference run: the least power of two from 1024 up
    with `periods_per_oscillation` cells per coefficient period.  Past the
    meshes' cap, 2**20 cells (8 MB a vector, about 20 in the Krylov basis), it
    is a ConfigError."""
    needed, cap = periods_per_oscillation / float(epsilon), f"2**{_MAX_POINTS.bit_length() - 1}"
    if not needed <= _MAX_POINTS:  # also true for inf and nan
        raise ConfigError(f"eps={epsilon:g} needs {needed:.3g} > {cap} ref cells; set --ref-cells")
    fraction, exponent = math.frexp(needed)  # needed = fraction * 2**exponent, 0.5 <= fraction < 1
    return max(1024, 2 ** (exponent - 1 if fraction == 0.5 else exponent))


@dataclass(frozen=True)
class RegimeRecord:
    """Errors of both coarse schemes against the reference for one epsilon.

    ``errors`` maps each curve-CSV column compared against the reference,
    ``u_emm``, ``du_emm``, ``u_hmm`` and ``du_hmm``, to its absolute
    (max, L2) norms on the reference mesh; the ``du_*`` entries compare the
    numerical x-derivatives.  ``relative_errors`` maps the same columns to
    the max norm divided by max|u_ref| (``du_*``: max|du_ref|), NaN where
    that reference column is all zero.  ``wall_times`` maps ``ref``,
    ``emm`` and ``hmm`` to each run's seconds.
    """

    epsilon: float
    n_ref: int
    errors: dict[str, tuple[float, float]]
    relative_errors: dict[str, float]
    wall_times: dict[str, float]
    csv_path: str

    def __post_init__(self):
        for l_inf, l2 in self.errors.values():
            if not (np.isfinite(l_inf) and np.isfinite(l2)):
                raise ValueError("error norms must be finite")
            if l_inf < 0.0 or l2 < 0.0:
                raise ValueError("error norms must be nonnegative")
            if l2 > l_inf * (1.0 + 1e-12) + 1e-300:
                raise ValueError(f"L2 error {l2} exceeds max error {l_inf}")


@dataclass(frozen=True)
class RunReport:
    """Collected regime records plus the path of the summary CSV."""

    records: tuple[RegimeRecord, ...]
    summary_path: str | None


_SUMMARY_COLUMNS = [
    "eps", "scheme", "error_u_inf", "error_u_l2", "error_du_inf", "error_du_l2",
    "rel_error_u_inf", "rel_error_du_inf",
]


def _write_summary(path: Path, records) -> None:
    rows = (
        [_fmt(rec.epsilon), scheme]
        + [_fmt(norm) for quantity in ("u", "du") for norm in rec.errors[f"{quantity}_{scheme}"]]
        + [_fmt(rec.relative_errors[f"{quantity}_{scheme}"]) for quantity in ("u", "du")]
        for rec in records
        for scheme in ("emm", "hmm")
    )
    _write_rows(path, _SUMMARY_COLUMNS, rows)


def regime_comparison(
    eps_values=(1.0, 0.1, 0.01),
    out_dir: str | Path = "figure1",
    t_end: float = 0.02,
    ref_cells: int | None = None,
    periods_per_oscillation: float = 20.0,
) -> RunReport:
    """Run reference, splitting, and homogenized solvers across the regimes.

    The coarse schemes run on 64x16 with corrector walls.  For each epsilon
    the coarse solutions are reconstructed onto the reference mesh, the
    pointwise curves go to one CSV per regime, and the error norms are
    appended to summary.csv.  Files for completed regimes are flushed before
    later regimes run, so a failing case leaves the earlier results on disk.
    Epsilons whose curve files, ``regime_eps_{eps:g}.csv``, share a name are a
    ConfigError before any run or directory, as every bad input.
    """
    eps_values = tuple(float(e) for e in eps_values)
    try:  # every problem and reference mesh is checked before any run or directory
        problems = [benchmark_problem(eps, t_end=t_end) for eps in eps_values]
        if ref_cells is not None:
            diagnostic_mesh(int(ref_cells))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    n_refs = [int(ref_cells or reference_cells(e, periods_per_oscillation)) for e in eps_values]
    csv_names = [f"regime_eps_{eps:g}.csv" for eps in eps_values]
    if len(set(csv_names)) < len(csv_names):  # a later regime's file would overwrite one
        clash = max(csv_names, key=csv_names.count)
        raise ConfigError(f"eps values {list(eps_values)} share the curve file {clash}")
    if not eps_values:
        return RunReport(records=(), summary_path=None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.csv"

    records: list[RegimeRecord] = []
    for eps, problem, n_ref, csv_name in zip(eps_values, problems, n_refs, csv_names):
        t0 = time.perf_counter()
        ref = run_reference(problem, n_ref)
        t1 = time.perf_counter()
        emm = MicroMacroSolver(problem, 64, 16).run()
        t2 = time.perf_counter()
        hmm = run_homogenized(problem, emm.hom)
        wall_times = {"ref": t1 - t0, "emm": t2 - t1, "hmm": time.perf_counter() - t2}

        # the curve CSV's columns, in order; each du_* follows from its u_*
        fine = ref.mesh
        columns = {
            "x": fine.centers,
            "u_ref": ref.final,
            "u_emm": reconstruct_micro_macro(
                emm.final_macro, emm.final_micro, eps, emm.xmesh, fine
            ),
            "u_hmm": reconstruct_homogenized(hmm.final, hmm.corrector, eps, hmm.mesh, fine),
        }
        for name in ("u_ref", "u_emm", "u_hmm"):
            columns[f"d{name}"] = derivative_on_fine(columns[name], fine)
        errors, relative_errors = {}, {}
        for name in ("u_emm", "du_emm", "u_hmm", "du_hmm"):
            reference = columns[f"{name.split('_')[0]}_ref"]
            errors[name] = error_norms(columns[name], reference, fine)
            scale = float(np.max(np.abs(reference)))
            relative_errors[name] = errors[name][0] / scale if scale else math.nan

        csv_path = out / csv_name
        rows = ([_fmt(col[i]) for col in columns.values()] for i in range(fine.n_cells))
        _write_rows(csv_path, list(columns), rows)
        records.append(RegimeRecord(eps, n_ref, errors, relative_errors, wall_times, str(csv_path)))
        # rewrite after every regime so an abort keeps what finished
        _write_summary(summary_path, records)

    return RunReport(records=tuple(records), summary_path=str(summary_path))


def ap_degeneracy_study(
    eps_values=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
    n_steps: int = 100,
    out_path: str | Path | None = None,
) -> tuple[tuple[float, float], ...]:
    """Deviation of the splitting's slow field from plain effective Euler.

    Each run starts from the benchmark initial data on 64x16 and takes exactly
    ``n_steps`` full steps of the solver's default dt; the reported deviation
    max|F - F_eff|, ``F_eff`` the run's own companion (``dt*K`` Euler from the same
    data), measures how completely the splitting collapses onto the asymptotic
    scheme as epsilon shrinks.  A step count that is no integer in 1 .. 2**24, or
    an epsilon outside (0, 1], is a ConfigError before any solver or directory.
    """
    integral = isinstance(n_steps, numbers.Integral) and not isinstance(n_steps, bool)
    if not (integral and 1 <= n_steps <= 2**24):  # True is Integral, but no step count
        raise ConfigError(f"n_steps must be an integer in 1 .. 2**24, got {n_steps!r}")
    try:  # every problem is checked before any solver or directory
        problems = [benchmark_problem(float(eps), t_end=1.0) for eps in eps_values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[float, float]] = []
    for problem in problems:
        solver = MicroMacroSolver(problem, 64, 16)
        state = solver.initial_state()
        for _ in range(n_steps):
            state = solver.step(state)
        rows.append((problem.epsilon, float(np.max(np.abs(state.macro - state.effective)))))
    if out_path is not None:
        _write_rows(Path(out_path), ["eps", "deviation"], ([_fmt(e), _fmt(d)] for e, d in rows))
    return tuple(rows)


@dataclass(frozen=True)
class ConvergenceReport:
    """One refinement study: per-level resolution, error, fitted order."""

    scheme: str
    resolutions: tuple[float, ...]  # dx for spatial studies, dt for temporal
    errors: tuple[float, ...]
    order: float


def convergence_study(scheme: str, levels: int = 4) -> ConvergenceReport:
    """Observed order of the reference (spatial) or splitting (temporal) run.

    ``ref`` refines space against the analytic solution of the constant
    coefficient heat equation; ``emm`` halves dt at epsilon = 0.5 on a fixed
    coarse grid and self-converges against a much finer-dt run.
    """
    # past 16 levels the ref study's finest mesh has over 2**20 cells; from 14 levels the emm
    # study's reference run needs over 2**24 steps, past the solver's cap, and stops before any run
    if not 3 <= levels <= 16:
        raise ConfigError(f"need 3 to 16 refinement levels, got {levels}")
    if scheme == "ref":
        return _spatial_study(levels)
    if scheme == "emm":
        return _temporal_study(levels)
    raise ConfigError(f"unknown convergence scheme {scheme!r} (use ref or emm)")


def _spatial_study(levels: int) -> ConvergenceReport:
    t_end = 0.1
    problem = ProblemSpec(
        coefficient=constant_coefficient(1.0),
        epsilon=1.0,
        initial=lambda x: np.sin(np.pi * x),
        bc_mode="dirichlet_homogeneous",
        t_end=t_end,
    )
    amplitude = math.exp(-math.pi**2 * t_end)
    sizes = [32 * 2**k for k in range(levels)]
    errors = []
    for n in sizes:
        result = run_reference(problem, n, dt_factor=0.05)
        exact = amplitude * np.sin(np.pi * result.mesh.centers)
        errors.append(float(np.max(np.abs(result.final - exact))))
    dxs = [1.0 / n for n in sizes]
    order = float(np.polyfit(np.log(dxs), np.log(errors), 1)[0])
    return ConvergenceReport("ref", tuple(dxs), tuple(errors), order)


def _temporal_study(levels: int) -> ConvergenceReport:
    base = 0.2
    problem = benchmark_problem(0.5, t_end=0.02)
    # reference factor sits 8x below the finest level so its own bias is small
    ref_factor = base / 2 ** (levels + 2)
    reference = MicroMacroSolver(problem, 64, 16, dt_factor=ref_factor).run()
    dts, errors = [], []
    for k in range(levels):
        run = MicroMacroSolver(problem, 64, 16, dt_factor=base / 2**k).run()
        dts.append(run.dt)
        errors.append(float(np.max(np.abs(run.final_macro - reference.final_macro))))
    order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return ConvergenceReport("emm", tuple(dts), tuple(errors), order)
