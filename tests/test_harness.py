"""Study-driver tests: norms, record validation, CSV layout, determinism."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from apmm import harness
from apmm.harness import (
    RegimeRecord,
    ap_degeneracy_study,
    convergence_study,
    error_norms,
    reference_cells,
    regime_comparison,
)
from apmm.mesh import make_spatial_mesh
from apmm.problem import ConfigError


def test_error_norms_sine():
    mesh = make_spatial_mesh(1024)
    u = np.sin(2 * np.pi * mesh.centers)
    l_inf, l2 = error_norms(u, np.zeros(1024), mesh)
    assert l_inf == np.max(np.abs(u))
    assert l2 == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_error_norms_constant_offset():
    mesh = make_spatial_mesh(64)
    v = np.cos(2 * np.pi * mesh.centers)
    l_inf, l2 = error_norms(v + 0.3, v, mesh)
    assert l_inf == pytest.approx(0.3, abs=1e-15)
    assert l2 == pytest.approx(0.3, abs=1e-14)


def test_error_norms_rejects_bad_shapes():
    mesh = make_spatial_mesh(8)
    with pytest.raises(ValueError, match="shape mismatch"):
        error_norms(np.zeros(8), np.zeros(9), mesh)
    with pytest.raises(ValueError, match="mesh"):
        error_norms(np.zeros(16), np.zeros(16), mesh)


def test_reference_cells_scaling():
    assert reference_cells(1.0) == 1024
    assert reference_cells(0.1) == 1024
    assert reference_cells(0.01) == 2048
    assert reference_cells(0.01, periods_per_oscillation=40.0) == 4096
    assert reference_cells(0.001) == 32768


def test_reference_cells_is_a_bounded_power_of_two():
    # the least power of two from 1024 up, exact at the powers themselves
    assert reference_cells(1.0, periods_per_oscillation=2048.0) == 2048
    assert reference_cells(1.0, periods_per_oscillation=math.nextafter(2048.0, 4096)) == 4096
    assert reference_cells(20.0 / 2**20) == 2**20
    # beyond 2**20 cells, and where 20/eps overflows (the doubling loop never
    # returned at eps = 1e-310), no mesh is built
    for eps in (math.nextafter(20.0 / 2**20, 0.0), 1e-6, 1e-300, 1e-310, 5e-324):
        with pytest.raises(ConfigError, match="--ref-cells"):
            reference_cells(eps)


def _record_kwargs(**errors):
    base = dict(
        epsilon=0.1,
        n_ref=1024,
        errors={
            "u_emm": (1e-2, 5e-3),
            "du_emm": (2.0, 1.0),
            "u_hmm": (2e-2, 1e-2),
            "du_hmm": (3.0, 2.0),
        },
        relative_errors={"u_emm": 0.01, "du_emm": 0.2, "u_hmm": 0.02, "du_hmm": 0.3},
        wall_times={"ref": 1.0, "emm": 0.1, "hmm": 0.05},
        csv_path="regime_eps_0.1.csv",
    )
    base["errors"] = {**base["errors"], **errors}
    return base


def test_regime_record_accepts_consistent_norms():
    rec = RegimeRecord(**_record_kwargs())
    assert rec.epsilon == 0.1
    # the normalized L2 norm can never exceed the max norm on [0, 1]
    with pytest.raises(ValueError, match="exceeds"):
        RegimeRecord(**_record_kwargs(u_emm=(1e-2, 2e-2)))
    with pytest.raises(ValueError, match="nonnegative"):
        RegimeRecord(**_record_kwargs(du_hmm=(3.0, -1.0)))
    with pytest.raises(ValueError, match="finite"):
        RegimeRecord(**_record_kwargs(u_hmm=(math.nan, 1e-2)))


def test_regime_comparison_empty_is_a_no_op(tmp_path):
    out = tmp_path / "untouched"
    report = regime_comparison(eps_values=(), out_dir=out)
    assert report.records == ()
    assert report.summary_path is None
    assert not out.exists()


def test_regime_comparison_rejects_coarse_ref_cells_before_any_work(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("run_reference", "MicroMacroSolver", "run_homogenized"):
        monkeypatch.setattr(harness, name, refuse)
    out = tmp_path / "untouched"
    for ref_cells in (5, 7):  # meshes, but too coarse for the derivative stencils
        with pytest.raises(ValueError, match="needs >= 8 cells"):
            regime_comparison(eps_values=(0.5,), out_dir=out, ref_cells=ref_cells)
    assert not out.exists()


def test_regime_comparison_rejects_unbuildable_reference_before_any_work(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("run_reference", "MicroMacroSolver", "run_homogenized"):
        monkeypatch.setattr(harness, name, refuse)
    out = tmp_path / "untouched"
    for eps in (1e-6, 1e-300, 1e-310):  # 2**25 cells, a 1002-bit count, an infinite one
        with pytest.raises(ConfigError, match="--ref-cells"):
            regime_comparison(eps_values=(0.5, eps), out_dir=out)
    # problems that cannot be built: a regime past eps = 1 after a valid one, a NaN horizon
    with pytest.raises(ConfigError, match="epsilon must lie in"):
        regime_comparison(eps_values=(0.5, 2.0), out_dir=out, t_end=0.002, ref_cells=64)
    with pytest.raises(ConfigError, match="t_end must be"):
        regime_comparison(eps_values=(0.5,), out_dir=out, t_end=math.nan, ref_cells=64)
    assert not out.exists()


def test_regime_comparison_rejects_colliding_curve_files(tmp_path, monkeypatch):
    # eps values that print alike shared one regime_eps_{eps:g}.csv: the later run overwrote
    # the earlier one, while summary.csv and both records still named it
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("run_reference", "MicroMacroSolver", "run_homogenized"):
        monkeypatch.setattr(harness, name, refuse)
    out = tmp_path / "untouched"
    for eps_values in ((0.1234561, 0.1234562), (0.5, 0.1, 0.5)):
        with pytest.raises(ConfigError, match="share the curve file regime_eps_0\\.\\d+\\.csv"):
            regime_comparison(eps_values=eps_values, out_dir=out, t_end=0.002, ref_cells=64)
    assert not out.exists()


def test_regime_comparison_outputs_are_deterministic(tmp_path):
    reports = []
    for name in ("a", "b"):
        reports.append(
            regime_comparison(
                eps_values=(0.5,),
                out_dir=tmp_path / name,
                t_end=0.002,
                ref_cells=128,
            )
        )
    csv_a = (tmp_path / "a" / "regime_eps_0.5.csv").read_bytes()
    csv_b = (tmp_path / "b" / "regime_eps_0.5.csv").read_bytes()
    assert csv_a == csv_b
    sum_a = (tmp_path / "a" / "summary.csv").read_bytes()
    assert sum_a == (tmp_path / "b" / "summary.csv").read_bytes()

    header = csv_a.decode().splitlines()[0]
    assert header == "x,u_ref,u_emm,u_hmm,du_ref,du_emm,du_hmm"
    lines = sum_a.decode().splitlines()
    assert lines[0] == (
        "eps,scheme,error_u_inf,error_u_l2,error_du_inf,error_du_l2,rel_error_u_inf,rel_error_du_inf"
    )
    assert len(lines) == 3  # one emm and one hmm row for the single regime
    assert lines[1].split(",")[1] == "emm"
    assert lines[2].split(",")[1] == "hmm"

    rec = next(r for r in reports[0].records if r.epsilon == 0.5)
    assert rec.n_ref == 128
    # the CSV stores full-precision values: spot-check one against the record
    first = csv_a.decode().splitlines()[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == 0.5 / 128  # first reference cell center


def test_regime_comparison_record_matches_files(tmp_path):
    report = regime_comparison(
        eps_values=(0.5,), out_dir=tmp_path / "r", t_end=0.002, ref_cells=128
    )
    rec = next(r for r in report.records if r.epsilon == 0.5)
    data = np.genfromtxt(rec.csv_path, delimiter=",", names=True)
    mesh = make_spatial_mesh(128)
    assert sorted(rec.errors) == ["du_emm", "du_hmm", "u_emm", "u_hmm"]
    for name, norms in rec.errors.items():
        reference = data[name.split("_")[0] + "_ref"]
        # the CSV's 17 significant digits round-trip every value exactly
        assert norms == error_norms(data[name], reference, mesh), name
    # the relative errors divide each max norm by the max of its reference column
    scales = {"u": np.max(np.abs(data["u_ref"])), "du": np.max(np.abs(data["du_ref"]))}
    assert sorted(rec.relative_errors) == sorted(rec.errors)
    for name, relative in rec.relative_errors.items():
        assert relative == rec.errors[name][0] / scales[name.split("_")[0]], name
    assert sorted(rec.wall_times) == ["emm", "hmm", "ref"]
    assert all(t >= 0.0 for t in rec.wall_times.values())
    lines = Path(report.summary_path).read_text().splitlines()
    assert lines[0].split(",")[-2:] == ["rel_error_u_inf", "rel_error_du_inf"]
    for line in lines[1:]:
        _, scheme, *norms = line.split(",")
        assert [float(v) for v in norms] == [
            *rec.errors[f"u_{scheme}"],
            *rec.errors[f"du_{scheme}"],
            rec.relative_errors[f"u_{scheme}"],
            rec.relative_errors[f"du_{scheme}"],
        ]


def test_regime_comparison_relative_errors_of_an_all_zero_reference_are_nan(tmp_path, monkeypatch):
    # a reference that has decayed to exactly zero gives no scale: NaN, not a ZeroDivisionError
    run_reference = harness.run_reference
    monkeypatch.setattr(
        harness,
        "run_reference",
        lambda problem, n: dataclasses.replace(run_reference(problem, n), final=np.zeros(n)),
    )
    report = regime_comparison(eps_values=(0.5,), out_dir=tmp_path, t_end=0.002, ref_cells=128)
    rec = next(r for r in report.records if r.epsilon == 0.5)
    assert all(math.isnan(v) for v in rec.relative_errors.values())
    for line in Path(report.summary_path).read_text().splitlines()[1:]:
        assert line.split(",")[-2:] == ["nan", "nan"]


def test_ap_degeneracy_study_shrinks_with_epsilon(tmp_path):
    out = tmp_path / "ap.csv"
    rows = ap_degeneracy_study(eps_values=(1e-2, 1e-3), n_steps=20, out_path=out)
    assert [eps for eps, _ in rows] == [1e-2, 1e-3]
    devs = [dev for _, dev in rows]
    assert devs[0] > devs[1] > 0.0  # measured 8.9e-3 -> 8.9e-4
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,deviation"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == devs[0]


def test_ap_degeneracy_study_rejects_bad_step_count(tmp_path, monkeypatch):
    # counts past the cap, and non-integers: int() ran 1.9999 and True as one step, and nan
    # failed with numpy's bare conversion error; all before a solver or the output's directory
    def refuse(*args, **kwargs):
        raise AssertionError("a solver was built")

    out = tmp_path / "untouched" / "ap.csv"
    with monkeypatch.context() as patched:
        patched.setattr(harness, "MicroMacroSolver", refuse)
        for n_steps in (0, 2**24 + 1, 1.9999, 2.5, math.nan, True, "3"):
            with pytest.raises(ConfigError, match="n_steps must be an integer"):
                ap_degeneracy_study(eps_values=(0.1,), n_steps=n_steps, out_path=out)
    assert not out.parent.exists()
    rows = ap_degeneracy_study(eps_values=(0.1,), n_steps=np.int64(3), out_path=out)
    assert rows == ap_degeneracy_study(eps_values=(0.1,), n_steps=3)
    assert float(out.read_text().splitlines()[1].split(",")[1]) == rows[0][1]


def test_ap_degeneracy_study_rejects_bad_eps_before_any_directory(tmp_path, monkeypatch):
    # an eps outside (0, 1] was a bare ValueError, raised after the output's directory was made
    def refuse(*args, **kwargs):
        raise AssertionError("a solver was built")

    out = tmp_path / "apx" / "sub" / "ap.csv"
    monkeypatch.setattr(harness, "MicroMacroSolver", refuse)
    for eps_values in ((2.0,), (0.1, 0.0), (1e-3, math.nan)):
        with pytest.raises(ConfigError, match="epsilon must lie in"):
            ap_degeneracy_study(eps_values=eps_values, n_steps=1, out_path=out)
    assert not (tmp_path / "apx").exists()


def test_convergence_study_rejects_bad_inputs():
    for scheme in ("ref", "emm"):
        for levels in (2, 17, 3.5):
            with pytest.raises(ConfigError, match="levels"):
                convergence_study(scheme, levels=levels)
    with pytest.raises(ConfigError, match="scheme"):
        convergence_study("hmm")
