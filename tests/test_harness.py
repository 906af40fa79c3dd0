"""Study-driver tests: norms, record validation, CSV layout, determinism."""

import math
from pathlib import Path

import numpy as np
import pytest

from apmm import harness
from apmm.harness import (
    RegimeRecord,
    RunReport,
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
    assert reference_cells(1.0, floor=256) == 256
    assert reference_cells(0.001) == 32768


def _record_kwargs(**overrides):
    base = dict(
        epsilon=0.1,
        n_ref=1024,
        n_x=64,
        n_y=16,
        t_end=0.02,
        error_u_inf_emm=1e-2,
        error_u_l2_emm=5e-3,
        error_du_inf_emm=2.0,
        error_du_l2_emm=1.0,
        error_u_inf_hmm=2e-2,
        error_u_l2_hmm=1e-2,
        error_du_inf_hmm=3.0,
        error_du_l2_hmm=2.0,
        wall_time_ref=1.0,
        wall_time_emm=0.1,
        wall_time_hmm=0.05,
        csv_path="regime_eps_0.1.csv",
    )
    base.update(overrides)
    return base


def test_regime_record_accepts_consistent_norms():
    rec = RegimeRecord(**_record_kwargs())
    assert rec.epsilon == 0.1
    # the normalized L2 norm can never exceed the max norm on [0, 1]
    with pytest.raises(ValueError, match="exceeds"):
        RegimeRecord(**_record_kwargs(error_u_l2_emm=2e-2))
    with pytest.raises(ValueError, match="nonnegative"):
        RegimeRecord(**_record_kwargs(error_du_l2_hmm=-1.0))
    with pytest.raises(ValueError, match="finite"):
        RegimeRecord(**_record_kwargs(error_u_inf_hmm=math.nan))


def test_run_report_lookup():
    rec = RegimeRecord(**_record_kwargs())
    report = RunReport(records=(rec,), summary_path="summary.csv")
    assert report.record_for(0.1) is rec
    with pytest.raises(KeyError):
        report.record_for(0.5)


def test_regime_comparison_empty_is_a_no_op(tmp_path):
    out = tmp_path / "untouched"
    report = regime_comparison(eps_values=(), out_dir=out)
    assert report.records == ()
    assert report.summary_path is None
    assert not out.exists()


def test_regime_comparison_rejects_coarse_ref_cells_before_any_work(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("run_reference", "run_micro_macro", "run_homogenized"):
        monkeypatch.setattr(harness, name, refuse)
    out = tmp_path / "untouched"
    for ref_cells in (5, 7):  # meshes, but too coarse for the derivative stencils
        with pytest.raises(ValueError, match="needs >= 8 cells"):
            regime_comparison(eps_values=(0.5,), out_dir=out, ref_cells=ref_cells)
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
    assert lines[0] == "eps,scheme,error_u_inf,error_u_l2,error_du_inf,error_du_l2"
    assert len(lines) == 3  # one emm and one hmm row for the single regime
    assert lines[1].split(",")[1] == "emm"
    assert lines[2].split(",")[1] == "hmm"

    rec = reports[0].record_for(0.5)
    assert rec.n_ref == 128
    # the CSV stores full-precision values: spot-check one against the record
    first = csv_a.decode().splitlines()[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == 0.5 / 128  # first reference cell center


def test_regime_comparison_record_matches_files(tmp_path):
    report = regime_comparison(
        eps_values=(0.5,), out_dir=tmp_path / "r", t_end=0.002, ref_cells=128
    )
    rec = report.record_for(0.5)
    data = np.genfromtxt(rec.csv_path, delimiter=",", names=True)
    err = np.max(np.abs(data["u_emm"] - data["u_ref"]))
    assert err == pytest.approx(rec.error_u_inf_emm, rel=1e-12)


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


def test_ap_degeneracy_study_rejects_bad_step_count():
    with pytest.raises(ConfigError):
        ap_degeneracy_study(eps_values=(0.1,), n_steps=0)


def test_convergence_study_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="levels"):
        convergence_study("ref", levels=2)
    with pytest.raises(ConfigError, match="scheme"):
        convergence_study("hmm")
