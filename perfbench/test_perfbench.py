"""Tests of the benchmark itself: the output check and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads as wl  # noqa: E402
from apmm import operators, solvers  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    with np.load(wl.GOLDEN_PATH) as data:
        return dict(data)


def golden_fields(golden, prefix: str, c) -> dict[str, dict[str, np.ndarray]]:
    """The expected output fields of one workload, rebuilt from the golden data."""
    fields: dict[str, dict[str, np.ndarray]] = {}
    for key in golden:
        workload, integration, name, mode = key.split("/")
        if workload != prefix or mode != "k1" or integration.endswith((".ref", ".hmm")):
            continue
        base = f"{workload}/{integration}/{name}"
        fields.setdefault(integration, {})[name] = sum(
            c[k] * golden[f"{base}/k{k + 1}"] for k in range(wl.N_MODES)
        )
    return fields


def test_seed_zero_is_the_paper_initial_data():
    np.testing.assert_array_equal(wl.mode_coefficients(0), [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(wl.mode_coefficients(7), wl.mode_coefficients(7))


@pytest.mark.parametrize("prefix", sorted(wl.WORKLOADS))
def test_golden_combination_passes(golden, prefix):
    c = wl.mode_coefficients(5)
    fields = golden_fields(golden, prefix, c)
    assert fields
    assert wl.check_fields(fields, golden, prefix, c) == []


@pytest.mark.parametrize("prefix", sorted(wl.WORKLOADS))
def test_perturbed_field_fails(golden, prefix):
    c = wl.mode_coefficients(5)
    fields = golden_fields(golden, prefix, c)
    integration = sorted(fields)[0]
    name = sorted(fields[integration])[0]
    field = fields[integration][name].copy()
    flat = field.reshape(-1)
    flat[flat.size // 2] += 1e-6 * np.max(np.abs(field))
    fields[integration][name] = field
    assert wl.check_fields(fields, golden, prefix, c) == [integration]


def test_non_finite_field_fails(golden):
    c = wl.mode_coefficients(5)
    fields = golden_fields(golden, "emm_xdep", c)
    fields["eps0.1"]["macro"] = np.full_like(fields["eps0.1"]["macro"], np.nan)
    assert wl.check_fields(fields, golden, "emm_xdep", c) == ["eps0.1"]


def test_real_iteration_matches_golden_combination(golden):
    workload = wl.WORKLOADS["emm_xdep"]
    c = wl.mode_coefficients(3)
    it = workload.iterate(c)
    failed, accuracy = workload.check(it, golden, c)
    assert failed == []
    assert 0.0 < accuracy["err_emm_u_inf"] < accuracy["err_hmm_u_inf"]


def test_tracer_restores_originals_and_nests_spans():
    from tracing import Tracer

    step = solvers.MicroMacroSolver.step
    apply_effective = operators.GridOperators.apply_effective
    tracer = Tracer()
    case = wl.EmmCase("t", 0.1, 0.004, 16, 8)
    tracer.install()
    try:
        solver = solvers.MicroMacroSolver(case.problem(wl.mode_coefficients(1)), 16, 8)
        solver.step(solver.initial_state())
    finally:
        tracer.uninstall()
    assert solvers.MicroMacroSolver.step is step
    assert operators.GridOperators.apply_effective is apply_effective
    stats = tracer.stats
    assert stats["solvers.emm_step"].calls == 1
    assert stats["operators.apply_effective"].calls == 2
    assert stats["operators.solve_y_diffusion"].calls == 2
    assert stats["reconstruct.trig_interpolate"].calls == 2
    # nested operator calls are children of the step and of apply_effective
    assert 0 < stats["solvers.emm_step"].self_ns < stats["solvers.emm_step"].total_ns
    effective = stats["operators.apply_effective"]
    assert effective.self_ns < effective.total_ns
    assert tracer.layer_busy_ns["operators"] < stats["solvers.emm_step"].total_ns


def test_metrics_match_benchmark_declaration():
    import run
    from tracing import Tracer

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.reset()
    layer = set(run.per_layer(tracer, 1.0, 0)) | {"trace.overhead_frac"}
    assert layer == {m["name"] for m in declared["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_tracer_skips_functions_the_program_no_longer_has(monkeypatch):
    from apmm import harness
    from tracing import Tracer

    monkeypatch.delattr(harness, "error_norms")
    tracer = Tracer()
    tracer.install()
    try:
        assert not hasattr(harness, "error_norms")
    finally:
        tracer.uninstall()
    assert tracer.stats["harness.error_norms"].calls == 0
