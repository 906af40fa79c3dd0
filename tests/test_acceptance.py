"""Acceptance battery for the multiscale diffusion package.

Each test prints one PASS/FAIL line (visible under ``pytest -rA``) and then
asserts, so the battery doubles as a human-readable report.  The regime
comparison that feeds the error-ordering checks runs once per session.
"""

import math
import time

import numpy as np
import pytest

from apmm.harness import (
    ap_degeneracy_study,
    convergence_study,
    error_norms,
    reference_cells,
    regime_comparison,
)
from apmm.homogenization import homogenized_coefficient
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import y_average
from apmm.problem import (
    benchmark_coefficient,
    benchmark_problem,
    constant_coefficient,
)
from apmm.reconstruct import reconstruct_micro_macro
from apmm.solvers import MicroMacroSolver, run_reference
from oracle import (
    apply_effective, apply_mixed_derivatives, apply_x_diffusion, apply_y_diffusion, grid_ops,
    orders, trig_interpolate,
)

A0 = math.sqrt(0.21)


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def regime_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure1")
    report = regime_comparison(out_dir=out)
    curves = {
        rec.epsilon: np.genfromtxt(rec.csv_path, delimiter=",", names=True)
        for rec in report.records
    }
    return report, curves


# --------------------------------------------------------------------- A1


def test_a1_effective_coefficient():
    t0 = time.perf_counter()
    a0 = homogenized_coefficient(benchmark_coefficient(), 0.5, make_cell_mesh(256))
    elapsed = time.perf_counter() - t0
    err = abs(a0 - A0)
    _report(
        "A1",
        err <= 1e-10 and elapsed < 1.0,
        f"|a0 - sqrt(0.21)| = {err:.2e} <= 1e-10, {elapsed:.3f}s",
    )


# --------------------------------------------------------------------- A2


def test_a2_operator_battery():
    t0 = time.perf_counter()
    checks = []  # (label, ok)
    all_orders = []

    # averaging projection
    ops = grid_ops(8, 16)
    y = ops.ymesh.nodes
    checks.append(("pi const", np.max(np.abs(y_average(np.ones((8, 16))) - 1.0)) == 0.0))
    checks.append(("pi sin", abs(float(np.mean(np.sin(2 * np.pi * y)))) <= 1e-14))
    u = np.sin(2 * np.pi * ops.xmesh.centers)[:, None] * np.cos(4 * np.pi * y)[None, :]
    checks.append(("pi two-mode", np.max(np.abs(y_average(u))) <= 1e-13))

    # fast diffusion: exact kernel, consistency, projection identity
    ops = grid_ops(4, 16, constant_coefficient(1.0))
    checks.append(
        ("L const", np.max(np.abs(apply_y_diffusion(ops, np.ones((4, 16))))) == 0.0)
    )
    errors = []
    for ny in (16, 32, 64):
        o = grid_ops(4, ny, constant_coefficient(1.0))
        w = np.tile(np.sin(2 * np.pi * o.ymesh.nodes), (4, 1))
        errors.append(np.max(np.abs(apply_y_diffusion(o, w) + 4 * np.pi**2 * w)))
    checks.append(("L err@16", errors[0] <= 0.7))
    all_orders += orders(errors)
    ops = grid_ops(64, 16)
    rng = np.random.default_rng(7)
    w = rng.standard_normal((64, 16))
    checks.append(
        ("pi L", np.max(np.abs(y_average(apply_y_diffusion(ops, w)))) <= 1e-12)
    )
    g = w - w.mean(axis=-1, keepdims=True)
    back = apply_y_diffusion(ops, -ops._factor(0.0)(g.copy())())
    checks.append(
        ("L solve roundtrip", np.max(np.abs(back - g)) <= 1e-11 * np.max(np.abs(g)))
    )
    # the shifted solve (I - c Ly) w' = w - mean(w) at s = 1/c: a constant has no mean-free
    # part even where s is 1e300, and w' is mean-free
    shifted = ops._factor(1e300)(np.full((64, 16), 0.25e300))()
    checks.append(("shift const", np.max(np.abs(shifted)) <= 1e-12))
    s = 1.0 / 3.0
    shifted = ops._factor(s)(s * w)()
    checks.append(("shift mean", np.max(np.abs(shifted.mean(axis=-1))) <= 1e-12))

    # slow diffusion
    errors = []
    for nx in (32, 64, 128):
        o = grid_ops(nx, 8, constant_coefficient(1.0))
        x = o.xmesh.centers
        got = apply_x_diffusion(o, np.sin(np.pi * x))
        errors.append(np.max(np.abs(got[:, 0] + np.pi**2 * np.sin(np.pi * x))))
    all_orders += orders(errors)
    o = grid_ops(32, 8, constant_coefficient(1.0))
    lin = 0.3 + 1.7 * o.xmesh.centers
    checks.append(
        ("D linear", np.max(np.abs(apply_x_diffusion(o, lin, bc=(0.3, 2.0)))) <= 1e-12)
    )

    # mixed block
    ops = grid_ops(64, 16)
    u = np.sin(np.pi * ops.xmesh.centers)
    checks.append(
        ("pi B", np.max(np.abs(y_average(apply_mixed_derivatives(ops, u)))) <= 1e-12)
    )
    errors = []
    for n in (32, 64, 128):
        o = grid_ops(n, n)
        x, y = o.xmesh.centers, o.ymesh.nodes
        w = np.sin(np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
        a = 1.1 + np.sin(2 * np.pi * y)
        ap = 2 * np.pi * np.cos(2 * np.pi * y)
        u_xy = -2 * np.pi**2 * np.cos(np.pi * x)[:, None] * np.sin(2 * np.pi * y)[None, :]
        u_x = np.pi * np.cos(np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
        want = 2 * a[None, :] * u_xy + ap[None, :] * u_x
        errors.append(np.max(np.abs(apply_mixed_derivatives(o, w) - want)))
    all_orders += orders(errors)

    # effective operator: constant degeneracy and homogenized limit
    o = grid_ops(64, 16, constant_coefficient(2.0))
    f = np.sin(2 * np.pi * o.xmesh.centers)
    dev = np.max(np.abs(apply_effective(o, f) - y_average(apply_x_diffusion(o, f))))
    checks.append(("Dbar const", dev <= 1e-12))
    errors = []
    for n in (32, 64, 128):
        o = grid_ops(n, n)
        f = np.sin(2 * np.pi * o.xmesh.centers)
        want = -A0 * 4 * np.pi**2 * f
        errors.append(np.max(np.abs(apply_effective(o, f) - want)) / np.max(np.abs(want)))
    checks.append(("Dbar paper@64", errors[1] <= 2e-2))
    all_orders += orders(errors)

    elapsed = time.perf_counter() - t0
    bad = [label for label, ok in checks if not ok]
    orders_ok = all(1.8 <= p <= 2.2 for p in all_orders)
    _report(
        "A2",
        not bad and orders_ok and elapsed < 10.0,
        f"{len(checks)} example checks (failed: {bad or 'none'}), "
        f"orders {min(all_orders):.2f}..{max(all_orders):.2f} in [1.8, 2.2], "
        f"{elapsed:.1f}s < 10s",
    )


# --------------------------------------------------------------------- A3


def _max_errors(report, eps, quantity):
    """The (emm, hmm) max-norm errors of `quantity` ("u" or "du") at eps."""
    errors = next(r for r in report.records if r.epsilon == eps).errors
    return errors[f"{quantity}_emm"][0], errors[f"{quantity}_hmm"][0]


def test_a3a_splitting_beats_homogenized_at_order_one(regime_report):
    report, _ = regime_report
    emm, hmm = _max_errors(report, 1.0, "u")
    ok = emm <= hmm / 5.0
    _report("A3a", ok, f"eps=1: emm {emm:.3e} <= hmm/5 = {hmm / 5:.3e}")


def test_a3b_splitting_accuracy_across_regimes(regime_report):
    report, curves = regime_report
    rels = {}
    for eps in (1.0, 0.1):
        scale = float(np.max(np.abs(curves[eps]["u_ref"])))
        rels[eps] = _max_errors(report, eps, "u")[0] / scale
    ok = all(r <= 5e-2 for r in rels.values())
    _report(
        "A3b",
        ok,
        "emm rel err "
        + ", ".join(f"eps={e:g}: {r:.3e}" for e, r in rels.items())
        + " <= 5e-2",
    )


def test_a3c_both_schemes_accurate_in_scale_separated_regime(regime_report):
    report, curves = regime_report
    scale = float(np.max(np.abs(curves[0.01]["u_ref"])))
    rel_emm, rel_hmm = (e / scale for e in _max_errors(report, 0.01, "u"))
    ok = rel_emm <= 5e-2 and rel_hmm <= 5e-2
    _report(
        "A3c",
        ok,
        f"eps=0.01: emm rel {rel_emm:.3e}, hmm rel {rel_hmm:.3e} <= 5e-2",
    )


def test_a3d_derivative_errors_follow_same_ordering(regime_report):
    report, _ = regime_report
    emm, hmm = _max_errors(report, 1.0, "du")
    oks = [emm <= hmm / 5.0]
    details = [f"eps=1: emm {emm:.3e} <= hmm/5 = {hmm / 5:.3e}"]
    for eps in (0.1, 0.01):
        emm, hmm = _max_errors(report, eps, "du")
        oks.append(emm <= hmm)
        details.append(f"eps={eps:g}: emm {emm:.3e} <= hmm {hmm:.3e}")
    _report("A3d", all(oks), "; ".join(details))


# --------------------------------------------------------------------- A4


def test_a4_degeneracy_to_asymptotic_scheme():
    t0 = time.perf_counter()
    rows = ap_degeneracy_study()
    elapsed = time.perf_counter() - t0
    devs = dict(rows)
    tail = [dev for eps, dev in rows if eps <= 1e-4]
    ratios = [a / b for a, b in zip(tail, tail[1:])]
    ok = (
        devs[1e-6] <= 1e-4
        and all(a > b for (_, a), (_, b) in zip(rows, rows[1:]))
        and all(5.0 <= r <= 20.0 for r in ratios)
        and elapsed < 30.0
    )
    _report(
        "A4",
        ok,
        f"dev(1e-6) = {devs[1e-6]:.3e} <= 1e-4, decade ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f" in [5, 20], {elapsed:.1f}s < 30s",
    )


def test_a4_degeneracy_at_extreme_epsilon():
    # past eps = 1e-6 the splitting is the asymptotic scheme to rounding: the shift s =
    # (eps/dt)*eps is 2e-26 at eps = 1e-15, 2e-196 at 1e-100 and underflows to 0 at 1e-300
    for eps, deviation in ap_degeneracy_study(eps_values=(1e-15, 1e-100, 1e-300)):
        assert deviation <= 4e-15, (eps, deviation)


# --------------------------------------------------------------------- A5


def test_a5_uniform_stability_in_epsilon():
    t0 = time.perf_counter()
    bound = 1.0 + 0.1  # max|g| + margin: the run is unforced
    worst = 0.0
    # the fast solve's shift s = (eps/dt)*eps is 2e-20 at eps = 1e-12, 2e-196 at
    # 1e-100 and underflows to 0 at 1e-300, the singular end of the solve
    regimes = (1.0, 1e-1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-100, 1e-300)
    for eps in regimes:
        res = MicroMacroSolver(benchmark_problem(eps, t_end=0.02), 64, 16).run()
        assert np.all(np.isfinite(res.final_macro))
        assert np.all(np.isfinite(res.final_micro))
        worst = max(worst, float(np.max(np.abs(res.final_macro))))
    elapsed = time.perf_counter() - t0
    _report(
        "A5",
        worst <= bound and elapsed < 60.0,
        f"max|F| = {worst:.4f} <= {bound} over {len(regimes)} regimes, {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------- A6


def test_a6_convergence_orders():
    t0 = time.perf_counter()
    spatial = convergence_study("ref")
    temporal = convergence_study("emm")
    elapsed = time.perf_counter() - t0
    ok = 1.8 <= spatial.order <= 2.2 and 0.8 <= temporal.order <= 1.2
    _report(
        "A6",
        ok and elapsed < 120.0,
        f"ref order {spatial.order:.3f} in [1.8, 2.2], "
        f"emm order {temporal.order:.3f} in [0.8, 1.2], {elapsed:.1f}s < 120s",
    )


# --------------------------------------------------------------------- A7


def test_a7_reconstruction_exactness():
    worst = 0.0

    samples = np.sin(2 * np.pi * make_cell_mesh(16).nodes)
    worst = max(worst, abs(trig_interpolate(samples, 0.13) - math.sin(2 * np.pi * 0.13)))

    nodes = make_cell_mesh(16).nodes
    two_mode = np.sin(2 * np.pi * nodes) + 0.5 * np.cos(6 * np.pi * nodes)
    rng = np.random.default_rng(99)
    pts = rng.uniform(0.0, 1.0, size=100)
    want = np.sin(2 * np.pi * pts) + 0.5 * np.cos(6 * np.pi * pts)
    worst = max(worst, float(np.max(np.abs(trig_interpolate(two_mode, pts) - want))))

    # zero oscillatory part: exactly the piecewise-linear slow field
    coarse, fine = make_spatial_mesh(32), make_spatial_mesh(1024)
    macro = np.sin(2 * np.pi * coarse.centers)
    got = reconstruct_micro_macro(macro, np.zeros((32, 16)), 0.1, coarse, fine)
    anchors_x = np.concatenate(([0.0], coarse.centers, [1.0]))
    anchors_v = np.concatenate(([0.0], macro, [0.0]))
    lin = np.interp(fine.centers, anchors_x, anchors_v)
    worst = max(worst, float(np.max(np.abs(got - lin))))

    # slow-independent oscillatory part passes through between coarse centers
    profile = 0.2 * np.sin(2 * np.pi * nodes) + 0.05 * np.cos(4 * np.pi * nodes)
    micro = np.tile(profile, (32, 1))
    got = reconstruct_micro_macro(macro, micro, 0.1, coarse, fine)
    inner = (fine.centers >= coarse.centers[0]) & (fine.centers <= coarse.centers[-1])
    fast = trig_interpolate(profile, np.mod(fine.centers / 0.1, 1.0))
    worst_inner = float(np.max(np.abs((got - lin - fast)[inner])))
    worst = max(worst, worst_inner)

    _report("A7", worst <= 1e-12, f"max deviation {worst:.2e} <= 1e-12 over 4 identities")


# --------------------------------------------------------------------- A8


def test_a8_wall_layer_and_corrector_boundary_data():
    eps, t_end, band = 0.1, 0.002, 6
    n_ref = reference_cells(eps)
    ref = run_reference(benchmark_problem(eps, t_end=t_end), n_ref)
    fine = ref.mesh
    k = band * (n_ref // 64)

    edges = {}
    inner = {}
    for mode in ("dirichlet_homogeneous", "dirichlet_corrector"):
        res = MicroMacroSolver(benchmark_problem(eps, t_end=t_end, bc_mode=mode), 64, 16).run()
        u = reconstruct_micro_macro(
            res.final_macro, res.final_micro, eps, res.xmesh, fine
        )
        err = np.abs(u - ref.final)
        edges[mode] = float(max(np.max(err[:k]), np.max(err[-k:])))
        inner[mode] = float(np.max(err[k:-k]))

    layer_ok = inner["dirichlet_homogeneous"] <= 0.5 * edges["dirichlet_homogeneous"]
    drop = edges["dirichlet_homogeneous"] / edges["dirichlet_corrector"]
    _report(
        "A8",
        layer_ok and drop >= 2.0,
        f"homogeneous walls: interior {inner['dirichlet_homogeneous']:.3e} <= "
        f"0.5 * boundary {edges['dirichlet_homogeneous']:.3e}; corrector data cuts "
        f"the boundary error by {drop:.2f}x >= 2x",
    )
