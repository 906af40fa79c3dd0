"""The three benchmark workloads and the checks on their outputs.

Every workload integrates initial data g(x) = sum_k c_k sin(k pi x),
k = 1..4, with no source.  All three integrators are linear in g, so the
correct final fields for any c are sum_k c_k * golden_k, where golden_k are
the fields recorded for g = sin(k pi x) (``golden.npz``, written by
``make_golden.py``).

One iteration (``Workload.iterate``) runs exactly the timed work and returns
the fields it produced, grouped by integration.  ``Workload.check`` compares
them against the golden combination and computes the accuracy metrics; it
runs outside the timed region.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from apmm import harness, problem, reconstruct, solvers
from apmm.mesh import make_spatial_mesh

N_MODES = 4
CHECK_RTOL = 1e-8
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.npz"


def mode_coefficients(seed: int) -> np.ndarray:
    """c for a seed: seed 0 is the paper's g = sin(2 pi x), others jitter 1 +- 5 %."""
    if seed == 0:
        return np.eye(N_MODES)[1]
    return np.random.default_rng(seed).uniform(0.95, 1.05, N_MODES)


def initial_data(c):
    c = tuple(float(v) for v in c)

    def g(x):
        x = np.asarray(x, dtype=float)
        return sum(ck * np.sin((k + 1) * np.pi * x) for k, ck in enumerate(c))

    return g


def xdep_coefficient() -> problem.DiffusionField:
    """a = 1.3 + (0.5 + 0.4x) sin 2 pi y + 0.2 cos 2 pi x cos 4 pi y, in [0.2, 2.4]."""
    return problem.DiffusionField(
        func=lambda x, y: 1.3
        + (0.5 + 0.4 * x) * np.sin(2.0 * np.pi * y)
        + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y),
        a_min=0.1,
        a_max=2.5,
    )


@dataclasses.dataclass(frozen=True)
class EmmCase:
    """One micro-macro integration of a workload."""

    label: str
    epsilon: float
    t_end: float
    n_x: int
    n_y: int
    xdep: bool = False

    def problem(self, c) -> problem.ProblemSpec:
        base = problem.benchmark_problem(self.epsilon, t_end=self.t_end)
        if self.xdep:
            base = dataclasses.replace(base, coefficient=xdep_coefficient())
        return dataclasses.replace(base, initial=initial_data(c))

    @property
    def unknowns(self) -> int:
        return self.n_x * self.n_y + 2 * self.n_x


@dataclasses.dataclass
class Iteration:
    """What one iteration produced: fields per integration, and its size."""

    fields: dict[str, dict[str, np.ndarray]]
    dof_steps: int
    extra: dict = dataclasses.field(default_factory=dict)


def relative_deviation(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.inf
    if not np.all(np.isfinite(actual)):
        return math.inf
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(actual - expected))) / scale


def check_fields(fields, golden, prefix: str, c) -> list[str]:
    """Names of the integrations whose fields miss sum_k c_k golden_k."""
    failed = []
    for integration, group in fields.items():
        for name, actual in group.items():
            key = f"{prefix}/{integration}/{name}"
            expected = sum(c[k] * golden[f"{key}/k{k + 1}"] for k in range(N_MODES))
            if not relative_deviation(actual, expected) <= CHECK_RTOL:
                failed.append(integration)
                break
    return failed


def accuracy(u, du, u_hmm, u_ref, fine) -> dict[str, float]:
    """Relative max errors of the reconstructions against a resolved reference."""
    du_ref = reconstruct.derivative_on_fine(u_ref, fine)
    u_scale = float(np.max(np.abs(u_ref)))
    du_scale = float(np.max(np.abs(du_ref)))
    return {
        "err_emm_u_inf": harness.error_norms(u, u_ref, fine)[0] / u_scale,
        "err_hmm_u_inf": harness.error_norms(u_hmm, u_ref, fine)[0] / u_scale,
        "err_emm_du_inf": harness.error_norms(du, du_ref, fine)[0] / du_scale,
    }


class Workload:
    """Base: a list of emm cases run per iteration, checked against golden data."""

    name = ""
    cases: tuple[EmmCase, ...] = ()
    integrations_per_iteration = 0

    def setup_once(self, c) -> float:
        """Seconds for every emm solver's construction plus its first step."""
        total = 0.0
        for case in self.cases:
            prob = case.problem(c)
            t0 = time.perf_counter()
            solver = solvers.MicroMacroSolver(prob, case.n_x, case.n_y)
            solver.step(solver.initial_state())
            total += time.perf_counter() - t0
        return total

    def iterate(self, c) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration, golden, c) -> tuple[list[str], dict[str, float]]:
        raise NotImplementedError


class EmmOnly(Workload):
    """Workloads whose timed work is emm runs only.

    The accuracy metrics compare each case that has a resolved reference in
    the golden data against it, after the timed region: the homogenized run
    and both reconstructions are made here, untimed.
    """

    reference_cases: tuple[str, ...] = ()

    def iterate(self, c) -> Iteration:
        fields, dof_steps, results = {}, 0, {}
        for case in self.cases:
            solver = solvers.MicroMacroSolver(case.problem(c), case.n_x, case.n_y)
            result = solver.run()
            fields[case.label] = {"macro": result.final_macro, "micro": result.final_micro}
            results[case.label] = result
            dof_steps += case.unknowns * result.steps
        return Iteration(fields, dof_steps, {"results": results})

    def check(self, it, golden, c):
        failed = check_fields(it.fields, golden, self.name, c)
        metrics: dict[str, float] = {}
        for case in self.cases:
            if case.label not in self.reference_cases:
                continue
            prob = case.problem(c)
            emm = it.extra["results"][case.label]
            hmm = solvers.run_homogenized(prob, emm.hom)
            hmm_fields = {f"{case.label}.hmm": {"final": hmm.final}}
            failed += check_fields(hmm_fields, golden, self.name, c)
            ref_key = f"{self.name}/{case.label}.ref/final"
            u_ref = sum(c[k] * golden[f"{ref_key}/k{k + 1}"] for k in range(N_MODES))
            fine = make_spatial_mesh(u_ref.shape[0])
            eps = case.epsilon
            u = reconstruct.reconstruct_micro_macro(
                emm.final_macro, emm.final_micro, eps, emm.xmesh, fine
            )
            u_hmm = reconstruct.reconstruct_homogenized(
                hmm.final, hmm.corrector, eps, hmm.mesh, fine
            )
            du = reconstruct.derivative_on_fine(u, fine)
            for key, value in accuracy(u, du, u_hmm, u_ref, fine).items():
                metrics[key] = max(metrics.get(key, 0.0), value)
        return failed, metrics


class EmmRegimes(EmmOnly):
    name = "emm_regimes"
    cases = tuple(
        EmmCase(f"eps{eps:g}", eps, 0.02, 64, 16) for eps in (1.0, 0.1, 0.01, 1e-6)
    )
    # eps = 1e-6 cannot be resolved by a fine-grid reference
    reference_cases = ("eps1", "eps0.1", "eps0.01")
    integrations_per_iteration = 4


class EmmXdep(EmmOnly):
    name = "emm_xdep"
    cases = (EmmCase("eps0.1", 0.1, 0.004, 128, 32, xdep=True),)
    reference_cases = ("eps0.1",)
    integrations_per_iteration = 1


class Figure1(Workload):
    """The figure1 regime comparison at eps = 0.01, without the CSV writes."""

    name = "figure1_eps001"
    case = EmmCase("emm", 0.01, 0.005, 64, 16)
    cases = (case,)
    n_ref = 2048
    integrations_per_iteration = 3

    def iterate(self, c) -> Iteration:
        case = self.case
        prob = case.problem(c)
        eps = case.epsilon
        ref = solvers.run_reference(prob, self.n_ref)
        emm = solvers.MicroMacroSolver(prob, case.n_x, case.n_y).run()
        hmm = solvers.run_homogenized(prob, emm.hom)

        fine = ref.mesh
        u_ref = ref.final
        u_emm = reconstruct.reconstruct_micro_macro(
            emm.final_macro, emm.final_micro, eps, emm.xmesh, fine
        )
        u_hmm = reconstruct.reconstruct_homogenized(
            hmm.final, hmm.corrector, eps, hmm.mesh, fine
        )
        du_ref = reconstruct.derivative_on_fine(u_ref, fine)
        du_emm = reconstruct.derivative_on_fine(u_emm, fine)
        du_hmm = reconstruct.derivative_on_fine(u_hmm, fine)
        errors = {
            "u_emm": harness.error_norms(u_emm, u_ref, fine),
            "du_emm": harness.error_norms(du_emm, du_ref, fine),
            "u_hmm": harness.error_norms(u_hmm, u_ref, fine),
            "du_hmm": harness.error_norms(du_hmm, du_ref, fine),
        }
        fields = {
            "ref": {"final": u_ref},
            "emm": {"macro": emm.final_macro, "micro": emm.final_micro, "u": u_emm},
            "hmm": {"final": hmm.final, "u": u_hmm},
        }
        dof_steps = (
            self.n_ref * ref.steps
            + case.unknowns * emm.steps
            + hmm.mesh.n_cells * hmm.steps
        )
        extra = {"errors": errors, "du_ref": du_ref, "ref_steps": ref.steps}
        return Iteration(fields, dof_steps, extra)

    def check(self, it, golden, c):
        failed = check_fields(it.fields, golden, self.name, c)
        u_scale = float(np.max(np.abs(it.fields["ref"]["final"])))
        du_scale = float(np.max(np.abs(it.extra["du_ref"])))
        errors = it.extra["errors"]
        metrics = {
            "err_emm_u_inf": errors["u_emm"][0] / u_scale,
            "err_hmm_u_inf": errors["u_hmm"][0] / u_scale,
            "err_emm_du_inf": errors["du_emm"][0] / du_scale,
        }
        return failed, metrics


WORKLOADS = {w.name: w for w in (EmmRegimes(), Figure1(), EmmXdep())}
