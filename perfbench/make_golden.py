"""Record the golden fields that the benchmark checks its outputs against.

For every workload and every sine mode k = 1..4 this runs one iteration with
g = sin(k pi x) and stores each output field, plus, for the emm-only
workloads, the homogenized final field and a resolved fine-grid reference
for every case that has one.  Run it only on the commit whose outputs define
correctness, from the repository root:

    python3 perfbench/make_golden.py

It rewrites perfbench/golden.npz and takes a few minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from apmm import harness, solvers  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> None:
    golden: dict[str, np.ndarray] = {}
    for workload in wl.WORKLOADS.values():
        for k in range(1, wl.N_MODES + 1):
            c = np.eye(wl.N_MODES)[k - 1]
            it = workload.iterate(c)
            for integration, group in it.fields.items():
                for name, field in group.items():
                    golden[f"{workload.name}/{integration}/{name}/k{k}"] = field
            for case in workload.cases:
                if case.label not in getattr(workload, "reference_cases", ()):
                    continue
                prob = case.problem(c)
                hmm = solvers.run_homogenized(prob, it.extra["results"][case.label].hom)
                golden[f"{workload.name}/{case.label}.hmm/final/k{k}"] = hmm.final
                n_ref = harness.reference_cells(case.epsilon)
                ref = solvers.run_reference(prob, n_ref)
                golden[f"{workload.name}/{case.label}.ref/final/k{k}"] = ref.final
            print(f"{workload.name} k={k} done", flush=True)
    np.savez_compressed(wl.GOLDEN_PATH, **golden)
    print(f"wrote {len(golden)} fields to {wl.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
