"""Benchmark of the apmm solvers: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports apmm from ./src.  The seed picks
the initial data (see workloads.mode_coefficients).  One client runs
iterations back to back in this process (a closed loop, no threads of its
own).  Every iteration's outputs are checked against the golden fields.

With --trace 0 it reports the end-to-end metrics: the median wall time of
the iterations run during S seconds, the emm set-up time, throughput in
unknown-steps per second, the peak traced memory of one iteration and the
accuracy against a resolved reference.  With --trace 1 it alternates plain
and traced iterations for S seconds and reports the per-layer split.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# The tridiagonal and small LU solves gain nothing from BLAS threads, and a
# threaded OpenBLAS sometimes stalls for about a second after start-up.  Pin
# one thread before numpy is imported, for every BLAS numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ITERATIONS = 3
SETUP_PER_ITERATION = 3
# Median of calibrate() on a 2-core Intel Xeon with numpy 2.4 and one BLAS
# thread.  Times are rescaled by CALIBRATION_NOMINAL_S / calibrate() measured
# next to them.  This cancels the host's speed swings (up to +-25 %, lasting
# seconds to minutes on a shared machine), which runs short enough for the
# time budget cannot average out.
CALIBRATION_NOMINAL_S = 0.030

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "dof_steps_per_s": "1/s",
    "peak_mem_mb": "MB",
    "err_emm_u_inf": "rel",
    "err_hmm_u_inf": "rel",
    "err_emm_du_inf": "rel",
}
TRACED_OPERATORS = (
    "apply_effective",
    "solve_shifted",
    "apply_mixed_derivatives",
    "apply_x_diffusion",
    "solve_y_diffusion",
)


class Bench:
    """Runs and checks iterations of one workload, counting integrations."""

    def __init__(self, workload, c, golden):
        self.workload = workload
        self.c = c
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.accuracy: list[dict[str, float]] = []

    def iteration(self, before=None, after=None):
        """One checked iteration; returns (wall seconds, Iteration) or None on failure.

        ``before``/``after`` run just outside the timed region.
        """
        n = self.workload.integrations_per_iteration
        self.attempted += n
        if before is not None:
            before()
        try:
            try:
                t0 = time.perf_counter()
                it = self.workload.iterate(self.c)
                wall = time.perf_counter() - t0
            finally:
                if after is not None:
                    after()
            failed, accuracy = self.workload.check(it, self.golden, self.c)
        except Exception as exc:  # a failed integration is counted, not fatal
            print(f"# iteration failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += n
            return None
        self.failed += len(set(failed))
        for name in sorted(set(failed)):
            print(f"# output check failed: {self.workload.name}/{name}", file=sys.stderr)
        self.accuracy.append(accuracy)
        return wall, it


def timed_loop(seconds: float, body) -> None:
    """Call body() until `seconds` have passed and it ran MIN_ITERATIONS times."""
    start = time.perf_counter()
    count = 0
    while count < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        body()
        count += 1


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy operations, like the solvers' own mix."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64 * 16).reshape(64, 16)
    t0 = time.perf_counter()
    for _ in range(1000):
        x = 0.5 * (np.roll(x, 1, axis=1) + np.roll(x, -1, axis=0))
        x.mean(axis=-1)
    return time.perf_counter() - t0


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    peak_bytes = []

    def stop_tracemalloc():
        peak_bytes.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    # an untimed pass under tracemalloc, after the warm-up
    peak_ok = bench.iteration(before=tracemalloc.start, after=stop_tracemalloc) is not None

    raw_walls, walls, setups, calibrations, dof_steps = [], [], [], [], 0

    def body():
        nonlocal dof_steps
        before = calibrate()
        done = bench.iteration()
        after = calibrate()
        calibrations.extend((before, after))
        if done is not None:
            raw_walls.append(done[0])
            walls.append(done[0] * CALIBRATION_NOMINAL_S / (0.5 * (before + after)))
            dof_steps = done[1].dof_steps
            # set-up samples spread over the run, like the iterations
            scale = CALIBRATION_NOMINAL_S / after
            setups.extend(
                bench.workload.setup_once(bench.c) * scale for _ in range(SETUP_PER_ITERATION)
            )

    timed_loop(seconds, body)
    if not walls:
        return {}
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "dof_steps_per_s": dof_steps / wall,
        "peak_mem_mb": peak_bytes[0] / 2**20 if peak_ok else math.nan,
    }
    for key in ("err_emm_u_inf", "err_hmm_u_inf", "err_emm_du_inf"):
        metrics[key] = statistics.median(a[key] for a in bench.accuracy)
    print(f"# measured iteration walls (s): {' '.join(f'{w:.4f}' for w in raw_walls)}")
    print(f"# calibration (s): {' '.join(f'{c:.4f}' for c in calibrations)}")
    print(f"# measured wall median (s): {statistics.median(raw_walls):.6g}; "
          f"set-up samples: {len(setups)}")
    return metrics


def per_layer(tracer, wall: float, ref_steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    stats = tracer.stats

    def mean(name: str, scale: float) -> float:
        s = stats[name]
        return s.total_ns / s.calls / scale if s.calls else 0.0

    m: dict[str, float] = {}
    for op in TRACED_OPERATORS:
        m[f"operators.{op}.us"] = mean(f"operators.{op}", 1e3)
        m[f"operators.{op}.calls"] = stats[f"operators.{op}"].calls
    m["operators.busy_share"] = tracer.layer_busy_ns["operators"] / 1e9 / wall
    step = stats["solvers.emm_step"]
    m["solvers.emm_steps"] = step.calls
    m["solvers.emm_step.us"] = mean("solvers.emm_step", 1e3)
    m["solvers.emm_step.p90_us"] = (
        statistics.quantiles(step.durations_ns, n=10)[8] / 1e3 if step.calls > 1 else 0.0
    )
    m["solvers.emm_step.self_us"] = step.self_ns / step.calls / 1e3 if step.calls else 0.0
    m["solvers.boundary_data.us"] = mean("solvers.boundary_data", 1e3)
    m["reconstruct.trig_interpolate.us"] = mean("reconstruct.trig_interpolate", 1e3)
    m["reconstruct.trig_interpolate.calls"] = stats["reconstruct.trig_interpolate"].calls
    ref_ns = stats["solvers.run_reference"].total_ns
    m["solvers.run_reference.s"] = ref_ns / 1e9
    m["solvers.ref_steps"] = ref_steps
    m["solvers.ref_step.ns"] = ref_ns / ref_steps if ref_steps else 0.0
    m["solvers.emm_init.us"] = mean("solvers.emm_init", 1e3)
    m["problem.sample_coefficient.us"] = mean("problem.sample_coefficient", 1e3)
    m["homogenization.build_homogenized.us"] = mean("homogenization.build_homogenized", 1e3)
    m["solvers.run_homogenized.s"] = stats["solvers.run_homogenized"].total_ns / 1e9
    m["reconstruct.reconstruct_micro_macro.ms"] = mean("reconstruct.reconstruct_micro_macro", 1e6)
    m["reconstruct.reconstruct_homogenized.ms"] = mean("reconstruct.reconstruct_homogenized", 1e6)
    m["reconstruct.derivative_on_fine.us"] = mean("reconstruct.derivative_on_fine", 1e3)
    m["harness.error_norms.us"] = mean("harness.error_norms", 1e3)
    m["trace.wall_s"] = wall
    return m


def traced(bench: Bench, seconds: float) -> dict[str, float]:
    from tracing import Tracer

    tracer = Tracer()
    plain_walls, traced_walls, samples = [], [], []

    def body():
        done = bench.iteration()
        if done is not None:
            plain_walls.append(done[0])
        done = bench.iteration(before=tracer.install, after=tracer.uninstall)
        if done is not None:
            traced_walls.append(done[0])
            samples.append(per_layer(tracer, done[0], done[1].extra.get("ref_steps", 0)))

    timed_loop(seconds, body)
    if not samples or not plain_walls:
        return {}
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    print(f"# traced iterations: {len(samples)}; plain iterations: {len(plain_walls)}")
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {
        "us": "us",
        "p90_us": "us",
        "self_us": "us",
        "ns": "ns",
        "ms": "ms",
        "s": "s",
        "wall_s": "s",
        "calls": "count",
        "emm_steps": "count",
        "ref_steps": "count",
    }.get(suffix, "ratio")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine(args, warmup_s: float) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_warmup": "threads pinned to 1 and one untimed warm-up iteration",
        "warmup_s": warmup_s,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apmm" / "__init__.py").is_file():
        print(f"perfbench: apmm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    with np.load(wl.GOLDEN_PATH) as data:
        golden = dict(data)
    bench = Bench(wl.WORKLOADS[args.workload], wl.mode_coefficients(args.seed), golden)

    t0 = time.perf_counter()
    bench.iteration()  # untimed warm-up: imports, BLAS start-up, first-call costs
    warmup_s = time.perf_counter() - t0
    print("# machine: " + json.dumps(machine(args, warmup_s)))

    metrics = traced(bench, args.seconds) if args.trace else end_to_end(bench, args.seconds)
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {unit_of(name)}")
    complete = bool(metrics) and all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": bench.failed == 0 and complete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
