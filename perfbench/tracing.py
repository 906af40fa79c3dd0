"""Spans around calls into the apmm modules, installed from outside.

``Tracer.install`` replaces each traced public function, and every name it
was re-bound to by ``from ... import``, with a wrapper that times the call.
Methods are replaced on their class, so calls through ``self`` are traced
too.  Spans nest: a span's self time is its duration minus the time of the
spans opened inside it.  ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from apmm import harness, homogenization, operators, problem, reconstruct, solvers

# span name -> (owner, attribute) pairs holding the same function
_FUNCTIONS = {
    "problem.sample_coefficient": [(problem, "sample_coefficient"), (solvers, "sample_coefficient")],
    "homogenization.build_homogenized": [
        (homogenization, "build_homogenized"),
        (solvers, "build_homogenized"),
    ],
    "homogenization.wall_gradients": [
        (homogenization, "wall_gradients"),
        (solvers, "wall_gradients"),
    ],
    "homogenization.first_order_corrector": [
        (homogenization, "first_order_corrector"),
        (solvers, "first_order_corrector"),
    ],
    "operators.y_average": [(operators, "y_average"), (solvers, "y_average")],
    "operators.remove_y_average": [(operators, "remove_y_average"), (solvers, "remove_y_average")],
    "solvers.run_reference": [(solvers, "run_reference"), (harness, "run_reference")],
    "solvers.run_homogenized": [(solvers, "run_homogenized"), (harness, "run_homogenized")],
    "solvers.emm_init": [(solvers.MicroMacroSolver, "__init__")],
    "solvers.emm_step": [(solvers.MicroMacroSolver, "step")],
    "solvers.boundary_data": [(solvers.MicroMacroSolver, "boundary_data")],
    "reconstruct.trig_interpolate": [(reconstruct, "trig_interpolate"), (solvers, "trig_interpolate")],
    "reconstruct.reconstruct_micro_macro": [
        (reconstruct, "reconstruct_micro_macro"),
        (harness, "reconstruct_micro_macro"),
    ],
    "reconstruct.reconstruct_homogenized": [
        (reconstruct, "reconstruct_homogenized"),
        (harness, "reconstruct_homogenized"),
    ],
    "reconstruct.derivative_on_fine": [
        (reconstruct, "derivative_on_fine"),
        (harness, "derivative_on_fine"),
    ],
    "harness.error_norms": [(harness, "error_norms")],
}
for _method in (
    "apply_effective",
    "solve_shifted",
    "apply_mixed_derivatives",
    "apply_x_diffusion",
    "apply_y_diffusion",
    "solve_y_diffusion",
):
    _FUNCTIONS[f"operators.{_method}"] = [(operators.GridOperators, _method)]


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    durations_ns: list[int] = field(default_factory=list)
    self_ns: int = 0

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def total_ns(self) -> int:
        return sum(self.durations_ns)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.layer_busy_ns: dict[str, int] = {}
        self._open_children: list[list[int]] = []  # child time of each open span
        self._layer_depth: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name in _FUNCTIONS}
        self.layer_busy_ns = {name.split(".")[0]: 0 for name in _FUNCTIONS}

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        stats = self.stats[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            self._open_children.append(children)
            depth = self._layer_depth.get(layer, 0)
            self._layer_depth[layer] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._layer_depth[layer] = depth
                self._open_children.pop()
                if self._open_children:
                    self._open_children[-1][0] += elapsed
                if depth == 0:
                    self.layer_busy_ns[layer] += elapsed
                stats.durations_ns.append(elapsed)
                stats.self_ns += elapsed - children[0]

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.reset()
        for name, targets in _FUNCTIONS.items():
            # A function the program no longer has keeps zero calls, and a
            # name now bound to something else is left alone, so the benchmark
            # still runs after a refactor of the program.
            present = [(owner, attr) for owner, attr in targets if hasattr(owner, attr)]
            if not present:
                continue
            original = getattr(*present[0])
            wrapper = self._wrap(name, original)
            for owner, attr in present:
                if getattr(owner, attr) is original:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
