"""Problem data: two-scale diffusion fields, run specifications, config files.

A diffusion coefficient is a strictly positive field a(x, y) that is
1-periodic in the fast variable y.  A problem specification bundles the
coefficient with the scale parameter, initial data, horizon and the
boundary treatment used by the micro-macro scheme.  The equation has no
forcing term.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .mesh import CellMesh, FloatArray, SpatialMesh, make_cell_mesh, make_spatial_mesh

BC_MODES = ("dirichlet_corrector", "dirichlet_homogeneous")
SCHEMES = ("ref", "emm", "hmm")

_PERIODICITY_TOL = 1e-14  # both relative to the declared a_max, so that they scale with a;
_BOUND_SLACK, _FLOOR_SLACK = 1e-12, 1e-6  # below a_min the slack is at most 1e-6 * a_min too


class EllipticityError(ValueError):
    """Raised when a sampled coefficient value violates positivity or its bounds."""


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run-configuration files."""


class StabilityError(RuntimeError):
    """An explicit time loop produced non-finite values."""


@dataclass(frozen=True)
class DiffusionField:
    """Strictly positive coefficient a(x, y), 1-periodic in y.

    ``func`` must accept broadcastable float arrays and evaluate pointwise.
    ``a_min``/``a_max`` are the declared pointwise bounds; sampling checks
    them and raises :class:`EllipticityError` on violation.
    """

    func: Callable[[FloatArray, FloatArray], FloatArray]
    a_min: float
    a_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a_min <= self.a_max and 1.0 / float(self.a_min) < np.inf):
            raise ValueError(  # the cell data divide by a, so 1/a_min must not overflow
                f"need 0 < a_min <= a_max and a finite 1/a_min, got {self.a_min}, {self.a_max}"
            )

    def __call__(self, x, y) -> FloatArray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        out = np.asarray(self.func(x, y), dtype=float)
        if out.shape != shape:
            out = np.ascontiguousarray(np.broadcast_to(out, shape))
        return out


def benchmark_coefficient() -> DiffusionField:
    """The oscillatory benchmark coefficient a(y) = 1.1 + sin(2*pi*y).

    Independent of the slow variable; bounds [0.1, 2.1].
    """
    return DiffusionField(
        func=lambda x, y: 1.1 + np.sin(2.0 * np.pi * y) + 0.0 * x,
        a_min=0.1,
        a_max=2.1,
    )


def constant_coefficient(value: float) -> DiffusionField:
    """A spatially constant coefficient (useful for exact cross-checks)."""
    if not 0.0 < value < np.inf:  # also false for nan
        raise ValueError(f"constant coefficient must be finite and positive, got {value}")
    return DiffusionField(
        func=lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), float(value)),
        a_min=float(value),
        a_max=float(value),
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one unforced initial-boundary value problem.

    ``initial`` is g(x); it must vanish at both walls (compatible Dirichlet
    data).  ``bc_mode`` selects how the micro-macro scheme treats the walls:
    ``dirichlet_corrector`` feeds first-order corrector traces to the micro
    unknown, ``dirichlet_homogeneous`` forces plain zero traces.
    """

    coefficient: DiffusionField
    epsilon: float
    initial: Callable[[FloatArray], FloatArray]
    bc_mode: str = "dirichlet_corrector"
    t_end: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.bc_mode not in BC_MODES:
            raise ValueError(f"bc_mode must be one of {BC_MODES}, got {self.bc_mode!r}")
        if not sys.float_info.min <= self.t_end < np.inf:  # also false for nan
            raise ValueError(f"t_end must be a positive normal float, got {self.t_end}")
        walls = np.asarray(self.initial(np.array([0.0, 1.0])), dtype=float)
        if not np.max(np.abs(walls)) <= 1e-12:  # NaN walls fail this too
            raise ValueError(
                "initial data must vanish at x=0 and x=1 "
                f"(got g(0)={walls[0]:.3e}, g(1)={walls[1]:.3e})"
            )


def benchmark_problem(
    epsilon: float,
    t_end: float = 1.0,
    bc_mode: str = "dirichlet_corrector",
) -> ProblemSpec:
    """Standard benchmark: oscillatory coefficient, g = sin(2*pi*x)."""
    return ProblemSpec(
        coefficient=benchmark_coefficient(),
        epsilon=epsilon,
        initial=lambda x: np.sin(2.0 * np.pi * x),
        bc_mode=bc_mode,
        t_end=t_end,
    )


def _cell_corrector(b_half: FloatArray, ymesh: CellMesh) -> FloatArray:
    """Closed-form corrector rows from ``b_half``, the rows of 1/a at the half-nodes."""
    # the a0 inside the increments must be the half-node harmonic mean, so that the last
    # increment wraps around the period exactly; the row sums by np.add.reduce, whose bits per
    # row do not depend on how many rows the call holds
    chi = np.cumsum(b_half, axis=-1, out=np.empty_like(b_half))  # then, in place, the sums
    chi -= b_half  # before each node
    chi *= (ymesh.n_points * ymesh.dy / np.add.reduce(b_half, axis=-1))[:, None]  # times a0 * dy
    chi -= ymesh.nodes
    chi -= (np.add.reduce(chi, axis=-1) / ymesh.n_points)[:, None]
    chi[np.ptp(b_half, axis=-1) == 0.0] = 0.0  # a y-independent row's is 0, not rounding
    return chi


@dataclass(frozen=True)
class HomogenizedData:
    """Cell data on a tensor grid, derived by :func:`sample_coefficient`.

    - ``a0_interfaces``: effective coefficient (harmonic y-mean) at all nx+1
      cell interfaces, walls included
    - ``chi``: corrector at (centre, node) pairs, shape (nx, ny), zero y-mean
    - ``chi_walls``: corrector profiles at x = 0 and x = 1, shape (2, ny)
    """

    xmesh: SpatialMesh
    ymesh: CellMesh
    a0_interfaces: FloatArray
    chi: FloatArray
    chi_walls: FloatArray


@dataclass(eq=False)
class CoefficientTables:
    """Coefficient samples on the tensor grid, and the cell data they give.

    All tables are direct pointwise evaluations (no averaging):

    - ``centers[i, j]``      = a(x_i, y_j)
    - ``x_interfaces[k, j]`` = a(k*dx, y_j), k = 0 .. nx (walls included)
    - ``y_interfaces[i, j]`` = a(x_i, (j+1/2)*dy), the periodic half-nodes

    ``hom`` holds the effective coefficient and the correctors computed
    from them.  ``x_uniform`` records whether every row of every table is
    identical, so that every x-slice sees the same coefficient; then each table
    and ``hom.chi`` is one row, held as a read-only view at row stride 0.
    """

    xmesh: SpatialMesh
    ymesh: CellMesh
    centers: FloatArray
    x_interfaces: FloatArray
    y_interfaces: FloatArray
    hom: HomogenizedData
    x_uniform: bool = False


def _check_values(values: FloatArray, a: DiffusionField, names, split: int) -> None:
    """Reject non-finite, non-positive or out-of-bounds samples, naming the table on error."""
    slack = _BOUND_SLACK * a.a_max
    low, high = a.a_min - min(slack, _FLOOR_SLACK * a.a_min), a.a_max + slack
    vmin, vmax = float(values.min()), float(values.max())  # nan if any entry is
    if 0.0 < vmin and low <= vmin and vmax <= high and vmax < np.inf:  # nan fails each
        return
    for name, table in zip(names, (values[:split], values[split:])):
        if not np.all(np.isfinite(table)):
            raise EllipticityError(f"coefficient table {name!r} contains non-finite entries")
        vmin, vmax = float(table.min()), float(table.max())
        if vmin <= 0.0:
            raise EllipticityError(f"coefficient table {name!r} has non-positive entry {vmin:.6e}")
        if vmin < low or vmax > high:
            raise EllipticityError(
                f"coefficient table {name!r} leaves declared bounds "
                f"[{a.a_min}, {a.a_max}]: sampled range [{vmin:.6e}, {vmax:.6e}]"
            )


def sample_coefficient(
    a: DiffusionField, xmesh: SpatialMesh, ymesh: CellMesh
) -> CoefficientTables:
    """Tabulate the coefficient at cell centres and both families of interfaces.

    The only evaluation of ``a`` on the tensor grid, in three calls: at the nodes on the
    rows ``[centres; interfaces]``, at the half-nodes on ``[centres; both walls]`` and at
    y = 1 on the node rows.  The tables are row blocks of the first two, checked to be
    finite, positive and within the declared bounds; the third checks 1-periodicity in y
    at every sampled x.  From the checked samples come the effective coefficient, from
    ``x_interfaces``, and the centres' and walls' correctors, in one pass over the half-nodes.
    """
    nx, xc = xmesh.n_cells, xmesh.centers
    x = np.concatenate((xc, xmesh.interfaces))
    at_nodes = a(x[:, None], ymesh.nodes)
    at_half = a(np.concatenate((xc, [0.0, 1.0]))[:, None], ymesh.half_nodes)
    _check_values(at_nodes, a, ("centers", "x_interfaces"), nx)
    _check_values(at_half, a, ("y_interfaces", "wall_half_nodes"), nx)

    wrap, tol = np.abs(at_nodes[:, 0] - a(x, 1.0)), _PERIODICITY_TOL * a.a_max
    if not float(wrap.max()) <= tol:  # also true for nan
        name = "centers" if not wrap[:nx].max() <= tol else "x_interfaces"
        raise ValueError(
            f"coefficient is not 1-periodic in y on the {name!r} rows: "
            f"|a(x,0) - a(x,1)| up to {wrap.max():.3e}"
        )

    centers, x_interfaces, y_interfaces = at_nodes[:nx], at_nodes[nx:], at_half[:nx]
    x_uniform = all((t[1:] == t[:-1]).all() for t in (centers, x_interfaces, y_interfaces))
    a0 = 1.0 / (np.add.reduce(1.0 / x_interfaces, axis=-1) / ymesh.n_points)  # the y-mean's bits
    if x_uniform:  # one row of each table and of chi, as read-only views at row stride 0
        chi = _cell_corrector(1.0 / at_half[[0, nx, nx + 1]], ymesh)  # a centre's, the walls'
        rows = np.concatenate((at_nodes[: nx + 1 : nx], at_half[:1], chi))
        rows.flags.writeable = False
        held = np.ndarray((4, nx + 1, ymesh.n_points), float, rows, 0, (rows.strides[0], 0, 8))
        centers, x_interfaces, y_interfaces, chi = held[0, :nx], held[1], held[2, :nx], held[3, :nx]
        chi_walls = rows[4:]
    else:
        chi = _cell_corrector(1.0 / at_half, ymesh)
        chi, chi_walls = chi[:nx], chi[nx:]
    hom = HomogenizedData(xmesh, ymesh, a0_interfaces=a0, chi=chi, chi_walls=chi_walls)
    return CoefficientTables(xmesh, ymesh, centers, x_interfaces, y_interfaces, hom, x_uniform)


# --------------------------------------------------------------------------
# Run-configuration files and CSV output
# --------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


@dataclass
class RunConfig:
    """Parsed contents of a plain-text run configuration."""

    epsilon: float = 0.1
    nx: int = 64
    ny: int = 16
    t_end: float = 0.02
    scheme: str = "emm"
    coeff: str = "paper"
    bc: str = "dirichlet_corrector"
    dt_factor: float | None = None
    output: str = "run"

    def resolved_dt_factor(self) -> float:
        if self.dt_factor is not None:
            return self.dt_factor
        return 0.05 if self.scheme == "ref" else 0.2

    def problem(self) -> ProblemSpec:
        base = benchmark_problem(self.epsilon, self.t_end, self.bc)
        return replace(base, coefficient=coefficient_from_name(self.coeff))


def coefficient_from_name(spec: str) -> DiffusionField:
    """Build a coefficient from a config value: ``paper`` or ``constant:<value>``."""
    name = spec.strip()
    if name == "paper":
        return benchmark_coefficient()
    if name.startswith("constant:"):
        try:
            return constant_coefficient(float(name.partition(":")[2]))
        except ValueError as exc:
            raise ConfigError(f"bad constant coefficient {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown coeff {spec!r}; expected 'paper' or 'constant:<value>'")


def _choice(key: str, allowed: tuple[str, ...]) -> Callable[[str], str]:
    def parse(value: str) -> str:
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
        return value

    return parse


def _coeff(value: str) -> str:
    coefficient_from_name(value)  # validate eagerly
    return value


# config key -> parser of its value; every key is a RunConfig field
_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "epsilon": float,
    "nx": int,
    "ny": int,
    "t_end": float,
    "scheme": _choice("scheme", SCHEMES),
    "coeff": _coeff,
    "bc": _choice("bc", BC_MODES),
    "dt_factor": float,
    "output": str,
}


def parse_config(path: str | Path) -> RunConfig:
    """Parse a ``key = value`` configuration file.

    Blank lines and ``#`` comments are ignored.  Unknown keys are an error.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            setattr(cfg, key, _CONFIG_PARSERS[key](value))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc

    try:
        cfg.problem()
        make_spatial_mesh(cfg.nx)
        make_cell_mesh(cfg.ny)
    except ValueError as exc:
        raise ConfigError(f"{path}: inconsistent configuration: {exc}") from exc
    return cfg
