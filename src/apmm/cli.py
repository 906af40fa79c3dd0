"""Command-line entry points for runs, studies, and cell-problem data.

Exit codes: 0 on success, 1 on numerical failure (blow-up or lost
ellipticity), 2 on configuration problems, an output path that cannot be
created or written and a grid past 2**20 points an axis or too large to
allocate among them; argparse's own usage errors already exit with 2.  All
CSV output is deterministic, matching the harness conventions.
The harness and the solvers, and with them ``scipy.linalg``, are imported by
the commands that run them, so ``cell``, ``--help`` and argument errors start
without them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .homogenization import homogenized_coefficient, solve_cell_problem
from .mesh import make_cell_mesh, make_spatial_mesh
from .problem import (
    ConfigError,
    EllipticityError,
    StabilityError,
    _fmt,
    _write_rows,
    coefficient_from_name,
    parse_config,
    sample_coefficient,
)


def _from_option(option: str, build, *args):
    """``build(*args)``, with a rejected command-line value as a ConfigError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{option}: {exc}") from exc


def _prepare_parent(path: str | Path) -> Path:
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    from .solvers import MicroMacroSolver, run_homogenized, run_reference

    cfg = parse_config(args.config)
    problem = cfg.problem()
    dt_factor = cfg.resolved_dt_factor()

    micro = None
    y_nodes = None
    if cfg.scheme == "ref":
        result = run_reference(problem, cfg.nx, dt_factor=dt_factor)
        x = result.mesh.centers
        slow = result.final
    elif cfg.scheme == "emm":
        result = MicroMacroSolver(problem, cfg.nx, cfg.ny, dt_factor=dt_factor).run()
        x = result.xmesh.centers
        slow = result.final_macro
        micro = result.final_micro
        y_nodes = result.hom.ymesh.nodes
    else:  # hmm: the oscillatory column holds the scaled corrector
        meshes = make_spatial_mesh(cfg.nx), make_cell_mesh(cfg.ny)
        hom = sample_coefficient(problem.coefficient, *meshes).hom
        result = run_homogenized(problem, hom, dt_factor=dt_factor)
        x = result.mesh.centers
        slow = result.final
        micro = problem.epsilon * result.corrector
        y_nodes = hom.ymesh.nodes

    written = []  # the files' directory is made after the run: a rejected config leaves none
    f_path = _prepare_parent(f"{cfg.output}_F.csv")
    _write_rows(f_path, ["x", "F"], ([_fmt(xi), _fmt(fi)] for xi, fi in zip(x, slow)))
    written.append(f_path)

    if micro is not None:
        g_path = Path(f"{cfg.output}_G.csv")
        rows = (
            [_fmt(xi), _fmt(yj), _fmt(micro[i, j])]
            for i, xi in enumerate(x)
            for j, yj in enumerate(y_nodes)
        )
        _write_rows(g_path, ["x", "y", "G"], rows)
        written.append(g_path)

    meta_path = Path(f"{cfg.output}_meta.txt")
    meta = [
        ("epsilon", _fmt(cfg.epsilon)), ("nx", cfg.nx), ("ny", cfg.ny), ("t_end", _fmt(cfg.t_end)),
        ("scheme", cfg.scheme), ("coeff", cfg.coeff), ("bc", cfg.bc),
        ("dt_factor", _fmt(dt_factor)), ("output", cfg.output), ("steps", result.steps),
        ("dt", _fmt(result.dt)),
    ]
    with open(meta_path, "w", newline="") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in meta)
    written.append(meta_path)

    for path in written:
        print(path)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from .harness import regime_comparison

    periods = 40.0 if args.paper_scale else 20.0
    t_end = args.t_end
    if t_end is None:
        t_end = 1.0 if args.paper_scale else 0.02
    report = regime_comparison(
        eps_values=tuple(args.eps),
        out_dir=args.out,
        t_end=t_end,
        ref_cells=args.ref_cells,
        periods_per_oscillation=periods,
    )
    for rec in report.records:
        print(
            f"eps={rec.epsilon:g}: ref N={rec.n_ref}, max errors "
            f"emm={rec.errors['u_emm'][0]:.3e} hmm={rec.errors['u_hmm'][0]:.3e}, relative "
            f"emm={rec.relative_errors['u_emm']:.3e} hmm={rec.relative_errors['u_hmm']:.3e} "
            f"-> {rec.csv_path}"
        )
    if report.summary_path is not None:
        print(report.summary_path)
    return 0


def _cmd_ap_study(args: argparse.Namespace) -> int:
    from .harness import ap_degeneracy_study

    # the study makes the output's directory once it has accepted the step count
    rows = ap_degeneracy_study(n_steps=args.steps, out_path=args.out)
    for eps, deviation in rows:
        print(f"eps={eps:g}  deviation={deviation:.6e}")
    print(Path(args.out))
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    from .harness import convergence_study

    report = convergence_study(args.scheme, levels=args.levels)
    label = "dx" if report.scheme == "ref" else "dt"
    for resolution, err in zip(report.resolutions, report.errors):
        print(f"{label}={resolution:.6e}  error={err:.6e}")
    print(f"order = {report.order:.4f}")
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    coeff = coefficient_from_name(args.coeff)
    ymesh = _from_option("--ny", make_cell_mesh, args.ny)
    a0 = homogenized_coefficient(coeff, 0.5, ymesh)
    chi = solve_cell_problem(coeff, 0.5, ymesh)
    print(f"a0 = {_fmt(a0)}")
    out = _prepare_parent(args.out)
    rows = ([_fmt(yj), _fmt(cj)] for yj, cj in zip(ymesh.nodes, chi))
    _write_rows(out, ["y", "chi"], rows)
    print(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmm",
        description="Multiscale diffusion solvers: fine reference, "
        "homogenized, and micro-macro splitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured problem")
    p_run.add_argument("--config", required=True, help="key = value text file")
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser(
        "figure1", help="three-regime comparison against the fine reference"
    )
    p_fig.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_fig.add_argument("--out", default="figure1")
    p_fig.add_argument("--eps", type=float, nargs="+", default=[1.0, 0.1, 0.01])
    p_fig.add_argument("--ref-cells", dest="ref_cells", type=int, default=None)
    p_fig.add_argument(
        "--paper-scale",
        dest="paper_scale",
        action="store_true",
        help="full horizon T=1 and 40 reference cells per oscillation",
    )
    p_fig.set_defaults(func=_cmd_figure1)

    p_ap = sub.add_parser(
        "ap-study", help="deviation from the effective Euler scheme as eps -> 0"
    )
    p_ap.add_argument("--steps", type=int, default=100)
    p_ap.add_argument("--out", default="ap_study.csv")
    p_ap.set_defaults(func=_cmd_ap_study)

    p_conv = sub.add_parser("converge", help="observed-order refinement study")
    p_conv.add_argument("--scheme", required=True, choices=("ref", "emm"))
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.set_defaults(func=_cmd_converge)

    p_cell = sub.add_parser(
        "cell", help="effective coefficient and corrector profile"
    )
    p_cell.add_argument("--ny", type=int, default=256)
    p_cell.add_argument("--coeff", default="paper")
    p_cell.add_argument("--out", default="cell_chi.csv")
    p_cell.set_defaults(func=_cmd_cell)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, EllipticityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
