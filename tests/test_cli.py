"""End-to-end command-line tests: ``apmm.cli.main`` in this process, in temp
working dirs, and the ``python -m apmm.cli`` entry point once as a subprocess."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apmm import cli, harness
from apmm.cli import main
from apmm.homogenization import first_order_corrector
from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.operators import GridOperators
from apmm.problem import benchmark_coefficient, parse_config, sample_coefficient
from apmm.solvers import MicroMacroSolver


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def _run(monkeypatch, capsys):
    """Run the CLI in this process from ``cwd``; argparse's exits become exit codes."""

    def run(args, cwd):
        monkeypatch.chdir(cwd)
        capsys.readouterr()  # only this command's output
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


def _run_subprocess(args, cwd):
    # the subprocess runs in a temporary directory, so a relative
    # PYTHONPATH=src would not find the package
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "apmm.cli", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )


def _write_config(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def test_run_micro_macro_outputs(tmp_path, _run):
    cfg = _write_config(
        tmp_path / "run.cfg",
        epsilon=1.0,
        nx=16,
        ny=8,
        t_end=0.001,
        scheme="emm",
        output="out/run1",
    )
    proc = _run(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    f_csv = tmp_path / "out" / "run1_F.csv"
    g_csv = tmp_path / "out" / "run1_G.csv"
    meta = tmp_path / "out" / "run1_meta.txt"
    assert f_csv.exists() and g_csv.exists() and meta.exists()
    assert str(f_csv.relative_to(tmp_path)) in proc.stdout.replace("\\", "/")

    f_lines = f_csv.read_text().splitlines()
    assert f_lines[0] == "x,F"
    assert len(f_lines) == 17
    g_lines = g_csv.read_text().splitlines()
    assert g_lines[0] == "x,y,G"
    assert len(g_lines) == 1 + 16 * 8
    meta_text = meta.read_text()
    assert "scheme = emm" in meta_text
    assert "dt_factor = 0.2" in meta_text


def test_run_output_naming_a_directory(tmp_path, _run):
    # an output ending in "/" names a directory: the run makes it for its files
    keys = dict(epsilon=0.1, nx=16, ny=8, t_end=0.001, scheme="emm", output="res/")
    proc = _run(["run", "--config", str(_write_config(tmp_path / "run.cfg", **keys))], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "res").iterdir()) == [
        "_F.csv", "_G.csv", "_meta.txt"
    ]


def test_run_micro_macro_where_eps_squared_underflows(tmp_path, _run):
    # eps**2 is 0.0 in floating point: the fast solve is the singular cell
    # solve, and G keeps its O(eps) corrector shape
    keys = dict(nx=16, ny=8, t_end=0.001, scheme="emm", output="tiny")
    cfg = _write_config(tmp_path / "run.cfg", epsilon=1e-160, **keys)
    proc = _run(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    micro = np.loadtxt(tmp_path / "tiny_G.csv", delimiter=",", skiprows=1)[:, 2]
    scaled = micro.reshape(16, 8) / 1e-160
    assert np.max(np.abs(scaled)) > 0.0
    # the eps = 1e-11 run of the same config sits O(eps) from the limit:
    # measured 3.4e-11
    near = parse_config(_write_config(tmp_path / "near.cfg", epsilon=1e-11, **keys))
    base = MicroMacroSolver(near.problem(), 16, 8).run().final_micro / 1e-11
    assert np.max(np.abs(scaled - base)) <= 1e-10 * np.max(np.abs(base))


def test_run_reference_emits_no_oscillatory_file(tmp_path, _run):
    cfg = _write_config(
        tmp_path / "run.cfg",
        epsilon=1.0,
        nx=64,
        t_end=0.001,
        scheme="ref",
        output="ref_run",
    )
    proc = _run(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ref_run_F.csv").exists()
    assert not (tmp_path / "ref_run_G.csv").exists()
    assert "dt_factor = 0.05" in (tmp_path / "ref_run_meta.txt").read_text()


def test_run_homogenized_writes_scaled_corrector(tmp_path, _run):
    cfg = _write_config(
        tmp_path / "run.cfg",
        epsilon=0.1,
        nx=32,
        ny=16,
        t_end=0.001,
        scheme="hmm",
        output="hom",
    )
    proc = _run(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr

    f_data = np.genfromtxt(tmp_path / "hom_F.csv", delimiter=",", names=True)
    g_data = np.genfromtxt(tmp_path / "hom_G.csv", delimiter=",", names=True)
    macro = f_data["F"]
    micro = g_data["G"].reshape(32, 16)
    hom = sample_coefficient(
        benchmark_coefficient(), make_spatial_mesh(32), make_cell_mesh(16)
    )
    expected = 0.1 * first_order_corrector(hom, macro)
    assert np.max(np.abs(micro - expected)) <= 1e-12
    assert np.max(np.abs(g_data["y"].reshape(32, 16)[0] - hom.ymesh.nodes)) == 0.0


@pytest.mark.filterwarnings("ignore:n_cells=.* under-resolves")  # the ref runs at eps = 0.1
def test_run_rejects_bad_configs(tmp_path, _run):
    bad = _write_config(tmp_path / "bad.cfg", epsilon=0.1, fluxcap=3)
    assert _run(["run", "--config", str(bad)], cwd=tmp_path).returncode == 2

    dup = tmp_path / "dup.cfg"
    dup.write_text("epsilon = 0.1\nepsilon = 0.2\n")
    assert _run(["run", "--config", str(dup)], cwd=tmp_path).returncode == 2

    unstable = _write_config(tmp_path / "u.cfg", epsilon=0.1, dt_factor=0.9)
    proc = _run(["run", "--config", str(unstable)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "dt_factor" in proc.stderr

    # positive, but 1/a overflows: the hmm run's cell data would be all NaN
    tiny = _write_config(
        tmp_path / "tiny.cfg", epsilon=0.1, scheme="hmm", coeff="constant:1e-320", output="out/hom"
    )
    proc = _run(["run", "--config", str(tiny)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "1/a_min" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()

    proc = _run(["run", "--config", str(tmp_path / "missing.cfg")], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr

    for key, value in (("nx", 3), ("ny", 5)):
        mesh = _write_config(tmp_path / f"{key}.cfg", **{key: value})
        proc = _run(["run", "--config", str(mesh)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    # every rejection comes before the output directory is made, also where
    # only the solver sees it: dt_factor, the emm step cap, an explicit run's
    # step count past the floats (OverflowError, a traceback and exit 1) and a
    # step that underflows to 0 (ZeroDivisionError, a traceback and exit 1)
    late = ({"dt_factor": "nan"}, {"dt_factor": 0.9}, {"scheme": "emm", "t_end": 1e300},
            {"scheme": "ref", "t_end": 1e308}, {"scheme": "hmm", "t_end": 1e308},
            *({"scheme": scheme, "dt_factor": 5e-324} for scheme in ("ref", "hmm", "emm")))
    for keys in late:
        path = _write_config(tmp_path / "late.cfg", epsilon=0.1, output="late/run", **keys)
        proc = _run(["run", "--config", str(path)], cwd=tmp_path)
        assert proc.returncode == 2, (keys, proc.stderr)
        assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "late").exists()
    # the explicit runs are not stepped, so no step cap applies: a count that is a float runs
    for scheme in ("ref", "hmm"):
        path = _write_config(tmp_path / "far.cfg", scheme=scheme, t_end=1e300, output="far")
        assert _run(["run", "--config", str(path)], cwd=tmp_path).returncode == 0

    # non-finite and subnormal values: a NaN passed the old <= tests, an
    # infinite t_end overflowed the step count, and t_end = 1e-320 overflowed
    # the emm fast-solve shift
    odd = (("t_end", "nan"), ("t_end", "inf"), ("t_end", 1e-320), ("dt_factor", "nan"))
    for scheme in ("emm", "ref", "hmm"):
        for key, value in odd:
            path = _write_config(tmp_path / "odd.cfg", scheme=scheme, output="odd", **{key: value})
            proc = _run(["run", "--config", str(path)], cwd=tmp_path)
            assert proc.returncode == 2, (scheme, key, value, proc.stderr)
            assert key in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("ignore:n_cells=.* under-resolves")
def test_run_emm_step_below_the_normal_range_exits_2(tmp_path, _run):
    # a subnormal dt overflowed the fast solve's shift: the emm run raised the step operators'
    # ValueError, a traceback and exit 1, where the same config as a ref run exits 0
    keys = dict(epsilon=0.1, nx=16, ny=8, t_end=1e-305, dt_factor=1e-306, output="out/run")
    ref = _write_config(tmp_path / "ref.cfg", scheme="ref", **keys)
    assert _run(["run", "--config", str(ref)], cwd=tmp_path).returncode == 0
    emm = _write_config(tmp_path / "emm.cfg", scheme="emm", **{**keys, "output": "emm/run"})
    proc = _run(["run", "--config", str(emm)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "a subnormal step" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "emm").exists()


@pytest.mark.parametrize("steps", ["0", str(2**24 + 1)])
def test_rejected_ap_study_makes_no_directory(tmp_path, steps, _run):
    # the output's directory was made before the study checked its step count
    proc = _run(["ap-study", "--steps", steps, "--out", "d/sub/ap.csv"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "n_steps" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["figure1", "--eps", "0.5", "2"],
        ["figure1", "--t-end", "-1"],
        ["figure1", "--t-end", "nan"],
        ["figure1", "--t-end", "inf"],
        ["figure1", "--eps", "1e-300"],  # a 1002-bit reference cell count
        ["figure1", "--eps", "1e-310"],  # 20/eps overflows; the count was never found
        ["figure1", "--ref-cells", "3"],
        ["figure1", "--ref-cells", "5"],  # a mesh, but too coarse for the derivative stencils
        ["figure1", "--eps", "0.1234561", "0.1234562"],  # one curve file for both, overwritten
        ["cell", "--ny", "5"],
        ["cell", "--coeff", "constant:nan"],
        ["cell", "--coeff", "constant:inf"],
        ["cell", "--coeff", "constant:1e-320"],  # positive, but 1/a overflows
    ],
    ids=[
        "figure1-eps",
        "figure1-t-end",
        "figure1-t-end-nan",
        "figure1-t-end-inf",
        "figure1-eps-1e-300",
        "figure1-eps-1e-310",
        "figure1-ref-cells",
        "figure1-ref-cells-5",
        "figure1-eps-colliding-curve-files",
        "cell-ny",
        "cell-coeff-nan",
        "cell-coeff-inf",
        "cell-coeff-reciprocal-overflow",
    ],
)
def test_out_of_range_arguments_exit_2(tmp_path, args, _run):
    proc = _run([*args, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()  # rejected before anything runs


@pytest.mark.parametrize("command", ["run", "figure1", "cell", "ap-study"])
def test_uncreatable_output_path_exits_2(tmp_path, command, _run):
    # a regular file where the output's directory should go
    (tmp_path / "afile").write_text("")
    config = _write_config(
        tmp_path / "r.cfg", epsilon=0.1, nx=8, ny=4, t_end=0.001, scheme="emm", output="afile/run"
    )
    args = {
        "run": ["run", "--config", str(config)],
        "figure1": ["figure1", "--eps", "0.5", "--ref-cells", "128", "--t-end", "0.002"],
        "cell": ["cell", "--ny", "16"],
        "ap-study": ["ap-study", "--steps", "5"],
    }[command]
    out = [] if command == "run" else ["--out", "afile/out"]
    proc = _run([*args, *out], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert (tmp_path / "afile").read_text() == ""


def test_converge_command(tmp_path, _run):
    proc = _run(["converge", "--scheme", "ref", "--levels", "3"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    order_line = [l for l in proc.stdout.splitlines() if l.startswith("order =")]
    assert len(order_line) == 1
    assert 1.8 <= float(order_line[0].split("=")[1]) <= 2.2

    assert _run(["converge", "--scheme", "hmm"], cwd=tmp_path).returncode == 2
    assert _run(["converge", "--scheme", "ref", "--levels", "2"], cwd=tmp_path).returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ["converge", "--scheme", "ref", "--levels", "17"],  # 2**21 reference cells
        ["converge", "--scheme", "emm", "--levels", "2000"],  # 2**2002 did not fit a float
        ["converge", "--scheme", "emm", "--levels", "14"],  # a reference run past 2**24 steps
        ["ap-study", "--steps", str(2**24 + 1)],  # any count was stepped
        # grids past 2**20 points an axis
        ["cell", "--ny", str(10**12)],  # numpy's MemoryError, with a traceback and exit 1
        ["cell", "--ny", str(2**62)],  # numpy's "array is too big" ValueError, likewise
        ["figure1", "--ref-cells", str(2**21)],  # a 2**21-cell reference ran
        # past the emm step cap: the references ran and the directory was made before the cap
        # check, and at 1e308 the first reference's step count overflowed
        ["figure1", "--t-end", "1000"],
        ["figure1", "--t-end", "1e308"],
        ["run", "nx", str(10**12)],  # a config at that size: numpy's MemoryError
        ["run", "ny", str(10**12)],
    ],
    ids=["converge-ref-levels", "converge-emm-levels", "converge-emm-levels-14", "ap-study-steps",
         "cell-ny-1e12", "cell-ny-2**62", "figure1-ref-cells-2**21", "figure1-t-end-1000",
         "figure1-t-end-1e308", "run-nx-1e12", "run-ny-1e12"],
)
def test_work_past_a_cap_exits_2_before_any_run(
    tmp_path, tmp_path_factory, args, _run, monkeypatch
):
    def started(*_args, **_kwargs):
        raise AssertionError("the run started")

    for owner, name in (
        (harness, "run_reference"),
        (MicroMacroSolver, "run"),
        (MicroMacroSolver, "step"),
        (cli, "sample_coefficient"),
    ):
        monkeypatch.setattr(owner, name, started)
    if args[0] == "run":  # the config outside the working directory, which stays empty
        config = tmp_path_factory.mktemp("config") / "big.cfg"
        args = ["run", "--config", str(_write_config(config, **{args[1]: args[2]}))]
    proc = _run(args, cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_memory_error_exits_2(tmp_path, _run, monkeypatch):
    def exhausted(*_args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "sample_coefficient", exhausted)
    proc = _run(["cell", "--out", "chi.csv"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_cell_command(tmp_path):
    # the module entry point, as a user starts it
    proc = _run_subprocess(["cell", "--out", "chi.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    a0_lines = [l for l in proc.stdout.splitlines() if l.startswith("a0 = ")]
    assert len(a0_lines) == 1
    assert abs(float(a0_lines[0].split("=")[1]) - math.sqrt(0.21)) <= 1e-10
    lines = (tmp_path / "chi.csv").read_text().splitlines()
    assert lines[0] == "y,chi"
    assert len(lines) == 257  # default 256 nodes
    # the corrector agrees with the independent route, the fast periodic solve at s = 0
    chi = np.loadtxt(tmp_path / "chi.csv", delimiter=",", skiprows=1)[:, 1]
    meshes = make_spatial_mesh(4), make_cell_mesh(256)
    ops = GridOperators(sample_coefficient(benchmark_coefficient(), *meshes))
    ay = ops.tables.y_interfaces
    rhs = -(ay - np.roll(ay, 1, axis=1)) / ops.dy
    elliptic = -ops._factor(0.0)(rhs.copy())()[0]  # the solve takes C-ordered rows
    assert np.max(np.abs(chi - elliptic)) <= 1e-12 * np.max(np.abs(elliptic))

    proc = _run_subprocess(
        ["cell", "--coeff", "constant:2.0", "--ny", "16", "--out", "flat.csv"], cwd=tmp_path
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.splitlines()[0].split("=")[1]) - 2.0) <= 1e-14
    flat = np.loadtxt(tmp_path / "flat.csv", delimiter=",", skiprows=1)
    assert flat.shape == (16, 2) and np.all(flat[:, 1] == 0.0)


def test_cell_help_and_argument_errors_load_no_solver(tmp_path):
    # only the commands that run solvers import them: `cell`, `--help` and the exit-2 argument
    # errors start without the harness, the solvers and scipy (scipy.linalg's import alone took
    # 0.26 s of the CLI's 0.43 s)
    script = (
        "import sys\n"
        "from apmm import cli\n"
        "codes = [cli.main(['cell', '--ny', '16', '--out', 'chi.csv'])]\n"
        "codes.append(cli.main(['cell', '--ny', '5']))\n"
        "for argv in (['--help'], ['run'], ['converge', '--scheme', 'hmm']):\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "loaded = ('scipy', 'scipy.linalg', 'apmm.solvers', 'apmm.harness')\n"
        "print(codes, [m for m in loaded if m in sys.modules])\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 2, 0, 2, 2] []"
    assert (tmp_path / "chi.csv").read_text().startswith("y,chi\n")


def test_figure1_command(tmp_path, _run):
    proc = _run(
        [
            "figure1",
            "--eps", "0.5",
            "--ref-cells", "128",
            "--t-end", "0.002",
            "--out", "fig",
        ],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig" / "regime_eps_0.5.csv").exists()
    assert (tmp_path / "fig" / "summary.csv").exists()
    assert "eps=0.5" in proc.stdout
    assert "relative emm=" in proc.stdout
    # the regime's line carries the three schemes' seconds, which no CSV holds
    (line,) = [line for line in proc.stdout.splitlines() if line.startswith("eps=")]
    times = re.search(r", seconds ref=(\S+) emm=(\S+) hmm=(\S+) -> ", line)
    assert times and all(float(t) >= 0.0 for t in times.groups()), line


def test_ap_study_command(tmp_path, _run):
    proc = _run(["ap-study", "--steps", "5", "--out", "ap.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "ap.csv").read_text().splitlines()
    assert lines[0] == "eps,deviation"
    assert len(lines) == 6  # five regimes
    devs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a > b for a, b in zip(devs, devs[1:]))
