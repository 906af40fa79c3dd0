import numpy as np
import pytest

from apmm.mesh import make_cell_mesh, make_spatial_mesh
from apmm.problem import (
    ConfigError,
    DiffusionField,
    EllipticityError,
    ProblemSpec,
    RunConfig,
    benchmark_coefficient,
    benchmark_problem,
    coefficient_from_name,
    constant_coefficient,
    parse_config,
    sample_coefficient,
)


def test_benchmark_coefficient_values():
    a = benchmark_coefficient()
    assert a(0.3, 0.0) == pytest.approx(1.1, abs=1e-14)
    assert a(0.0, 0.25) == pytest.approx(2.1, abs=1e-14)
    assert a(0.9, 0.75) == pytest.approx(0.1, abs=1e-14)
    # the minimum over a fine sweep sits at the declared lower bound
    y = np.linspace(0.0, 1.0, 4001)
    assert abs(a(0.5, y).min() - 0.1) <= 1e-4


def test_benchmark_coefficient_periodic():
    a = benchmark_coefficient()
    y = np.linspace(-1.3, 2.7, 57)
    assert np.max(np.abs(a(0.2, y) - a(0.2, y + 1.0))) <= 1e-13


def test_constant_coefficient():
    a = constant_coefficient(1.7)
    x = np.linspace(0, 1, 5)
    assert np.all(a(x, 0.3) == 1.7)
    with pytest.raises(ValueError):
        constant_coefficient(0.0)
    for bad in (-2.0, float("nan"), float("inf"), 1e-320):  # 1/1e-320 overflows
        with pytest.raises(ValueError):
            constant_coefficient(bad)


def test_diffusion_field_broadcasts():
    a = benchmark_coefficient()
    out = a(np.zeros((3, 1)), np.linspace(0, 1, 8))
    assert out.shape == (3, 8)


def test_diffusion_field_bound_validation():
    with pytest.raises(ValueError):
        DiffusionField(func=lambda x, y: 1.0 + 0 * x, a_min=2.0, a_max=1.0)
    with pytest.raises(ValueError):
        DiffusionField(func=lambda x, y: 1.0 + 0 * x, a_min=0.0, a_max=1.0)
    with pytest.raises(ValueError, match="finite 1/a_min"):
        DiffusionField(func=lambda x, y: 1.0 + 0 * x, a_min=1e-320, a_max=1.0)
    DiffusionField(func=lambda x, y: 1.0 + 0 * x, a_min=1e-300, a_max=1.0)  # 1/a_min is finite


def test_diffusion_field_rejects_infinite_a_max():
    # with a_max = inf the sampling slack 1e-12 * inf makes the lower bound inf - inf = nan, so
    # every sample would pass, and the explicit stability bound 1/(2*a_max) is 0
    for a_min in (1.0, np.inf):
        with pytest.raises(ValueError, match="a_max < inf"):
            DiffusionField(func=lambda x, y: 1.0 + 0 * x, a_min=a_min, a_max=np.inf)


def test_problem_spec_validation():
    g = lambda x: np.sin(2 * np.pi * x)
    a = benchmark_coefficient()
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            ProblemSpec(coefficient=a, epsilon=eps, initial=g)
    ProblemSpec(coefficient=a, epsilon=1.0, initial=g)  # boundary value legal
    with pytest.raises(ValueError):
        ProblemSpec(coefficient=a, epsilon=0.1, initial=g, t_end=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(coefficient=a, epsilon=0.1, initial=g, bc_mode="periodic")
    # initial data must vanish at the walls
    with pytest.raises(ValueError):
        ProblemSpec(coefficient=a, epsilon=0.1, initial=lambda x: np.cos(2 * np.pi * x))


@pytest.mark.parametrize("wall", [0.0, 1.0])
def test_problem_spec_rejects_nan_wall_data(wall):
    # NaN compares false against the wall tolerance, so it must fail the check itself
    a = benchmark_coefficient()

    def g(x):
        return np.where(np.asarray(x) == wall, np.nan, np.sin(np.pi * np.asarray(x)))

    with pytest.raises(ValueError, match="must vanish"):
        ProblemSpec(coefficient=a, epsilon=0.1, initial=g)


def test_benchmark_problem_fields():
    p = benchmark_problem(0.1, t_end=0.02)
    x = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.allclose(p.initial(x), np.sin(2 * np.pi * x), atol=1e-15)
    assert p.t_end == 0.02
    assert p.bc_mode == "dirichlet_corrector"


def test_sample_coefficient_tables():
    a = benchmark_coefficient()
    xm = make_spatial_mesh(8)
    # ny = 6 puts a half node at y = 0.25 where the coefficient peaks
    ym = make_cell_mesh(6)
    tables = sample_coefficient(a, xm, ym)
    assert tables.centers.shape == (8, 6)
    assert tables.x_interfaces.shape == (9, 6)
    assert tables.y_interfaces.shape == (8, 6)
    assert tables.centers[:, 0] == pytest.approx(1.1)
    assert tables.y_interfaces[0, 1] == pytest.approx(2.1, abs=1e-14)
    assert tables.x_uniform  # a is independent of x


def test_sample_coefficient_x_dependence_flag():
    a = DiffusionField(func=lambda x, y: 1.5 + x + 0 * y, a_min=1.4, a_max=2.6)
    tables = sample_coefficient(a, make_spatial_mesh(4), make_cell_mesh(4))
    assert not tables.x_uniform


def test_sample_coefficient_rejects_bound_violations():
    xm, ym = make_spatial_mesh(4), make_cell_mesh(4)
    dips = DiffusionField(func=lambda x, y: 0.05 + 0 * x + 0 * y, a_min=0.1, a_max=2.1)
    with pytest.raises(EllipticityError):
        sample_coefficient(dips, xm, ym)
    negative = DiffusionField(func=lambda x, y: -1.0 + 0 * x + 0 * y, a_min=0.1, a_max=2.1)
    with pytest.raises(EllipticityError):
        sample_coefficient(negative, xm, ym)
    blows = DiffusionField(func=lambda x, y: np.inf + 0 * x + 0 * y, a_min=0.1, a_max=2.1)
    with pytest.raises(EllipticityError):
        sample_coefficient(blows, xm, ym)


def test_sample_coefficient_rejects_aperiodic():
    drifts = DiffusionField(func=lambda x, y: 1.1 + 0.5 * y + 0 * x, a_min=1.0, a_max=1.7)
    with pytest.raises(ValueError, match="periodic"):
        sample_coefficient(drifts, make_spatial_mesh(4), make_cell_mesh(4))


def test_sample_coefficient_checks_periodicity_at_every_sampled_x():
    # aperiodic at the wall x = 0 only, which no cell centre sees: a(0, 0) = 1.1, a(0, 1) = 1.6
    a = DiffusionField(
        func=lambda x, y: 1.1 + np.sin(2.0 * np.pi * y) + 0.5 * (x == 0.0) * y,
        a_min=0.1,
        a_max=2.6,
    )
    with pytest.raises(ValueError, match="periodic in y on the 'x_interfaces' rows"):
        sample_coefficient(a, make_spatial_mesh(8), make_cell_mesh(8))


@pytest.mark.parametrize("scale", [100.0, 1e6])
def test_sample_coefficient_tolerances_scale_with_the_coefficient(scale):
    # the rounding of a(x, 1) - a(x, 0) scales with a: at 100x it is 2.8e-14, which an absolute
    # periodicity tolerance of 1e-14 rejected
    a = DiffusionField(
        func=lambda x, y: scale * (1.1 + np.sin(2.0 * np.pi * y)) + 0.0 * x,
        a_min=0.1 * scale,
        a_max=2.1 * scale,
    )
    assert sample_coefficient(a, make_spatial_mesh(8), make_cell_mesh(8)).x_uniform


def test_sample_coefficient_bound_slack_scales_with_the_coefficient():
    # a million times over its declared a_max, inside an absolute slack of 1e-12
    tiny = DiffusionField(func=lambda x, y: 1e-14 + 0.0 * x * y, a_min=1e-20, a_max=1e-20)
    with pytest.raises(EllipticityError, match="leaves declared bounds"):
        sample_coefficient(tiny, make_spatial_mesh(4), make_cell_mesh(4))


@pytest.mark.parametrize("low", [1e-30, 0.5e-20, 0.999e-20])
def test_sample_coefficient_rejects_samples_far_below_a_tiny_a_min(low):
    # a_min under 1e-12 * a_max put the whole slack 1e-12 * a_max below a_min, so any positive
    # sample passed: the cell data divided by values up to ten orders under the declared floor
    a = DiffusionField(func=lambda x, y: low + 0.0 * x * y, a_min=1e-20, a_max=1.0)
    with pytest.raises(EllipticityError, match="leaves declared bounds"):
        sample_coefficient(a, make_spatial_mesh(4), make_cell_mesh(4))
    # a_min itself, and a sample a rounding below it, still pass
    for value in (1e-20, 1e-20 * (1.0 - 1e-15)):
        fine = DiffusionField(func=lambda x, y: value + 0.0 * x * y, a_min=1e-20, a_max=1.0)
        assert sample_coefficient(fine, make_spatial_mesh(4), make_cell_mesh(4)).x_uniform


# the points of each sampled family on the 4x4 grid: cell centres or interfaces (walls
# included) in x, nodes or half-nodes in y; every coordinate is exact in binary
_FAMILIES = {
    "centers": lambda x, y: ((4.0 * x) % 1.0 == 0.5) & ((4.0 * y) % 1.0 == 0.0),
    "x_interfaces": lambda x, y: ((4.0 * x) % 1.0 == 0.0) & ((4.0 * y) % 1.0 == 0.0),
    "y_interfaces": lambda x, y: ((4.0 * x) % 1.0 == 0.5) & ((4.0 * y) % 1.0 == 0.5),
    "wall_half_nodes": lambda x, y: ((x == 0.0) | (x == 1.0)) & ((4.0 * y) % 1.0 == 0.5),
}


@pytest.mark.parametrize("table", list(_FAMILIES))
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "contains non-finite entries"),
        (np.inf, "contains non-finite entries"),
        (-1.0, "has non-positive entry"),
        (5.0, "leaves declared bounds"),
    ],
)
def test_sample_coefficient_rejects_a_defect_at_one_family_of_points(table, bad, message):
    at = _FAMILIES[table]
    a = DiffusionField(
        func=lambda x, y: np.where(at(x, y), bad, 1.1 + np.sin(2.0 * np.pi * y) + 0.0 * x),
        a_min=0.1,
        a_max=2.1,
    )
    with pytest.raises(EllipticityError, match=f"'{table}' {message}"):
        sample_coefficient(a, make_spatial_mesh(4), make_cell_mesh(4))


@pytest.mark.parametrize("table", ["centers", "x_interfaces"])
def test_sample_coefficient_rejects_aperiodicity_at_one_family_of_points(table):
    # every sampled x is a centre or an interface: the wall half-nodes sit at the walls
    at = _FAMILIES[table]
    a = DiffusionField(
        func=lambda x, y: 1.1 + np.sin(2.0 * np.pi * y) + 0.5 * at(x, 0.0) * y,
        a_min=0.1,
        a_max=2.6,
    )
    with pytest.raises(ValueError, match=f"periodic in y on the '{table}' rows"):
        sample_coefficient(a, make_spatial_mesh(4), make_cell_mesh(4))


def test_coefficient_from_name():
    assert coefficient_from_name("paper").a_max == 2.1
    assert coefficient_from_name("constant:2.5")(0.1, 0.9) == 2.5
    for bad in ("constant:-1", "constant:abc", "constant:nan", "constant:inf", "piecewise", ""):
        with pytest.raises(ConfigError):
            coefficient_from_name(bad)


def test_run_config_dt_factor_defaults():
    assert RunConfig(scheme="ref").resolved_dt_factor() == 0.05
    assert RunConfig(scheme="emm").resolved_dt_factor() == 0.2
    assert RunConfig(scheme="hmm").resolved_dt_factor() == 0.2
    assert RunConfig(scheme="ref", dt_factor=0.01).resolved_dt_factor() == 0.01


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_config_full(tmp_path):
    path = _write(
        tmp_path,
        """
        # comparison run
        epsilon = 0.01
        nx = 128
        ny = 32
        t_end = 0.5   # short horizon
        scheme = hmm
        coeff = constant:0.8
        bc = dirichlet_homogeneous
        dt_factor = 0.1
        output = out/job7
        """,
    )
    cfg = parse_config(path)
    assert cfg.epsilon == 0.01
    assert (cfg.nx, cfg.ny) == (128, 32)
    assert cfg.t_end == 0.5
    assert cfg.scheme == "hmm"
    assert cfg.coeff == "constant:0.8"
    assert cfg.bc == "dirichlet_homogeneous"
    assert cfg.resolved_dt_factor() == 0.1
    assert cfg.output == "out/job7"


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "epsilon = 0.5\n"))
    assert cfg.epsilon == 0.5
    assert (cfg.nx, cfg.ny) == (64, 16)
    assert cfg.scheme == "emm"
    assert cfg.coeff == "paper"
    assert cfg.output == "run"


@pytest.mark.parametrize(
    "text",
    [
        "nx = 64\nnsteps = 100\n",  # unknown key
        "nx = 64\nnx = 32\n",  # duplicate
        "epsilon 0.5\n",  # missing '='
        "epsilon = fast\n",  # unparseable float
        "nx = 12.5\n",  # unparseable int
        "scheme = implicit\n",  # bad enumeration
        "bc = neumann\n",
        "coeff = constant:zero\n",
        "epsilon = 0\n",  # fails the problem consistency check
        "epsilon = 4\n",
    ],
)
def test_parse_config_rejects(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, text))


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")
