"""Asymptotic-preserving micro-macro solver for oscillatory diffusion.

The package integrates the 1D parabolic problem

    du/dt = d/dx ( a(x, x/eps) du/dx ) + f,   u = 0 on the walls,

whose coefficient oscillates on the fast scale eps, three ways: a brute-force
fine-grid reference, the homogenized equation with its first-order corrector,
and a two-scale micro-macro splitting that is uniformly stable in eps and
degenerates to the effective equation as eps -> 0.
"""

from .harness import (
    ConvergenceReport,
    RegimeRecord,
    RunReport,
    ap_degeneracy_study,
    convergence_study,
    error_norms,
    reference_cells,
    regime_comparison,
)
from .homogenization import (
    HomogenizedData,
    build_homogenized,
    first_order_corrector,
    homogenized_coefficient,
    solve_cell_problem,
)
from .mesh import CellMesh, SpatialMesh, make_cell_mesh, make_spatial_mesh
from .operators import GridOperators, remove_y_average, y_average
from .problem import (
    BC_MODES,
    SCHEMES,
    ConfigError,
    DiffusionField,
    EllipticityError,
    ProblemSpec,
    RunConfig,
    benchmark_coefficient,
    benchmark_problem,
    constant_coefficient,
    parse_config,
    sample_coefficient,
)
from .reconstruct import (
    derivative_on_fine,
    reconstruct_homogenized,
    reconstruct_micro_macro,
    trig_interpolate,
)
from .solvers import (
    MacroResult,
    MicroMacroResult,
    MicroMacroSolver,
    StabilityError,
    run_homogenized,
    run_micro_macro,
    run_reference,
)

__version__ = "0.1.0"

__all__ = [
    "BC_MODES",
    "CellMesh",
    "ConfigError",
    "ConvergenceReport",
    "DiffusionField",
    "EllipticityError",
    "GridOperators",
    "HomogenizedData",
    "MacroResult",
    "MicroMacroResult",
    "MicroMacroSolver",
    "ProblemSpec",
    "RegimeRecord",
    "RunConfig",
    "RunReport",
    "SCHEMES",
    "SpatialMesh",
    "StabilityError",
    "ap_degeneracy_study",
    "benchmark_coefficient",
    "benchmark_problem",
    "build_homogenized",
    "constant_coefficient",
    "convergence_study",
    "derivative_on_fine",
    "error_norms",
    "first_order_corrector",
    "homogenized_coefficient",
    "make_cell_mesh",
    "make_spatial_mesh",
    "parse_config",
    "reconstruct_homogenized",
    "reconstruct_micro_macro",
    "reference_cells",
    "regime_comparison",
    "remove_y_average",
    "run_homogenized",
    "run_micro_macro",
    "run_reference",
    "sample_coefficient",
    "solve_cell_problem",
    "trig_interpolate",
    "y_average",
    "__version__",
]
