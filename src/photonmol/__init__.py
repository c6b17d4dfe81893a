"""photonmol: photon statistics of two coupled, coherently driven cavity
modes with weak Kerr nonlinearity.

The package computes exact equal-time second-order correlations from the
steady state of the dissipative dynamics in a truncated Fock space, the
weak-drive amplitude approximations, the analytic and numeric optimal
operating points for antibunching and bunching, and sweep/figure datasets.
"""

from ._version import __version__
from .amplitude import (
    AmplitudeSet,
    full_truncated_steady,
    g2_approx,
    hierarchy_steady,
    mean_photon_approx,
    one_photon_amplitudes,
    two_photon_amplitudes,
)
from .errors import SolverError
from .fock import (
    HilbertSpec, TotalSpec, create, destroy, identity, mode_annihilators, mode_operator, tensor)
from .lindblad import (
    DEFAULT_N_MAX, Observables, evolve, observables, steady_state, validate_density_matrix)
from .model import (
    DriveRatios,
    SystemParams,
    drive_ratios,
    hamiltonian,
    liouvillian,
    symmetric_params,
    unvec,
    vec,
    wrap_phase,
)
from .optimal import (
    BunchingCondition,
    OptimalPoint,
    bunching_phase_curve,
    c10_zero_condition,
    dual_drive_optimum_asymptotic,
    dual_drive_optimum_exact_phi0,
    numeric_optimum,
    single_drive_optimum,
)
from .solvers import (
    SOLVER_FULL_TRUNCATED,
    SOLVER_HIERARCHY,
    SOLVER_MASTER_EQUATION,
    SOLVERS,
    evaluate_grid,
    evaluate_point,
)
from .sweep import Axis, ResultRow, SweepConfig, run_point, run_sweep, sweep_to_files
from .figures import FIGURE_NAMES, figure
from .cli import cli_main

__all__ = [
    "__version__",
    "AmplitudeSet", "Axis", "BunchingCondition", "DriveRatios",
    "FIGURE_NAMES", "HilbertSpec", "Observables", "OptimalPoint",
    "ResultRow", "SOLVERS", "SOLVER_FULL_TRUNCATED", "SOLVER_HIERARCHY",
    "SOLVER_MASTER_EQUATION", "DEFAULT_N_MAX", "SolverError", "SweepConfig",
    "SystemParams", "TotalSpec", "bunching_phase_curve", "c10_zero_condition",
    "cli_main",
    "create", "destroy", "drive_ratios", "dual_drive_optimum_asymptotic",
    "dual_drive_optimum_exact_phi0", "evaluate_grid", "evaluate_point",
    "evolve", "figure",
    "full_truncated_steady", "g2_approx", "hamiltonian", "hierarchy_steady",
    "identity", "liouvillian", "mean_photon_approx", "mode_annihilators",
    "mode_operator", "numeric_optimum", "observables",
    "one_photon_amplitudes", "run_point", "run_sweep", "single_drive_optimum",
    "steady_state", "sweep_to_files", "symmetric_params", "tensor",
    "two_photon_amplitudes", "unvec", "validate_density_matrix", "vec",
    "wrap_phase",
]
