"""Numerical toolkit for finite-horizon affine LQR problems on standard and
descriptor (DAE) plants: Riccati solvers, the closed forms of
``StructuredDelta`` (P(t) - P+, the fundamental solution and the transition
maps), turnpike diagnostics, and a direct-transcription verification oracle.

A standard plant (``LtiPlant``) is the descriptor plant with E = I, so one
set of solvers serves both kinds.  The former names ``stabilizing_solution``,
``solve_dre``, ``dae_optimal_trajectory`` and ``dae_steady_state`` stay
importable, outside ``__all__``.

The numerical policy is fixed (``linalg.RESIDUAL_TOL``, ``linalg.PSD_SLACK``,
``linalg.rank_cut``, ``linalg.EIG_RANK_CUT`` and the fixed shifts of the
regularity probe), so no function takes a tolerance or a seed.
"""

from .errors import (AssumptionViolation, DimensionError, NumericalError,
                     SingularBracketError, ToolkitError)
from .linalg import (expm, min_eig_sym, rank_svd, solve_are_stabilizing,
                     solve_lyapunov, spectral_abscissa)
from .plants import (DescriptorPlant, LtiPlant, SemiExplicitPartition,
                     StructuralReport, check_F_compatible,
                     check_impulse_controllable, check_impulse_free,
                     check_pencil_regular, structural_report)
from .dae_riccati import (GareSolution, GdreSolution, GramianSet,
                          StructuredDelta, check_convergence_condition,
                          gramians, reduced_coefficients, solve_fast_block,
                          solve_gare, solve_gdre, structured_delta)
from .riccati import solve_dre, stabilizing_solution
from .lqr import (FeedforwardTrajectory, OptimalTrajectory, StateDecomposition,
                  SteadyState, TurnpikeReport, decompose_state, feedforward,
                  optimal_trajectory, steady_state, turnpike_report)
from .dae_lqr import dae_optimal_trajectory, dae_steady_state
from .oracle import DiscretizedLQ, OracleSolution, transcribe_and_solve

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "DescriptorPlant", "DimensionError",
    "DiscretizedLQ", "FeedforwardTrajectory", "GareSolution", "GdreSolution",
    "GramianSet", "LtiPlant", "NumericalError", "OptimalTrajectory",
    "OracleSolution", "SemiExplicitPartition", "SingularBracketError",
    "StateDecomposition", "SteadyState", "StructuralReport", "StructuredDelta",
    "ToolkitError", "TurnpikeReport",
    "check_convergence_condition", "check_F_compatible",
    "check_impulse_controllable", "check_impulse_free",
    "check_pencil_regular", "decompose_state",
    "expm", "feedforward", "gramians", "min_eig_sym", "optimal_trajectory",
    "rank_svd", "reduced_coefficients",
    "solve_are_stabilizing", "solve_fast_block", "solve_gare", "solve_gdre",
    "solve_lyapunov", "spectral_abscissa", "steady_state",
    "structural_report", "structured_delta", "transcribe_and_solve",
    "turnpike_report",
]
