"""Numerical toolkit for finite-horizon affine LQR problems on standard and
descriptor (DAE) plants: Riccati solvers, closed-form transition maps,
turnpike diagnostics, and a direct-transcription verification oracle.
"""

from .errors import (AssumptionViolation, DimensionError, NumericalError,
                     SingularBracketError, ToolkitError)
from .linalg import (Tolerances, expm, min_eig_sym, rank_svd,
                     solve_are_stabilizing, solve_lyapunov, spectral_abscissa)
from .integrate import integrate_ode
from .plants import (DescriptorPlant, LtiPlant, SemiExplicitPartition,
                     StructuralReport, check_F_compatible,
                     check_finite_dynamics_stable, check_impulse_controllable,
                     check_impulse_free, check_pencil_regular,
                     structural_report, wrap_standard)
from .riccati import (AreSolution, DreSolution, GramianSet, SlidingTerminal,
                      check_convergence_condition, delta_formula,
                      fundamental_solution_U, gramians, sliding_terminal,
                      solve_dre, stabilizing_solution, transition_backward,
                      transition_forward)
from .lqr import (FeedforwardTrajectory, OptimalTrajectory, StateDecomposition,
                  SteadyState, TurnpikeReport, decompose_state, feedforward,
                  optimal_trajectory, steady_state, turnpike_report)
from .dae_riccati import (GareSolution, GdreSolution, StructuredDelta,
                          decoupled_closed_loop, reduced_coefficients,
                          solve_fast_block, solve_gare, solve_gdre,
                          structured_delta)
from .dae_lqr import DaeSteady, dae_optimal_trajectory, dae_steady_state
from .oracle import DiscretizedLQ, OracleSolution, transcribe_and_solve

__version__ = "0.1.0"

__all__ = [
    "AreSolution", "AssumptionViolation", "DaeSteady", "DescriptorPlant",
    "DimensionError", "DiscretizedLQ", "DreSolution",
    "FeedforwardTrajectory", "GareSolution", "GdreSolution", "GramianSet",
    "LtiPlant", "NumericalError", "OptimalTrajectory", "OracleSolution",
    "SemiExplicitPartition", "SingularBracketError", "SlidingTerminal",
    "StateDecomposition", "SteadyState", "StructuralReport", "StructuredDelta",
    "Tolerances", "ToolkitError", "TurnpikeReport",
    "check_convergence_condition", "check_F_compatible",
    "check_finite_dynamics_stable", "check_impulse_controllable",
    "check_impulse_free", "check_pencil_regular", "dae_optimal_trajectory",
    "dae_steady_state", "decompose_state", "decoupled_closed_loop",
    "delta_formula", "expm",
    "feedforward", "fundamental_solution_U", "gramians", "integrate_ode",
    "min_eig_sym", "optimal_trajectory", "rank_svd", "reduced_coefficients",
    "sliding_terminal", "solve_are_stabilizing", "solve_dre",
    "solve_fast_block", "solve_gare", "solve_gdre", "solve_lyapunov",
    "spectral_abscissa", "stabilizing_solution", "steady_state",
    "structural_report", "structured_delta", "transcribe_and_solve",
    "transition_backward", "transition_forward", "turnpike_report",
    "wrap_standard",
]
