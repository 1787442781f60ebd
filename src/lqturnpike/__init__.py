"""Numerical toolkit for finite-horizon affine LQR problems on standard and
descriptor (DAE) plants: Riccati solvers, the closed forms of
``StructuredDelta`` (P(t) - P+, the fundamental solution and the transition
maps), turnpike diagnostics, and a direct-transcription verification oracle.

A standard plant (``LtiPlant``) is the descriptor plant with E = I, so one
set of solvers serves both kinds; ``solve_gare``'s Abar is the closed loop
At - Rt P1 of the reduced Riccati equation and Bbar its input matrix G.  The
former names ``stabilizing_solution``, ``dae_optimal_trajectory`` and
``dae_steady_state`` (outside ``__all__``) and ``GareSolution.lam`` stay for
the benchmark.  ``__all__`` holds the plants, solvers, results, turnpike
diagnostics and oracle; helpers that only the package calls (``rank_svd``,
``spectral_abscissa``, the ``plants.check_*`` tests, ``reduced_coefficients``)
import from their modules.  ``expm``, ``solve_lyapunov`` and
``solve_fast_block`` stay in it because the benchmark's tracer wraps only its
names, and ``gramians`` and ``check_convergence_condition`` because the
benchmark's workloads call them.

The numerical policy is fixed (``linalg.RESIDUAL_TOL``, ``linalg.PSD_SLACK``,
``linalg.rank_cut``, ``linalg.EIG_RANK_CUT`` and the fixed shifts of the
regularity probe), so no function takes a tolerance or a seed.
"""

from .errors import (AssumptionViolation, DimensionError, NumericalError,
                     SingularBracketError, ToolkitError)
from .linalg import expm, solve_lyapunov
from .plants import (DescriptorPlant, LtiPlant, SemiExplicitPartition,
                     StructuralReport, structural_report)
from .dae_riccati import (GareSolution, GramianSet, StructuredDelta,
                          check_convergence_condition, gramians,
                          solve_fast_block, solve_gare, structured_delta)
from .riccati import stabilizing_solution
from .lqr import (FeedforwardTrajectory, OptimalTrajectory, StateDecomposition,
                  SteadyState, TurnpikeReport, decompose_state, feedforward,
                  optimal_trajectory, solve_gdre, steady_state,
                  turnpike_report)
from .dae_lqr import dae_optimal_trajectory, dae_steady_state
from .oracle import DiscretizedLQ, OracleSolution, transcribe_and_solve

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "DescriptorPlant", "DimensionError",
    "DiscretizedLQ", "FeedforwardTrajectory", "GareSolution", "GramianSet",
    "LtiPlant", "NumericalError", "OptimalTrajectory", "OracleSolution",
    "SemiExplicitPartition", "SingularBracketError", "StateDecomposition",
    "SteadyState", "StructuralReport", "StructuredDelta", "ToolkitError",
    "TurnpikeReport",
    "check_convergence_condition", "decompose_state", "expm", "feedforward",
    "gramians", "optimal_trajectory", "solve_fast_block", "solve_gare",
    "solve_gdre", "solve_lyapunov", "steady_state", "structural_report",
    "structured_delta", "transcribe_and_solve", "turnpike_report",
]
