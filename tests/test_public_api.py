import importlib

import pytest

import lqturnpike as lt

PUBLIC = [
    "AssumptionViolation", "DescriptorPlant", "DimensionError",
    "DiscretizedLQ", "FeedforwardTrajectory", "GareSolution", "GramianSet",
    "LtiPlant", "NumericalError", "OptimalTrajectory", "OracleSolution",
    "SemiExplicitPartition", "SingularBracketError", "StateDecomposition",
    "SteadyState", "StructuralReport", "StructuredDelta", "ToolkitError",
    "TurnpikeReport", "check_convergence_condition", "decompose_state",
    "expm", "feedforward", "gramians", "optimal_trajectory",
    "solve_fast_block", "solve_gare", "solve_gdre", "solve_lyapunov",
    "steady_state", "structural_report", "structured_delta",
    "transcribe_and_solve", "turnpike_report",
]

# helpers that the package calls but does not export
MODULE_ONLY = [
    ("linalg", "rank_svd"), ("linalg", "spectral_abscissa"),
    ("dae_riccati", "reduced_coefficients"),
    ("plants", "check_F_compatible"), ("plants", "check_impulse_controllable"),
    ("plants", "check_impulse_free"), ("plants", "check_pencil_regular"),
]


def test_all_is_the_public_surface():
    assert sorted(lt.__all__) == sorted(PUBLIC)
    for name in lt.__all__:
        assert getattr(lt, name) is not None


@pytest.mark.parametrize("module, name", MODULE_ONLY)
def test_helpers_import_from_their_modules(module, name):
    assert name not in lt.__all__
    assert callable(getattr(importlib.import_module(f"lqturnpike.{module}"), name))


def test_test_only_code_is_not_in_the_package():
    # min_eig_sym and gdre_fd_residual live in conftest; the others are gone
    from lqturnpike import dae_riccati, linalg, plants
    for owner, name in ((linalg, "min_eig_sym"), (linalg, "solve_are_stabilizing"),
                        (dae_riccati, "gdre_fd_residual"), (plants.StructuralReport, "all_ok")):
        assert not hasattr(owner, name)
