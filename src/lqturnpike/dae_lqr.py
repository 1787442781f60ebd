"""Steady state of the descriptor turnpike.  Finite-horizon trajectories of
descriptor plants come from ``lqr.optimal_trajectory``, the pipeline both
plant kinds share; ``dae_optimal_trajectory`` is that same function.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import DEFAULT_TOL, as_vector
from .lqr import optimal_trajectory

dae_optimal_trajectory = optimal_trajectory


@dataclass(frozen=True)
class DaeSteady:
    """Turnpike steady pair for the descriptor problem, with the constant
    feedforward parts it is built from."""

    x_s: np.ndarray
    u_s: np.ndarray
    x_s1: np.ndarray
    w_s1: np.ndarray   # Abar^{-*} Cbar* y_c
    w_s2: np.ndarray   # A+2^{-*} C2* y_c
    residual: float


def _steady_parts(gare, y_c):
    """Constant feedforward parts (w_s1, w_s2) for target y_c."""
    g = gare
    w_s1 = np.linalg.solve(g.A_bar.T, g.C_bar.T @ y_c)
    w_s2 = np.linalg.solve(g.A_p2.T, g.partition.C2.T @ y_c)
    return w_s1, w_s2


def dae_steady_state(gare, y_c, tol=DEFAULT_TOL):
    """Steady pair of the descriptor turnpike:
    x_s1 = Abar^{-1} Bbar (Bbar* w_s1 + B2* w_s2),
    x_s2 from the algebraic block, u_s = -B* P+ x_s - Bbar* w_s1 - B2* w_s2."""
    y_c = as_vector(y_c, "y_c")
    g = gare
    part = g.partition
    w_s1, w_s2 = _steady_parts(g, y_c)
    drive = g.B_bar.T @ w_s1 + part.B2.T @ w_s2
    x_s1 = np.linalg.solve(g.A_bar, g.B_bar @ drive)
    x_s2 = (-np.linalg.solve(g.A_p2, g.A_p21 @ x_s1)
            + np.linalg.solve(g.A_p2, part.B2 @ drive))
    x_s = np.concatenate([x_s1, x_s2])
    u_s = -(g.plant.B.T @ (g.P_plus @ x_s)) - drive

    resid = float(np.linalg.norm(g.plant.A @ x_s + g.plant.B @ u_s))
    scale = 1.0 + float(np.linalg.norm(x_s)) + float(np.linalg.norm(y_c))
    if resid > 1e-10 * scale:
        raise NumericalError(
            f"descriptor steady residual {resid:.3e} exceeds 1e-10 x scale")
    return DaeSteady(x_s=x_s, u_s=u_s, x_s1=x_s1, w_s1=w_s1, w_s2=w_s2,
                     residual=resid)
