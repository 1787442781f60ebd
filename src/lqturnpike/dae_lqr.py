"""Descriptor entry points kept under their former names: the trajectory
and the steady state of both plant kinds come from ``lqr``.
``dae_optimal_trajectory`` is ``lqr.optimal_trajectory``, and
``dae_steady_state(gare, y_c)`` is ``lqr.steady_state`` of the plant the
Riccati solution belongs to.
"""

from .lqr import optimal_trajectory, steady_state

dae_optimal_trajectory = optimal_trajectory


def dae_steady_state(gare, y_c):
    return steady_state(gare.plant, gare, y_c)
