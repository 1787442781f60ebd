"""The former name ``stabilizing_solution`` of ``dae_riccati.solve_gare``,
kept as an alias because the benchmark's workloads call it and its tracer
names this module as a layer.  The Riccati solvers of both plant kinds and
the paper's closed forms (methods of ``dae_riccati.StructuredDelta``) live
in ``dae_riccati``.
"""

from .dae_riccati import solve_gare

stabilizing_solution = solve_gare
