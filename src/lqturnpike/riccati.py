"""Former names of the Riccati solvers of both plant kinds, kept as aliases:
``stabilizing_solution`` is ``dae_riccati.solve_gare``, ``solve_dre`` is
``dae_riccati.solve_gdre`` and ``dre_fd_residual`` is
``dae_riccati.gdre_fd_residual``.  The paper's closed forms are methods of
``dae_riccati.StructuredDelta``.
"""

from .dae_riccati import gdre_fd_residual, solve_gare, solve_gdre

stabilizing_solution = solve_gare
solve_dre = solve_gdre
dre_fd_residual = gdre_fd_residual
