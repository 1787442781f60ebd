"""The paper's closed forms for the standard state-space case, as a thin
layer on the algebraic layer of ``dae_riccati``, where a standard plant is
its d = n descriptor plant (so A+ = Abar and P+ = P1): the sliding terminal
condition, the closed form of P(t) - P+, and the fundamental solution of
the time-varying closed loop with its transition maps (Bender & Laub, IEEE
TAC 32(8), 1987).  ``stabilizing_solution``, ``solve_dre`` and
``dre_fd_residual`` are the solvers of both plant kinds.
"""

import numpy as np

from .dae_riccati import (StructuredDelta, gdre_fd_residual, solve_gare,
                          solve_gdre)
from .linalg import DEFAULT_TOL, as_matrix, expm, sym

stabilizing_solution = solve_gare
solve_dre = solve_gdre
dre_fd_residual = gdre_fd_residual


def sliding_terminal(S, are, gram, tol=DEFAULT_TOL):
    """Sliding terminal condition S~(tau) = (S - P+)[I + W(tau)(S - P+)]^{-1}
    for terminal weight S.  Unlike ``structured_delta`` it does not check the
    convergence condition; ``at`` raises ``SingularBracketError`` where the
    bracket is singular."""
    return StructuredDelta(gare=are, S1=sym(as_matrix(S, "S")), gram_bar=gram,
                           tol=tol)


def delta_formula(S, are, gram, t, t1, tol=DEFAULT_TOL):
    """Closed form for P(t) - P+:
    e^{(t1-t) A+*} S~(t1-t) e^{(t1-t) A+}."""
    return sliding_terminal(S, are, gram, tol).delta1(t, t1)


def fundamental_solution_U(S, are, gram, t, t1):
    """U(t) = e^{-(t1-t)A+} (I + W(t1-t)(S - P+)), the fundamental solution
    of the time-varying closed loop with U(t1) = I."""
    S = sym(as_matrix(S, "S"))
    tau = t1 - t
    d = S - are.P_plus
    return expm(-tau * are.A_plus) @ (np.eye(d.shape[0]) + gram.at(tau) @ d)


def transition_forward(t, s, t1, S, are, gram, tol=DEFAULT_TOL):
    """U(t) U(s)^{-1} in closed form (propagates states from time s to t)."""
    st = sliding_terminal(S, are, gram, tol)
    ap = are.A_plus
    return (expm((t - s) * ap)
            - gram.at(t - s) @ expm((t1 - t) * ap.T)
            @ st.at(t1 - s) @ expm((t1 - s) * ap))


def transition_backward(t, s, t1, S, are, gram, tol=DEFAULT_TOL):
    """U(t)^{-*} U(s)* in closed form (propagates adjoint states from s to t)."""
    st = sliding_terminal(S, are, gram, tol)
    ap = are.A_plus
    return (expm((s - t) * ap.T)
            - expm((t1 - t) * ap.T) @ st.at(t1 - t)
            @ expm((t1 - s) * ap) @ gram.at(s - t))
