"""Riccati machinery for the standard state-space case: stabilizing
algebraic solution, backward differential solve, closed-loop reachability
Gramians, the sliding terminal condition, and the closed-form fundamental
solution / transition maps of the time-varying closed loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularBracketError
from .integrate import integrate_ode
from .linalg import (DEFAULT_TOL, as_matrix, expm, smallest_singular_value,
                     solve_are_stabilizing, solve_lyapunov, spectral_abscissa,
                     sym)


@dataclass(frozen=True)
class AreSolution:
    """Stabilizing algebraic Riccati solution and its closed loop."""

    P_plus: np.ndarray
    A_plus: np.ndarray
    lam: float          # spectral abscissa of A_plus, < 0
    residual: float


@dataclass(frozen=True)
class DreSolution:
    """Backward Riccati trajectory sampled on an ascending uniform grid,
    with P[-1] == S at the terminal node."""

    t1: float
    grid: np.ndarray     # ascending, grid[0] = 0, grid[-1] = t1
    P: np.ndarray        # (len(grid), n, n), symmetric samples
    S: np.ndarray

    def norm_fro(self):
        return np.linalg.norm(self.P, axis=(1, 2))


@dataclass(frozen=True)
class GramianSet:
    """Closed-loop reachability Gramian W and its finite-horizon values
    W(tau) = W - e^{tau A+} W e^{tau A+*}."""

    W: np.ndarray
    A_plus: np.ndarray

    def at(self, tau):
        e = expm(tau * self.A_plus)
        return self.W - e @ self.W @ e.T


@dataclass(frozen=True)
class SlidingTerminal:
    """Evaluator for the sliding terminal condition
    S~(tau) = (S - P+)[I + W(tau)(S - P+)]^{-1}."""

    S: np.ndarray
    are: AreSolution
    gram: GramianSet
    tol: object = None

    @property
    def D(self):
        return self.S - self.are.P_plus

    @property
    def K_sup(self):
        d = self.D
        s_inf = _right_divide(d, np.eye(d.shape[0]) + self.gram.W @ d,
                              self.tol, tau=np.inf)
        return max(np.linalg.norm(d, 2), np.linalg.norm(s_inf, 2))

    def at(self, tau):
        d = self.D
        bracket = np.eye(d.shape[0]) + self.gram.at(tau) @ d
        return _right_divide(d, bracket, self.tol, tau=tau)


def _right_divide(x, bracket, tol, tau):
    """x @ bracket^{-1} with a singularity guard."""
    tol = tol or DEFAULT_TOL
    smin = smallest_singular_value(bracket)
    smax = np.linalg.norm(bracket, 2) if bracket.size else 0.0
    if smin <= tol.rank_cut(bracket.shape) * max(smax, 1.0):
        raise SingularBracketError(tau)
    return np.linalg.solve(bracket.T, x.T).T


def dre_rhs(plant):
    """Right side of the backward Riccati equation
    -Pdot = A*P + PA - P BB* P + C*C as a (t, P) -> Pdot field."""
    a, bbt, q = plant.A, plant.B @ plant.B.T, plant.C.T @ plant.C

    def field(_t, p):
        p = sym(p)
        return -(a.T @ p + p @ a - p @ bbt @ p + q)

    return field


def stabilizing_solution(plant, tol=DEFAULT_TOL):
    """Stabilizing ARE solution for (A, B, C), bundled with closed-loop data."""
    p = solve_are_stabilizing(plant.A, plant.B, plant.C, tol)
    a_plus = plant.A - plant.B @ plant.B.T @ p
    resid = np.linalg.norm(
        plant.A.T @ p + p @ plant.A - p @ plant.B @ plant.B.T @ p
        + plant.C.T @ plant.C, "fro")
    return AreSolution(P_plus=p, A_plus=a_plus,
                       lam=spectral_abscissa(a_plus), residual=float(resid))


def solve_dre(plant, t1, grid=101, tol=DEFAULT_TOL):
    """Integrate the Riccati equation backward from P(t1) = F*F, with a
    symmetry projection after every accepted step."""
    if t1 <= 0.0:
        raise ValueError("t1 must be positive")
    s = sym(plant.terminal_weight)
    field = dre_rhs(plant)
    try:
        ts, ps = integrate_ode(field, s, t1, 0.0, tol=tol, grid=grid,
                               postprocess=sym)
    except NumericalError as exc:
        raise NumericalError(f"Riccati integration failed: {exc}") from exc
    # ts descends from t1 to 0; store ascending
    order = np.argsort(ts)
    ps = ps[order]
    ps[-1] = s  # terminal node is exact by construction
    return DreSolution(t1=float(t1), grid=ts[order], P=ps, S=s)


def dre_fd_residual(dre, plant, tol=DEFAULT_TOL):
    """Centered finite-difference defect of a DreSolution on interior nodes.

    Returns (residual, bound).  The bound combines the integration tolerance
    with the h^2 truncation term of the centered difference, estimated from
    second differences of the algebraic right side; the truncation term
    dominates on any coarse output grid, so comparing against the raw ode
    tolerance alone would be meaningless.
    """
    return _fd_defect(dre.grid, dre.P, plant, np.eye(plant.n), tol)


def _fd_defect(grid, ps, plant, e, tol):
    """(residual, bound) of the samples ``ps`` on the uniform ``grid``
    against -E* Pdot = A* P + P* A - P* BB* P + C*C; see dre_fd_residual."""
    a, b, c = plant.A, plant.B, plant.C
    pt = ps.transpose(0, 2, 1)
    slopes = -(a.T @ ps + pt @ a - pt @ (b @ b.T) @ ps + c.T @ c)
    h = grid[1] - grid[0]
    defect = e.T @ (ps[2:] - ps[:-2]) / (2.0 * h) - slopes[1:-1]
    resid = float(np.max(np.linalg.norm(defect, axis=(1, 2))))
    # |fd - Pdot| <= h^2/6 max|P'''|; P''' estimated by second differences of Pdot
    d2rhs = np.abs(slopes[2:] - 2.0 * slopes[1:-1] + slopes[:-2]) / h ** 2
    p3 = float(np.max(np.linalg.norm(d2rhs, axis=(1, 2)))) if len(d2rhs) else 0.0
    scale = 1.0 + float(np.max(np.linalg.norm(ps, axis=(1, 2))))
    bound = (h ** 2 / 6.0) * p3 * 2.0 + 10.0 * tol.ode_rel * scale + 10.0 * tol.ode_abs
    return resid, bound


def gramians(are, b, tol=DEFAULT_TOL):
    """Closed-loop reachability Gramian set: W solves
    A+ W + W A+* + B B* = 0."""
    if are.lam >= 0.0:
        raise NumericalError("Gramian requires a stable closed loop")
    b = as_matrix(b, "B")
    w = solve_lyapunov(are.A_plus, b @ b.T, tol)
    return GramianSet(W=sym(w), A_plus=are.A_plus)


def sliding_terminal(S, are, gram, tol=DEFAULT_TOL):
    """Sliding terminal condition evaluator for terminal weight S."""
    return SlidingTerminal(S=sym(as_matrix(S, "S")), are=are, gram=gram, tol=tol)


def check_convergence_condition(S, are, gram, tol=DEFAULT_TOL):
    """True iff I + W (S - P+) is invertible: the terminal weight is
    compatible with convergence of the backward Riccati flow to P+."""
    d = sym(as_matrix(S, "S")) - are.P_plus
    bracket = np.eye(d.shape[0]) + gram.W @ d
    smin = smallest_singular_value(bracket)
    smax = np.linalg.norm(bracket, 2)
    return bool(smin > tol.rank_cut(bracket.shape) * max(smax, 1.0))


def delta_formula(S, are, gram, t, t1, tol=DEFAULT_TOL):
    """Closed form for P(t) - P+:
    e^{(t1-t) A+*} S~(t1-t) e^{(t1-t) A+}."""
    st = sliding_terminal(S, are, gram, tol)
    tau = t1 - t
    e = expm(tau * are.A_plus)
    return e.T @ st.at(tau) @ e


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
