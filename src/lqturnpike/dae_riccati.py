"""The algebraic layer of both plant kinds: Riccati equations of
semi-explicit descriptor plants, of which a standard plant is the d = n case.

Every solve enters through ``_reduce``: a constant fast-block solution P2
with invertible K2 = A22* - P2* B2 B2*, the algebraic elimination of the
coupling block P21, and a reduced standard Riccati equation in the
differential block P1.  P2 is the stabilizing solution of the fast-block
equation, or the anti-stabilizing one where the stabilizing one does not
exist or leaves K2 singular (one Schur ARE solve on A22, then on -A22).
Where B2 = 0 the fast-block equation is linear and P2 is its unique
solution (one Bartels-Stewart solve).  The branch changes the P21 and P2
blocks of P+, K2, A+ and Bbar up to an orthogonal factor (Bbar Bbar*
stays); P1, Abar, Cbar, Wbar, the steady state and every trajectory do not
depend on it.  For a standard plant the fast block is empty, the reduced
coefficients are (A, BB*, C*C) and P = P1.  The difference P(t) - P+ has
second block column zero and is given in closed form through the reduced
closed loop (Abar, Bbar).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, NumericalError, SingularBracketError
from .linalg import (PSD_SLACK, RESIDUAL_TOL, as_matrix, bartels_stewart, expm,
                     hurwitz_lyapunov, is_singular, rank_cut, real_schur,
                     schur_abscissa, schur_eigvals, solve_are_q, sym)
from .plants import (check_F_compatible, check_impulse_controllable,
                     check_pencil_regular, structural_report)


@dataclass(frozen=True)
class ReducedCoefficients:
    """Coefficients of the reduced differential-block Riccati equation
    -P1dot = At* P1 + P1 At - P1 Rt P1 + Qt, with Rt = G G*."""

    A_t: np.ndarray
    G: np.ndarray
    R_t: np.ndarray
    Q_t: np.ndarray
    K2: np.ndarray
    M: np.ndarray   # A12* - P2* B2 B1*
    N: np.ndarray   # P2* A21 + C2* C1
    g2: np.ndarray  # N* K2^{-*} B2


@dataclass(frozen=True)
class GramianSet:
    """Reachability Gramian W of a stable closed loop A+ and its
    finite-horizon values W(tau) = W - e^{tau A+} W e^{tau A+*}."""

    W: np.ndarray
    A_plus: np.ndarray

    def at(self, tau):
        return self._of(expm(tau * self.A_plus))

    def _of(self, e):
        """W(tau) from e = e^{tau A+}, for one span or a stack of them."""
        return self.W - e @ self.W @ np.swapaxes(e, -1, -2)


@dataclass(frozen=True)
class GareSolution:
    """Stabilizing solution of the generalized algebraic Riccati equation
    with closed-loop data and the reduced triple (Abar, Bbar, Cbar): Abar =
    At - Rt P1 is the closed loop of the reduced equation and Bbar = G.  For
    a standard plant (d = n) P_plus = P1, A_plus = A_bar and B_bar = B.
    ``A_bar_schur`` is the one real Schur form (T, Z) of Abar: ``lambda_bar``
    is the largest diagonal entry of T, and ``gramians`` solves W on it.
    ``lam`` is the former name of ``lambda_bar``, which the benchmark's
    workloads read."""

    P1: np.ndarray
    P21: np.ndarray
    P2: np.ndarray
    P_plus: np.ndarray
    K2: np.ndarray
    A_plus: np.ndarray
    A_p12: np.ndarray
    A_p21: np.ndarray
    A_p2: np.ndarray
    A_bar: np.ndarray
    B_bar: np.ndarray
    C_bar: np.ndarray
    A_bar_schur: tuple  # (T, Z), A_bar = Z T Z*
    lambda_bar: float   # spectral abscissa of A_bar, < 0
    residual: float
    reduced: ReducedCoefficients
    partition: object
    plant: object       # the plant solved, as the caller passed it

    @property
    def lam(self):
        return self.lambda_bar


@dataclass(frozen=True)
class GdreSolution:
    """Backward Riccati trajectory on an ascending uniform grid: P[i] is
    [[P1, 0], [P21, P2]] at grid[i], with the time-varying differential
    block P1, the algebraically slaved coupling block P21 and the constant
    fast block P2; P = P1 for a standard plant (d = n).  ``notes`` are the
    solve's warnings, those of the trajectory it was read from."""

    t1: float
    grid: np.ndarray     # ascending, grid[0] = 0, grid[-1] = t1
    P: np.ndarray        # (G, n, n)
    d: int
    notes: list = field(default_factory=list)

    @property
    def P1(self):
        return self.P[:, :self.d, :self.d]

    @property
    def P21(self):
        return self.P[:, self.d:, :self.d]

    def norm_fro(self):
        return np.linalg.norm(self.P, axis=(1, 2))


@dataclass(frozen=True)
class StructuredDelta:
    """Closed forms for the terminal block S1, with tau = t1 - t.  P(t) - P+
    has the differential block e^{tau Abar*} S~(tau) e^{tau Abar}, where
    S~(tau) = (S1 - P1+)[I + Wbar(tau)(S1 - P1+)]^{-1} is the sliding
    terminal condition, the coupling block -A+2^{-*} A+12* times it and a
    zero second block column.  The closed loop x1dot = A1_hat(t) x1, x2 =
    A2_hat(t) x1 has the fundamental solution U and the transition maps of
    Bender and Laub (IEEE TAC 32(8), 1987).  For a standard plant P1 = P and
    Abar = A+.  Unchecked; ``structured_delta`` checks the convergence
    condition, and evaluators raise ``SingularBracketError`` where the
    bracket is singular."""

    gare: GareSolution
    S1: np.ndarray
    gram_bar: GramianSet

    @property
    def K_sup(self):
        """max(||S1 - P1+||, ||S~(inf)||)."""
        d = self.S1 - self.gare.P1
        s_inf = self._slide(self.gram_bar.W, np.inf)   # Wbar(inf) = Wbar
        return max(np.linalg.norm(d, 2), np.linalg.norm(s_inf, 2))

    def _slide(self, w, tau):
        """S~(tau) from w = Wbar(tau), for one span or a stack of them; the
        bracket guard covers every span and names the first singular one."""
        d = self.S1 - self.gare.P1
        bracket = np.eye(d.shape[0]) + w @ d
        bad = is_singular(bracket)
        if np.any(bad):
            raise SingularBracketError(float(np.ravel(tau)[np.argmax(bad)]))
        s_tau = np.linalg.solve(np.swapaxes(bracket, -1, -2), d.T)
        return np.swapaxes(s_tau, -1, -2)

    def at(self, tau):
        """The sliding terminal condition S~(tau)."""
        return self._slide(self.gram_bar.at(tau), tau)

    def delta1(self, t, t1):
        tau = t1 - t
        e = expm(tau * self.gare.A_bar)
        return e.T @ self._slide(self.gram_bar._of(e), tau) @ e

    def coupling(self):
        """Factor L with P_delta;21 = L @ P_delta;1."""
        g = self.gare
        return -np.linalg.solve(g.A_p2.T, g.A_p12.T)

    def full(self, t, t1):
        d1 = self.delta1(t, t1)
        g = self.gare
        d = d1.shape[0]
        n = d + g.A_p2.shape[0]
        out = np.zeros((n, n))
        out[:d, :d] = d1
        out[d:, :d] = self.coupling() @ d1
        return out

    def A1_hat(self, t, t1):
        g = self.gare
        return g.A_bar - g.B_bar @ g.B_bar.T @ self.delta1(t, t1)

    def A2_hat(self, t, t1):
        g = self.gare
        return np.linalg.solve(g.A_p2, g.partition.B2 @ g.B_bar.T
                               @ self.delta1(t, t1) - g.A_p21)

    def U(self, t, t1):
        """U(t) = e^{-tau Abar} (I + Wbar(tau)(S1 - P1+)), the fundamental
        solution of x1dot = A1_hat(t) x1 with U(t1) = I; only the bounded
        Wbar(tau) enters it."""
        tau = t1 - t
        d = self.S1 - self.gare.P1
        return expm(-tau * self.gare.A_bar) @ (np.eye(d.shape[0])
                                               + self.gram_bar.at(tau) @ d)

    def forward(self, t, s, t1):
        """U(t) U(s)^{-1}, which propagates states from time s to t."""
        a, gram = self.gare.A_bar, self.gram_bar
        e_ts, e_t, e_s = (expm(span * a) for span in (t - s, t1 - t, t1 - s))
        return (e_ts - gram._of(e_ts) @ e_t.T
                @ self._slide(gram._of(e_s), t1 - s) @ e_s)

    def backward(self, t, s, t1):
        """U(t)^{-*} U(s)*, which propagates adjoint states from s to t."""
        a, gram = self.gare.A_bar, self.gram_bar
        # exponentiate Abar* itself: transposing e^{(s - t) Abar} changes
        # the last digits of its large entries
        e_st = expm((s - t) * a.T)
        e_t, e_s = expm((t1 - t) * a), expm((t1 - s) * a)
        return (e_st - e_t.T @ self._slide(gram._of(e_t), t1 - t) @ e_s
                @ gram._of(e_st.T))


def solve_fast_block(a22, b2, c2):
    """Constant fast-block solution P2 of
    A22* P2 + P2* A22 - P2* B2 B2* P2 + C2* C2 = 0 with K2 = A22* - P2* B2 B2*
    invertible.

    Where B2 = 0 the equation is the linear A22* P2 + P2 A22 + C2* C2 = 0
    with K2 = A22*: one Bartels-Stewart solve, refused as ``fast-block``
    beforehand where A22 is singular or two of its eigenvalues sum to zero.
    Otherwise one Schur ARE solve per branch: the stabilizing solution
    ``solve_are_q(A22, B2 B2*, C2* C2)`` and, if that refuses or leaves K2
    singular, the anti-stabilizing one -``solve_are_q(-A22, B2 B2*, C2* C2)``.
    Where both refuse, the block is refused as ``fast-block`` with both
    reasons.  The branch changes the P21 and P2 blocks of ``P_plus``,
    ``K2``, ``A_plus`` and ``B_bar`` up to an orthogonal factor (``B_bar
    B_bar*`` stays); P1, Abar, Cbar, Wbar, the steady state and every
    trajectory do not depend on it.
    """
    a22 = np.asarray(a22, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    bbt, q = b2 @ b2.T, c2.T @ c2
    if a22.size and not np.any(b2):
        return _zero_input_fast_block(a22, q)
    reasons = []
    for sign, branch in ((1.0, "stabilizing"), (-1.0, "anti-stabilizing")):
        try:
            p2 = sign * solve_are_q(sign * a22, bbt, q)
            _require_k2(a22, b2, p2)
            return p2
        except (AssumptionViolation, NumericalError) as exc:
            reasons.append(f"{branch}: {exc}")
    raise AssumptionViolation(
        "fast-block", "no fast-block solution with invertible K2 ("
        + "; ".join(reasons) + ")")


def _zero_input_fast_block(a22, q):
    if is_singular(a22):
        raise AssumptionViolation(
            "fast-block", "B2 = 0 and A22 is singular, so K2 = A22* is too")
    schur = real_schur(a22.T)   # serves the gap refusal and the solve
    lam = schur_eigvals(schur[0])
    gap = np.min(np.abs(lam[:, None] + lam[None, :]))
    if gap <= rank_cut(a22.shape) * max(1.0, np.linalg.norm(a22)):
        raise AssumptionViolation(
            "fast-block", "B2 = 0 and two eigenvalues of A22 sum to "
            f"{gap:.1e}, so A22* P2 + P2 A22 + C2* C2 = 0 has no unique "
            "solution")
    return bartels_stewart(a22.T, q, schur)


def _require_k2(a22, b2, p2):
    if is_singular(_k2_of(a22, b2, p2)):
        raise AssumptionViolation(
            "fast-block", "K2 = A22* - P2* B2 B2* is singular")


def _k2_of(a22, b2, p2):
    return a22.T - p2.T @ b2 @ b2.T


def reduced_coefficients(part, p2):
    """Reduced Riccati coefficients after eliminating P21 through K2.

    With M = A12* - P2* B2 B1* and N = P2* A21 + C2* C1 the elimination
    P21 = -K2^{-1}(M P1 + N) turns the differential block equation into
    -P1dot = At* P1 + P1 At - P1 G G* P1 + Qt where

        G  = B1 - M* K2^{-*} B2,
        At = A11 - M* K2^{-*} A21 + G (N* K2^{-*} B2)*,
        Qt = C1*C1 - A21* K2^{-1} N - N* K2^{-*} A21 - g2 g2*,  g2 = N* K2^{-*} B2.

    Qt must be positive semidefinite for global solvability.
    """
    a11, a12, a21, a22 = part.A11, part.A12, part.A21, part.A22
    b1, b2, c1, c2 = part.B1, part.B2, part.C1, part.C2
    k2 = _k2_of(a22, b2, p2)
    m = a12.T - p2.T @ b2 @ b1.T
    n_mat = p2.T @ a21 + c2.T @ c1

    k2_inv_n = np.linalg.solve(k2, n_mat)
    mt_k2invT = np.linalg.solve(k2, m).T           # M* K2^{-*}

    g = b1 - mt_k2invT @ b2
    g2 = k2_inv_n.T @ b2                           # N* K2^{-*} B2
    a_t = a11 - mt_k2invT @ a21 + g @ g2.T
    q_t = sym(c1.T @ c1 - a21.T @ k2_inv_n - k2_inv_n.T @ a21 - g2 @ g2.T)

    eigs = np.linalg.eigvalsh(q_t)   # one solve: ||Qt||_2 = max |eig|
    lam_min = float(np.min(eigs, initial=np.inf))
    scale = max(1.0, float(np.max(np.abs(eigs), initial=0.0)))
    if lam_min < -PSD_SLACK * scale:
        raise AssumptionViolation(
            "definiteness",
            f"reduced state weight has eigenvalue {lam_min:.3e} < 0")
    return ReducedCoefficients(A_t=a_t, G=g, R_t=g @ g.T, Q_t=q_t, K2=k2,
                               M=m, N=n_mat, g2=g2)


def _require_structure(plant):
    """Refuse a descriptor plant whose pencil is singular, which is not
    impulse controllable, or whose terminal weight acts on algebraic
    variables."""
    if not check_pencil_regular(plant.E, plant.A):
        raise AssumptionViolation("regularity", "pencil sE - A is singular")
    if not check_impulse_controllable(plant.E, plant.A, plant.B):
        raise AssumptionViolation(
            "impulse-controllability", "system is not impulse controllable")
    if not check_F_compatible(plant.E, plant.F):
        raise AssumptionViolation(
            "terminal-compatibility",
            "terminal weight acts on algebraic variables")


def _reduce(plant):
    """The one entry of both plant kinds, a standard plant being the
    descriptor plant with E = I.  The structural checks hold trivially at
    d = n and run only for d < n.  Returns (partition, P2, reduced
    coefficients); the fast block and the reduced weight refuse by name."""
    if plant.d < plant.n:
        _require_structure(plant)
    part = plant.partition()
    p2 = solve_fast_block(part.A22, part.B2, part.C2)
    return part, p2, reduced_coefficients(part, p2)


def _full_P(red, p1, p2):
    """[[P1, 0], [P21, P2]] with the slaved coupling block
    P21 = -K2^{-1}((A12* - P2* B2 B1*) P1 + P2* A21 + C2* C1), for one P1 or
    a stack of them."""
    d = p1.shape[-1]
    n = d + p2.shape[0]
    p = np.zeros(p1.shape[:-2] + (n, n))
    p[..., :d, :d] = p1
    p[..., d:, :d] = -np.linalg.solve(red.K2, red.M @ p1 + red.N)
    p[..., d:, d:] = p2
    return p


def solve_gare(plant):
    """Stabilizing solution of the algebraic Riccati equation of either
    plant kind via the block reduction: P1 is the stabilizing solution of
    the reduced equation, whose closed loop At - Rt P1 is Abar and whose
    input G is Bbar; the assembled P+ has its residual checked.  A failed
    reduced solve whose slow dynamics are not stabilizable (X11 singular to
    rounding) is refused as ``stabilizing-solution``."""
    part, p2, red = _reduce(plant)
    d = part.d

    try:
        p1 = solve_are_q(red.A_t, red.R_t, red.Q_t)
    except NumericalError as exc:
        if structural_report(plant).finite_dynamics_stable:
            raise
        raise AssumptionViolation(
            "stabilizing-solution", "slow dynamics are not stabilizable (an "
            "unstable mode is out of the input's reach), so X11 is singular "
            f"to rounding: {exc}") from exc
    p_plus = _full_P(red, p1, p2)

    resid = gare_residual(plant, p_plus)
    if resid > RESIDUAL_TOL * (1.0 + np.linalg.norm(p_plus, "fro")):
        raise NumericalError(
            f"generalized ARE residual {resid:.3e} exceeds tolerance")

    a_plus = plant.A - plant.B @ plant.B.T @ p_plus
    a_p12, a_p21, a_p2 = a_plus[:d, d:], a_plus[d:, :d], a_plus[d:, d:]
    # A+2 = K2* is invertible, Abar = A+1 - A+12 A+2^{-1} A+21 is At - Rt P1
    # (Hurwitz by solve_are_q) and Bbar = B1 - A+12 A+2^{-1} B2 is G
    a_bar = red.A_t - red.R_t @ p1
    a_bar_schur = real_schur(a_bar)
    c_bar = part.C1 - part.C2 @ np.linalg.solve(a_p2, a_p21)

    return GareSolution(P1=p1, P21=p_plus[d:, :d], P2=p2, P_plus=p_plus,
                        K2=red.K2, A_plus=a_plus, A_p12=a_p12,
                        A_p21=a_p21, A_p2=a_p2, A_bar=a_bar, B_bar=red.G,
                        C_bar=c_bar, A_bar_schur=a_bar_schur,
                        lambda_bar=schur_abscissa(a_bar_schur[0]),
                        residual=resid, reduced=red, partition=part,
                        plant=plant)


def gare_residual(plant, p):
    """Frobenius norm of A*X + X*A - X*BB*X + C*C for the assembled X."""
    a, b, c = plant.A, plant.B, plant.C
    r = a.T @ p + p.T @ a - p.T @ b @ b.T @ p + c.T @ c
    return float(np.linalg.norm(r, "fro"))


def solve_gdre(plant, t1, grid=101):
    """Backward Riccati solve of either plant kind: the P of
    ``lqr.optimal_trajectory`` from x0 = 0 with y_c = y_e = 0, the reduced
    equation from P1(t1) = S1 by its exact dichotomy solve, the coupling
    block slaved algebraically and the fast block constant.  No algebraic
    Riccati equation is solved, so plants whose slow dynamics cannot be
    stabilized get their solution too."""
    from .lqr import optimal_trajectory   # lqr imports this module
    traj = optimal_trajectory(plant, np.zeros(plant.n), np.zeros(plant.k),
                              np.zeros(plant.F.shape[0]), t1, grid)
    return GdreSolution(t1=float(t1), grid=traj.grid, P=traj.P, d=traj.d,
                        notes=traj.notes)


def gramians(are, b):
    """Reachability Gramian set of the reduced closed loop (Abar, b): W
    solves Abar W + W Abar* + b b* = 0 (Abar = A+ for a standard plant) on
    the Schur form ``are.A_bar_schur``."""
    b = as_matrix(b, "B")
    return GramianSet(W=hurwitz_lyapunov(are.A_bar, b @ b.T, are.A_bar_schur),
                      A_plus=are.A_bar)


def check_convergence_condition(S, are, gram):
    """True iff I + W (S - P1+) is invertible: the terminal weight is
    compatible with convergence of the backward Riccati flow to P+."""
    d = sym(as_matrix(S, "S")) - are.P1
    return not is_singular(np.eye(d.shape[0]) + gram.W @ d)


def structured_delta(gare, s1):
    """Closed-form evaluator for P(t) - P+ under the terminal block S1.

    Requires the convergence condition I + Wbar (S1 - P1+) to be invertible,
    where Wbar is the reachability Gramian of the reduced closed loop."""
    s1 = sym(np.asarray(s1, dtype=float))
    d = gare.A_bar.shape[0]
    if s1.shape != (d, d):
        raise ValueError(f"S1 must be {d}x{d}")
    gram_bar = gramians(gare, gare.B_bar)
    if not check_convergence_condition(s1, gare, gram_bar):
        raise AssumptionViolation(
            "convergence-condition",
            "I + Wbar (S1 - P1+) is singular; the generalized Riccati flow "
            "does not converge for this terminal weight")
    return StructuredDelta(gare=gare, S1=s1, gram_bar=gram_bar)
