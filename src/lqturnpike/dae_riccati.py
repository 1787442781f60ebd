"""Generalized Riccati equations for semi-explicit descriptor plants.

The generalized algebraic/differential equations are solved through the
block reduction: a constant fast-block solution P2 with invertible
K2 = A22* - P2* B2 B2*, the algebraic elimination of the coupling block
P21, and a reduced standard Riccati equation in the differential block P1.
The difference P(t) - P+ has second block column zero and is given in closed
form through the reduced closed loop (Abar, Bbar).
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, NumericalError
from .integrate import integrate_ode
from .linalg import (DEFAULT_TOL, min_eig_sym, smallest_singular_value,
                     solve_are_q, solve_lyapunov, spectral_abscissa, sym)
from .plants import (check_F_compatible, check_impulse_controllable,
                     check_pencil_regular)
from .riccati import AreSolution, GramianSet, SlidingTerminal, _fd_defect


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


@dataclass(frozen=True)
class GareSolution:
    """Stabilizing solution of the generalized algebraic Riccati equation
    with closed-loop data and the reduced triple (Abar, Bbar, Cbar)."""

    P1: np.ndarray
    P21: np.ndarray
    P2: np.ndarray
    P_plus: np.ndarray
    K2: np.ndarray
    A_plus: np.ndarray
    A_p1: np.ndarray
    A_p12: np.ndarray
    A_p21: np.ndarray
    A_p2: np.ndarray
    A_bar: np.ndarray
    B_bar: np.ndarray
    C_bar: np.ndarray
    lambda_bar: float
    residual: float
    reduced: ReducedCoefficients
    partition: object
    plant: object


@dataclass(frozen=True)
class GdreSolution:
    """Backward generalized Riccati trajectory: time-varying differential
    block P1(t), algebraically slaved coupling block P21(t), constant fast
    block P2."""

    t1: float
    grid: np.ndarray
    P1: np.ndarray       # (G, d, d)
    P21: np.ndarray      # (G, n-d, d)
    P2: np.ndarray
    S1: np.ndarray
    A_t: np.ndarray
    R_t: np.ndarray
    Q_t: np.ndarray
    gare: GareSolution

    def assemble(self, i):
        """Full P(t_i) as the block lower-triangular matrix."""
        d = self.P1.shape[1]
        n = d + self.P2.shape[0]
        p = np.zeros((n, n))
        p[:d, :d] = self.P1[i]
        p[d:, :d] = self.P21[i]
        p[d:, d:] = self.P2
        return p


@dataclass(frozen=True)
class StructuredDelta:
    """Evaluator for the structured difference P(t) - P+: the differential
    block follows the reduced sliding-terminal closed form, the coupling
    block is -A+2^{-*} A+12* times it, and the second block column vanishes."""

    gare: GareSolution
    S1: np.ndarray
    sliding: SlidingTerminal
    gram_bar: GramianSet

    def delta1(self, t, t1):
        from .linalg import expm
        tau = t1 - t
        e = expm(tau * self.gare.A_bar)
        return e.T @ self.sliding.at(tau) @ e

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


@dataclass(frozen=True)
class DecoupledClosedLoop:
    """Strangeness-free closed loop: x1dot = A1hat(t) x1, x2 = A2hat(t) x1."""

    gare: GareSolution
    delta: StructuredDelta

    def A1_hat(self, t, t1):
        g = self.gare
        return g.A_bar - g.B_bar @ g.B_bar.T @ self.delta.delta1(t, t1)

    def A2_hat(self, t, t1):
        g = self.gare
        base = -np.linalg.solve(g.A_p2, g.A_p21)
        corr = np.linalg.solve(g.A_p2, g.partition.B2)
        return base + corr @ (g.B_bar.T @ self.delta.delta1(t, t1))


def _enumerate_fast_candidates(a22, b2, c2, tol):
    """Symmetric solutions of the fast-block equation for blocks of size
    <= 2, via sign choices among the Hamiltonian eigenvalue pairs."""
    n2 = a22.shape[0]
    bbt = b2 @ b2.T
    q = c2.T @ c2
    ham = np.block([[a22, -bbt], [-q, -a22.T]])
    _, eigvecs = np.linalg.eig(ham)
    cands = []
    from itertools import combinations
    for pick in combinations(range(2 * n2), n2):
        basis = eigvecs[:, list(pick)]
        x11 = basis[:n2, :]
        x21 = basis[n2:, :]
        if smallest_singular_value(x11) <= 1e-10 * max(
                1.0, np.linalg.norm(x11, 2)):
            continue
        p = np.real(x21 @ np.linalg.inv(x11))
        if np.linalg.norm(p - p.T, "fro") > 1e-6 * (1.0 + np.linalg.norm(p, "fro")):
            continue
        p = sym(p)
        resid = np.linalg.norm(
            a22.T @ p + p @ a22 - p @ bbt @ p + q, "fro")
        if resid > 1e-6 * (1.0 + np.linalg.norm(p, "fro")):
            continue
        if all(np.linalg.norm(p - c, "fro") > 1e-8 * (1.0 + np.linalg.norm(p, "fro"))
               for c in cands):
            cands.append(p)
    return cands


def solve_fast_block(a22, b2, c2, tol=DEFAULT_TOL):
    """Constant fast-block solution P2 of
    A22* P2 + P2* A22 - P2* B2 B2* P2 + C2* C2 = 0 with K2 invertible.

    Prefers the stabilizing branch.  In the A22 = -I normal form the
    definiteness of the underlying cost requires the largest singular value
    of C2 B2 to stay below one; violations are reported as such.
    """
    a22 = np.asarray(a22, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    n2 = a22.shape[0]
    if n2 == 0:
        return np.zeros((0, 0))

    normal_form = np.allclose(a22, -np.eye(n2), atol=1e-12)
    if normal_form and b2.size and c2.size:
        sv = np.linalg.svd(c2 @ b2, compute_uv=False)
        if sv.size and sv[0] > 1.0 + 1e-12:
            raise AssumptionViolation(
                "definiteness",
                f"largest singular value of C2 B2 is {sv[0]:.6g} > 1; the "
                "fast-block cost is indefinite")

    if not b2.size or not np.any(b2):
        # Lyapunov-type equation A22* P2 + P2 A22 + C2* C2 = 0
        try:
            p2 = solve_lyapunov(a22.T, c2.T @ c2, tol)
        except (AssumptionViolation, NumericalError) as exc:
            raise AssumptionViolation(
                "fast-block", f"fast-block Lyapunov equation unsolvable: {exc}"
            ) from exc
        _require_k2(a22, b2, p2, tol)
        return p2

    try:
        p2 = solve_are_q(a22, b2 @ b2.T, c2.T @ c2, tol)
        _require_k2(a22, b2, p2, tol)
        return p2
    except (AssumptionViolation, NumericalError):
        pass

    if n2 > 2:
        raise AssumptionViolation(
            "fast-block",
            "no stabilizing fast-block solution and the block is too large "
            "for branch enumeration")
    for cand in _enumerate_fast_candidates(a22, b2, c2, tol):
        try:
            _require_k2(a22, b2, cand, tol)
            return cand
        except AssumptionViolation:
            continue
    raise AssumptionViolation(
        "fast-block", "no symmetric fast-block solution with invertible K2")


def _require_k2(a22, b2, p2, tol):
    k2 = _k2_of(a22, b2, p2)
    if k2.shape[0] and smallest_singular_value(k2) <= tol.rank_cut(
            k2.shape) * max(1.0, np.linalg.norm(k2, 2)):
        raise AssumptionViolation(
            "fast-block", "K2 = A22* - P2* B2 B2* is singular")


def _k2_of(a22, b2, p2):
    return a22.T - p2.T @ b2 @ b2.T


def reduced_coefficients(part, p2, tol=DEFAULT_TOL):
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

    lam_min = min_eig_sym(q_t)
    scale = max(1.0, float(np.linalg.norm(q_t, 2)))
    if lam_min < -tol.psd_slack * scale:
        raise AssumptionViolation(
            "definiteness",
            f"reduced state weight has eigenvalue {lam_min:.3e} < 0")
    return ReducedCoefficients(A_t=a_t, G=g, R_t=g @ g.T, Q_t=q_t, K2=k2,
                               M=m, N=n_mat)


def _require_structure(plant, tol):
    """Refuse a descriptor plant whose pencil is singular, which is not
    impulse controllable, or whose terminal weight acts on algebraic
    variables."""
    if not check_pencil_regular(plant.E, plant.A, tol):
        raise AssumptionViolation("regularity", "pencil sE - A is singular")
    if not check_impulse_controllable(plant.E, plant.A, plant.B, tol):
        raise AssumptionViolation(
            "impulse-controllability", "system is not impulse controllable")
    if not check_F_compatible(plant.E, plant.F):
        raise AssumptionViolation(
            "terminal-compatibility",
            "terminal weight acts on algebraic variables")


def solve_gare(plant, tol=DEFAULT_TOL):
    """Stabilizing solution of the generalized algebraic Riccati equation via
    the block reduction, with all structural certificates verified."""
    _require_structure(plant, tol)
    part = plant.partition()
    d, n = part.d, plant.n
    p2 = solve_fast_block(part.A22, part.B2, part.C2, tol)
    red = reduced_coefficients(part, p2, tol)

    p1 = solve_are_q(red.A_t, red.R_t, red.Q_t, tol)
    p21 = _coupling_block(red, p1)

    p_plus = np.zeros((n, n))
    p_plus[:d, :d] = p1
    p_plus[d:, :d] = p21
    p_plus[d:, d:] = p2

    resid = gare_residual(plant, p_plus)
    if resid > tol.residual * (1.0 + np.linalg.norm(p_plus, "fro")):
        raise NumericalError(
            f"generalized ARE residual {resid:.3e} exceeds tolerance")
    esym = plant.E.T @ p_plus - p_plus.T @ plant.E
    if np.linalg.norm(esym, "fro") > 1e-10 * (1.0 + np.linalg.norm(p_plus, "fro")):
        raise NumericalError("E*P symmetry constraint violated")

    a_plus = plant.A - plant.B @ plant.B.T @ p_plus
    a_p1, a_p12 = a_plus[:d, :d], a_plus[:d, d:]
    a_p21, a_p2 = a_plus[d:, :d], a_plus[d:, d:]
    if a_p2.shape[0] and smallest_singular_value(a_p2) <= tol.rank_cut(
            a_p2.shape) * max(1.0, np.linalg.norm(a_p2, 2)):
        raise AssumptionViolation(
            "impulse-freeness", "closed-loop fast block A+2 is singular")
    if not check_pencil_regular(plant.E, a_plus, tol):
        raise AssumptionViolation("regularity", "closed-loop pencil singular")

    a_bar = a_p1 - a_p12 @ np.linalg.solve(a_p2, a_p21)
    b_bar = part.B1 - a_p12 @ np.linalg.solve(a_p2, part.B2)
    c_bar = part.C1 - part.C2 @ np.linalg.solve(a_p2, a_p21)
    lam_bar = spectral_abscissa(a_bar)
    if lam_bar >= 0.0:
        raise AssumptionViolation(
            "stabilizing-solution",
            "closed-loop finite dynamics are not stable")

    return GareSolution(P1=p1, P21=p21, P2=p2, P_plus=p_plus, K2=red.K2,
                        A_plus=a_plus, A_p1=a_p1, A_p12=a_p12, A_p21=a_p21,
                        A_p2=a_p2, A_bar=a_bar, B_bar=b_bar, C_bar=c_bar,
                        lambda_bar=float(lam_bar), residual=float(resid),
                        reduced=red, partition=part, plant=plant)


def gare_residual(plant, p):
    """Frobenius norm of A*X + X*A - X*BB*X + C*C for the assembled X."""
    a, b, c = plant.A, plant.B, plant.C
    r = a.T @ p + p.T @ a - p.T @ b @ b.T @ p + c.T @ c
    return float(np.linalg.norm(r, "fro"))


def _coupling_block(red, p1):
    """P21 = -K2^{-1}((A12* - P2* B2 B1*) P1 + P2* A21 + C2* C1), for one P1
    or a stack of them."""
    return -np.linalg.solve(red.K2, red.M @ p1 + red.N)


def solve_gdre(plant, t1, grid=101, tol=DEFAULT_TOL):
    """Backward generalized Riccati solve: integrate the reduced equation in
    the differential block, slave the coupling block algebraically, keep the
    fast block constant."""
    if t1 <= 0.0:
        raise ValueError("t1 must be positive")
    gare = solve_gare(plant, tol)
    part, red = gare.partition, gare.reduced
    s1 = sym(part.S1)

    a_t, r_t, q_t = red.A_t, red.R_t, red.Q_t

    def field(_t, p):
        p = sym(p)
        return -(a_t.T @ p + p @ a_t - p @ r_t @ p + q_t)

    try:
        ts, p1s = integrate_ode(field, s1, t1, 0.0, tol=tol, grid=grid,
                                postprocess=sym)
    except NumericalError as exc:
        raise NumericalError(f"reduced Riccati integration failed: {exc}") from exc
    order = np.argsort(ts)
    ts, p1s = ts[order], p1s[order]
    p1s[-1] = s1
    p21s = _coupling_block(red, p1s)
    return GdreSolution(t1=float(t1), grid=ts, P1=p1s, P21=p21s, P2=gare.P2,
                        S1=s1, A_t=a_t, R_t=r_t, Q_t=q_t, gare=gare)


def gdre_fd_residual(gdre, plant, tol=DEFAULT_TOL):
    """Centered finite-difference defect of the assembled generalized Riccati
    trajectory, with the truncation-aware bound of ``dre_fd_residual``."""
    ps = np.array([gdre.assemble(i) for i in range(len(gdre.grid))])
    return _fd_defect(gdre.grid, ps, plant, plant.E, tol)


def structured_delta(gare, s1, tol=DEFAULT_TOL):
    """Closed-form evaluator for P(t) - P+ under the terminal block S1.

    Requires the convergence condition I + Wbar (S1 - P1+) to be invertible,
    where Wbar is the reachability Gramian of the reduced closed loop."""
    s1 = sym(np.asarray(s1, dtype=float))
    d = gare.A_bar.shape[0]
    if s1.shape != (d, d):
        raise ValueError(f"S1 must be {d}x{d}")
    wbar = solve_lyapunov(gare.A_bar, gare.B_bar @ gare.B_bar.T, tol)
    gram_bar = GramianSet(W=sym(wbar), A_plus=gare.A_bar)
    diff = s1 - gare.P1
    bracket = np.eye(d) + gram_bar.W @ diff
    if smallest_singular_value(bracket) <= tol.rank_cut(bracket.shape) * max(
            1.0, np.linalg.norm(bracket, 2)):
        raise AssumptionViolation(
            "convergence-condition",
            "I + Wbar (S1 - P1+) is singular; the generalized Riccati flow "
            "does not converge for this terminal weight")

    red, p1 = gare.reduced, gare.P1
    resid = np.linalg.norm(red.A_t.T @ p1 + p1 @ red.A_t
                           - p1 @ red.R_t @ p1 + red.Q_t, "fro")
    reduced_are = AreSolution(P_plus=p1, A_plus=gare.A_bar,
                              lam=gare.lambda_bar, residual=float(resid))
    sliding = SlidingTerminal(S=s1, are=reduced_are, gram=gram_bar, tol=tol)
    return StructuredDelta(gare=gare, S1=s1, sliding=sliding, gram_bar=gram_bar)


def decoupled_closed_loop(gare, delta):
    """Decoupled (strangeness-free) closed-loop evaluators."""
    return DecoupledClosedLoop(gare=gare, delta=delta)
