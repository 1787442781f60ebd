"""Independent references for the benchmark's correctness checks.

Nothing here imports lqturnpike.  Every reference is computed from the plant
matrices with numpy and scipy, by methods the package does not use:

- P+ of a standard plant from ``scipy.linalg.solve_continuous_are`` (Schur
  method), checked to give a Hurwitz closed loop;
- reachability Gramians from ``scipy.linalg.solve_continuous_lyapunov``;
- steady states from one direct solve of the steady KKT system;
- optimal trajectories, costs and Riccati flows from the first-order
  optimality boundary-value problem, solved over the exact flow map
  (``scipy.linalg.expm``) of each grid interval by a Davison-Maki sweep with
  reinitialisation at every node; the package integrates with Dormand-Prince
  instead.

A descriptor plant ``E = diag(I_d, 0)`` enters through its optimality
system: the algebraic rows of ``diag(E, E*) z' = H z + g`` are eliminated,
which leaves a constant-coefficient Hamiltonian system in the differential
pair (x1, lam1).  A standard plant is the case d = n.  The recomputations
are made once per input, before any timing, and are never cached on disk.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from mpmath import mp

# A bracket I + W (S - P+) counts as singular below SINGULAR_REL and as
# invertible above INVERTIBLE_REL (relative to its largest singular value);
# inputs whose bracket falls in between are refused as undecidable.
SINGULAR_REL = 1e-10
INVERTIBLE_REL = 1e-6


class ReferenceError(Exception):
    """An input on which the reference cannot decide; the benchmark never
    generates one."""


@dataclass(frozen=True)
class Plant:
    """Plain matrix data of one plant; ``d == n`` for a standard plant."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    F: np.ndarray
    d: int

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def kind(self):
        return "ode" if self.d == self.n else "dae"

    @property
    def E(self):
        e = np.zeros((self.n, self.n))
        e[:self.d, :self.d] = np.eye(self.d)
        return e


def hamiltonian(plant, y_c):
    """Optimality system ``diag(E, E*) z' = H z + g`` with z = (x, lam) and
    u = -B* lam."""
    a, b, c = plant.A, plant.B, plant.C
    h = np.block([[a, -b @ b.T], [-c.T @ c, -a.T]])
    g = np.concatenate([np.zeros(plant.n), c.T @ y_c])
    return h, g


def reduced_system(plant, y_c):
    """Eliminate the algebraic rows of the optimality system.

    Returns (Hr, gr, L, l) with z_d' = Hr z_d + gr for the differential pair
    z_d = (x1, lam1), and the algebraic pair z_a = (x2, lam2) = L z_d + l.
    """
    n, d = plant.n, plant.d
    h, g = hamiltonian(plant, y_c)
    diff = np.r_[0:d, n:n + d]
    alg = np.r_[d:n, n + d:2 * n]
    h_dd, h_da = h[np.ix_(diff, diff)], h[np.ix_(diff, alg)]
    h_ad, h_aa = h[np.ix_(alg, diff)], h[np.ix_(alg, alg)]
    if alg.size:
        big_l = -np.linalg.solve(h_aa, h_ad)
        small_l = -np.linalg.solve(h_aa, g[alg])
    else:
        big_l, small_l = np.zeros((0, 2 * d)), np.zeros(0)
    return h_dd + h_da @ big_l, g[diff] + h_da @ small_l, big_l, small_l


def _spectral_abscissa(m):
    return float(np.max(np.linalg.eigvals(m).real))


def care_standard(plant):
    """Stabilizing ARE solution of a standard plant with scipy's CARE."""
    a, b, c = plant.A, plant.B, plant.C
    p = sla.solve_continuous_are(a, b, c.T @ c, np.eye(b.shape[1]))
    p = 0.5 * (p + p.T)
    a_cl = a - b @ b.T @ p
    if _spectral_abscissa(a_cl) >= 0.0:
        raise ReferenceError("scipy CARE solution is not stabilizing")
    return p


def stable_subspace_solution(h):
    """X = U21 U11^-1 from the ordered real Schur form of a Hamiltonian;
    ``-h`` gives the anti-stabilizing solution."""
    k = h.shape[0] // 2
    _, u, sdim = sla.schur(h, output="real", sort="lhp")
    if sdim != k:
        raise ReferenceError(f"stable subspace has dimension {sdim}, not {k}")
    x = np.linalg.solve(u[:k, :k].T, u[k:, :k].T).T
    return 0.5 * (x + x.T)


def bracket_verdict(w, s, p):
    """Convergence condition: is I + W (S - P+) invertible?"""
    bracket = np.eye(w.shape[0]) + w @ (s - p)
    sv = np.linalg.svd(bracket, compute_uv=False)
    ratio = sv[-1] / max(sv[0], 1.0)
    if ratio <= SINGULAR_REL:
        return False
    if ratio >= INVERTIBLE_REL:
        return True
    raise ReferenceError(f"bracket singularity undecidable (ratio {ratio:.1e})")


@dataclass(frozen=True)
class AlgebraicReference:
    """Stabilizing solution in the differential block, closed-loop data and
    the convergence verdict for the terminal weight."""

    P1: np.ndarray        # stabilizing solution of the reduced equation
    P_plus: np.ndarray    # assembled [[P1, 0], [P21, P2]]
    A_bar: np.ndarray     # closed loop of the differential block
    W: np.ndarray         # its reachability Gramian
    lam: float            # spectral abscissa of A_bar
    converges: bool


def algebraic(plant):
    """P+, Gramian and convergence verdict.

    A standard plant uses scipy's CARE directly.  A descriptor plant takes
    P1 from the stable Schur subspace of the reduced Hamiltonian; its fast
    block P2 is scipy's stabilizing CARE solution of
    (A22, B2, C2* C2), and the coupling block P21 solves the (2,1) block of
    the generalized ARE, which is linear in P21 once P1 and P2 are known.
    """
    d = plant.d
    s1 = plant.F[:, :d].T @ plant.F[:, :d]
    hr, _, _, _ = reduced_system(plant, np.zeros(plant.C.shape[0]))
    ar, rr = hr[:d, :d], -hr[:d, d:]
    if plant.kind == "ode":
        p1 = care_standard(plant)
        p_plus = p1
    else:
        p1 = stable_subspace_solution(hr)
        p_plus = assemble_descriptor(plant, p1)
    a_bar = ar - rr @ p1
    lam = _spectral_abscissa(a_bar)
    if lam >= 0.0:
        raise ReferenceError("reduced closed loop is not Hurwitz")
    w = sla.solve_continuous_lyapunov(a_bar, -rr)
    w = 0.5 * (w + w.T)
    return AlgebraicReference(P1=p1, P_plus=p_plus, A_bar=a_bar, W=w, lam=lam,
                              converges=bracket_verdict(w, s1, p1))


def fast_block(plant):
    d = plant.d
    a22, b2, c2 = plant.A[d:, d:], plant.B[d:], plant.C[:, d:]
    p2 = sla.solve_continuous_are(a22, b2, c2.T @ c2, np.eye(b2.shape[1]))
    return 0.5 * (p2 + p2.T)


def assemble_descriptor(plant, p1, p2=None):
    """[[P1, 0], [P21, P2]] with P21 from the (2,1) block of the GARE:
    (A22* - P2 B2 B2*) P21 = -(A12* P1 - P2 B2 B1* P1 + P2 A21 + C2* C1)."""
    d, n = plant.d, plant.n
    a, b, c = plant.A, plant.B, plant.C
    if p2 is None:
        p2 = fast_block(plant)
    b1, b2 = b[:d], b[d:]
    k2 = a[d:, d:].T - p2 @ b2 @ b2.T
    rhs = a[:d, d:].T @ p1 - p2 @ b2 @ b1.T @ p1 + p2 @ a[d:, :d] + c[:, d:].T @ c[:, :d]
    p = np.zeros((n, n))
    p[:d, :d] = p1
    p[d:, :d] = -np.linalg.solve(k2, rhs)
    p[d:, d:] = p2
    return p


def gare_residual(plant, p):
    """Relative residual of A*P + P*A - P*BB*P + C*C = 0."""
    a, b, c = plant.A, plant.B, plant.C
    r = a.T @ p + p.T @ a - p.T @ b @ b.T @ p + c.T @ c
    return float(np.linalg.norm(r, "fro") / (1.0 + np.linalg.norm(p, "fro")))


def finite_closed_loop_abscissa(plant, p):
    """Largest real part over the finite generalized eigenvalues of
    (A - BB* P, E)."""
    eigs = sla.eigvals(plant.A - plant.B @ plant.B.T @ p, plant.E)
    finite = eigs[np.isfinite(eigs)]
    if finite.size != plant.d:
        raise ReferenceError(f"closed-loop pencil has {finite.size} finite "
                             f"eigenvalues, expected {plant.d}")
    return float(np.max(finite.real))


def steady_state(plant, y_c):
    """(x_s, u_s) from the steady KKT system
    C*C x + A* lam = C* y_c,  u + B* lam = 0,  A x + B u = 0."""
    a, b, c = plant.A, plant.B, plant.C
    n, m = b.shape
    kkt = np.block([
        [c.T @ c, np.zeros((n, m)), a.T],
        [np.zeros((m, n)), np.eye(m), b.T],
        [a, b, np.zeros((n, n))]])
    rhs = np.concatenate([c.T @ y_c, np.zeros(m + n)])
    z = np.linalg.solve(kkt, rhs)
    return z[:n], z[n:n + m]


@dataclass(frozen=True)
class TrajectoryReference:
    grid: np.ndarray
    x: np.ndarray           # (G, n)
    u: np.ndarray           # (G, m)
    cost: float             # trapezoid rule on the grid, as the package reports
    norm_P: np.ndarray      # (G,) Frobenius norms of the Riccati flow P(t)


def _expm(m, exact):
    if exact:
        return np.array(mp.expm(mp.matrix(m.tolist())).tolist(), dtype=object)
    return sla.expm(m)


def _solve(a, b, exact):
    if exact:
        sol = mp.inverse(mp.matrix(a.tolist())) * mp.matrix(b.tolist())
        return np.array(sol.tolist(), dtype=object).reshape(b.shape)
    return np.linalg.solve(a, b)


def _exact_array(m):
    return np.vectorize(mp.mpf, otypes=[object])(np.asarray(m, dtype=float))


def sweep(plant, x0, y_c, y_e, t1, grid, digits=None):
    """Optimal trajectory and Riccati flow on a uniform grid from the
    two-point boundary-value problem of the (reduced) optimality system.

    Davison-Maki sweep over exact flow maps: with (Phi, phi) the augmented
    ``expm`` of one backward grid step and lam1 = P x1 + w at t + h,
    [x1; lam1](t) = [X xi + a; Y xi + b] gives P(t) = Y X^-1 and
    w(t) = b - P(t) a; the forward pass is x1(t + h) = X^-1 (x1(t) - a).
    ``digits`` switches to mpmath arithmetic with that many digits, for
    problems whose backward flow amplifies rounding (the F = C plant, where
    an unobservable unstable mode grows as e^{4 tau}).
    """
    n, d = plant.n, plant.d
    hr, gr, big_l, small_l = reduced_system(plant, y_c)
    ts = np.linspace(0.0, t1, grid)
    aug = np.zeros((2 * d + 1, 2 * d + 1))
    aug[:2 * d, :2 * d] = hr
    aug[:2 * d, 2 * d] = gr
    f1 = plant.F[:, :d]
    x1 = np.asarray(x0, dtype=float)[:d]
    p, w = f1.T @ f1, -f1.T @ y_e
    exact = digits is not None
    with mp.workdps(digits or 15):
        aug = -(ts[1] - ts[0]) * aug
        if exact:
            aug, p, w, x1 = map(_exact_array, (aug, p, w, x1))
        e = _expm(aug, exact)
        phi11, phi12, phi21, phi22 = (e[:d, :d], e[:d, d:2 * d],
                                      e[d:2 * d, :d], e[d:2 * d, d:2 * d])
        phi1, phi2 = e[:d, 2 * d], e[d:2 * d, 2 * d]
        ps, ws, steps = [p], [w], []
        for _ in range(grid - 1):
            big_x, a = phi11 + phi12 @ p, phi12 @ w + phi1
            big_y, b = phi21 + phi22 @ p, phi22 @ w + phi2
            p = _solve(big_x.T, big_y.T, exact).T
            p = (p + p.T) / 2
            w = b - p @ a
            ps.append(p)
            ws.append(w)
            steps.append((big_x, a))
        ps.reverse()
        ws.reverse()
        steps.reverse()
        xs = [x1]
        for big_x, a in steps:
            xs.append(_solve(big_x, (xs[-1] - a)[:, None], exact)[:, 0])
        x1s = np.array(xs, dtype=float)
        lam1s = np.array([p @ x + w for p, x, w in zip(ps, xs, ws)], dtype=float)
        p1s = np.array(ps, dtype=float)
    z_d = np.hstack([x1s, lam1s])
    z_a = z_d @ big_l.T + small_l
    x = np.hstack([x1s, z_a[:, :n - d]])
    lam = np.hstack([lam1s, z_a[:, n - d:]])
    u = -lam @ plant.B
    y = x @ plant.C.T
    integrand = 0.5 * (np.sum((y - y_c) ** 2, axis=1) + np.sum(u ** 2, axis=1))
    cost = float(np.trapezoid(integrand, ts)) + 0.5 * float(
        np.sum((plant.F @ x[-1] - y_e) ** 2))
    if plant.kind == "dae":
        p2 = fast_block(plant)
        norms = [np.linalg.norm(assemble_descriptor(plant, p1, p2), "fro")
                 for p1 in p1s]
    else:
        norms = np.linalg.norm(p1s, axis=(1, 2))
    return TrajectoryReference(grid=ts, x=x, u=u, cost=cost,
                               norm_P=np.asarray(norms))


def structural_flags(plant):
    """The five flags of ``lqturnpike check`` from their textbook forms for
    a semi-explicit pencil with invertible A22 (every benchmark plant)."""
    d, n = plant.d, plant.n
    a, b = plant.A, plant.B
    if n == d:
        return dict.fromkeys(("regular", "impulse_controllable", "impulse_free",
                              "finite_dynamics_stable", "f_compatible"), True)
    a22 = a[d:, d:]
    impulse_free = bool(np.linalg.svd(a22, compute_uv=False)[-1] > 1e-8)
    if not impulse_free:
        raise ReferenceError("benchmark descriptor plants have invertible A22")
    a_s = a[:d, :d] - a[:d, d:] @ np.linalg.solve(a22, a[d:, :d])
    b_s = b[:d] - a[:d, d:] @ np.linalg.solve(a22, b[d:])
    stabilizable = all(
        np.linalg.svd(np.hstack([lam * np.eye(d) - a_s, b_s]),
                      compute_uv=False)[-1] > 1e-8
        for lam in np.linalg.eigvals(a_s) if lam.real >= 0.0)
    return {"regular": True,
            "impulse_controllable": bool(np.linalg.matrix_rank(
                np.hstack([a22, b[d:]])) == n - d),
            "impulse_free": True,
            "finite_dynamics_stable": bool(stabilizable),
            "f_compatible": bool(np.all(plant.F[:, d:] == 0.0))}
