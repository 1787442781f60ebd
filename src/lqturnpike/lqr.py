"""Affine finite-horizon LQR for standard plants (the d = n case) and
semi-explicit descriptor plants: the optimal-trajectory pipeline, the
steady state, the state decomposition around it and turnpike diagnostics,
all shared by both plant kinds, and for standard plants the feedforward
closed forms, cross-checked against the exact solve of ``integrate``.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .dae_riccati import _full_P, _reduce
from .errors import NumericalError
from .integrate import flow_maps, sweep
from .linalg import EIG_RANK_CUT, as_vector, expm

logger = logging.getLogger(__name__)

_DEGENERATE_DIST = 1e-14
_DIP_FRACTION = 0.05
_C_HAT_INFLATION = 1.05
_MIN_FIT_SAMPLES = 4
_MIN_TURNPIKE_GRID = 16


@dataclass(frozen=True)
class SteadyState:
    """Solution of the steady-state problem min ||Cx - y_c||^2 + ||u||^2
    subject to 0 = Ax + Bu, with its Lagrange multiplier lambda_s =
    P+ x_s + w_s.  ``x_s1``, ``w_s1`` and ``w_s2`` are the state and the
    feedforward split at d (d = n for a standard plant)."""

    x_s: np.ndarray
    u_s: np.ndarray
    w_s: np.ndarray
    lambda_s: np.ndarray
    kkt_residual: float
    d: int

    @property
    def x_s1(self):
        return self.x_s[:self.d]

    @property
    def w_s1(self):
        return self.w_s[:self.d]

    @property
    def w_s2(self):
        return self.w_s[self.d:]


@dataclass(frozen=True)
class FeedforwardTrajectory:
    grid: np.ndarray
    w: np.ndarray            # closed-form w_h + w_p per node
    w_h: np.ndarray
    w_p: np.ndarray
    w_integrated: np.ndarray  # the kernel's w, the cross-check
    max_discrepancy: float


@dataclass(frozen=True)
class OptimalTrajectory:
    """Optimal trajectory on the output grid.  The first ``d`` state and
    feedforward components are the differential block (d = n for a standard
    plant); ``algebraic_residual`` is the largest residual of the algebraic
    equations over the nodes.  ``P1`` and ``P21`` are the differential and
    coupling blocks of the Riccati samples."""

    grid: np.ndarray
    x: np.ndarray           # (G, n)
    u: np.ndarray           # (G, m)
    y: np.ndarray           # (G, k)
    w: np.ndarray           # (G, n) feedforward along the trajectory
    P: np.ndarray           # (G, n, n) Riccati samples [[P1, 0], [P21, P2]]
    cost: float
    d: int
    algebraic_residual: float
    notes: list = field(default_factory=list)

    @property
    def x1(self):
        return self.x[:, :self.d]

    @property
    def x2(self):
        return self.x[:, self.d:]

    @property
    def w1(self):
        return self.w[:, :self.d]

    @property
    def w2(self):
        return self.w[:, self.d:]

    @property
    def P1(self):
        return self.P[:, :self.d, :self.d]

    @property
    def P21(self):
        return self.P[:, self.d:, :self.d]


@dataclass(frozen=True)
class StateDecomposition:
    grid: np.ndarray
    x_h: np.ndarray
    x_s: np.ndarray
    transient: np.ndarray
    g: np.ndarray


@dataclass
class TurnpikeReport:
    x_s: np.ndarray
    u_s: np.ndarray
    lambda_hat: float
    lambda_hat_u: float
    C_hat: float
    max_violation: float
    envelope_holds: bool
    dist_x: np.ndarray
    dist_u: np.ndarray
    envelope: np.ndarray
    notes: list = field(default_factory=list)


def steady_state(plant, are, y_c):
    """Steady-state optimum of either plant kind: x_s = A+^{-1} BB* A+^{-*}
    C* y_c, w_s = A+^{-*} C* y_c, u_s = -B*(P+ x_s + w_s), with the full
    closed loop A+ (invertible, since A+2 is and Abar is stable)."""
    y_c = as_vector(y_c, "y_c", plant.k)
    a, b, c = plant.A, plant.B, plant.C
    cy = c.T @ y_c
    w_s = np.linalg.solve(are.A_plus.T, cy)
    x_s = np.linalg.solve(are.A_plus, b @ (b.T @ w_s))
    u_s = -b.T @ (are.P_plus @ x_s + w_s)
    lambda_s = are.P_plus @ x_s + w_s

    r1 = a @ x_s + b @ u_s
    r2 = a.T @ lambda_s + c.T @ (c @ x_s - y_c)
    r3 = b.T @ lambda_s + u_s
    # Normwise backward error: each row is measured against the magnitudes
    # of the terms that form it, with lambda_s and u_s expanded into the
    # P+ x_s and w_s terms they are computed from, so the rounding of a
    # large P+ does not read as a failed solve.
    norm = np.linalg.norm
    na, nb, nc, nx, n_p = norm(a), norm(b), norm(c), norm(x_s), norm(are.P_plus)
    lam_mag = n_p * nx + norm(w_s)
    scales = (na * nx + nb * nb * lam_mag,
              na * lam_mag + nc * (nc * nx + norm(y_c)),
              nb * lam_mag + norm(u_s))
    resids = [float(norm(r)) for r in (r1, r2, r3)]
    for row, (resid, scale) in enumerate(zip(resids, scales), start=1):
        if resid > 1e-10 * (1.0 + scale):
            raise NumericalError(
                f"steady-state KKT residual {resid:.3e} in row {row} exceeds "
                f"1e-10 x (1 + {scale:.3e}) (||P+||_F = {n_p:.2e})")
    return SteadyState(x_s=x_s, u_s=u_s, w_s=w_s, lambda_s=lambda_s,
                       kkt_residual=max(resids), d=are.partition.d)


def feedforward(delta, y_c, y_e, t1, grid=101):
    """Feedforward w = w_h + w_p of a standard plant (d = n) by the closed
    forms of ``delta`` at every node at once, cross-checked against the
    w of ``optimal_trajectory`` (``integrate.sweep``) on the same grid.  With
    e = e^{tau A+}, tau = t1 - t, and W, S~ at tau (W_inf = Wbar):

        w_h = -e* (I - S~ W) F* y_e,
        w_p = [A+^{-*} (I - e*) - e* S~ (A+^{-1} (I - e) W_inf
               - e W_inf A+^{-*} (I - e*))] C* y_c,

    w_p being the variation-of-constants integral of the adjoint transition
    map.  e at the nodes is the powers of one step's map."""
    g = delta.gare
    plant = g.plant
    n = plant.n
    if g.partition.d != n:
        raise ValueError("feedforward's closed forms need a standard plant "
                         f"(d = n), not d = {g.partition.d} < n = {n}")
    y_c = as_vector(y_c, "y_c", plant.k)
    y_e = as_vector(y_e, "y_e", plant.F.shape[0])
    w_int = optimal_trajectory(plant, np.zeros(n), y_c, y_e, t1, grid).w
    ts = np.linspace(0.0, t1, grid)
    ap, w_inf, ident = g.A_plus, delta.gram_bar.W, np.eye(n)
    # e^{tau A+} at the nodes, in descending tau
    e = flow_maps(expm((ts[1] - ts[0]) * ap), grid - 1)[::-1]
    et = e.transpose(0, 2, 1)
    w_tau = delta.gram_bar._of(e)
    s_tau = delta._slide(w_tau, t1 - ts)
    es = et @ s_tau
    w_h = (es @ w_tau - et) @ (plant.F.T @ y_e)
    back = np.linalg.solve(ap.T, ident - et)
    inner = np.linalg.solve(ap, (ident - e) @ w_inf) - e @ w_inf @ back
    w_p = (back - es @ inner) @ (plant.C.T @ y_c)
    w = w_h + w_p
    return FeedforwardTrajectory(
        grid=ts, w=w, w_h=w_h, w_p=w_p, w_integrated=w_int,
        max_discrepancy=float(np.max(np.linalg.norm(w - w_int, axis=1))))


def optimal_trajectory(plant, x0, y_c, y_e, t1, grid=101):
    """Solve the affine finite-horizon problem for a standard plant (the
    n2 = 0 case) or a semi-explicit descriptor plant.

    One exact dichotomy solve (``integrate.sweep``) of the reduced problem:
    (P1, w1) from P1(t1) = S1, w1(t1) = -F1* y_e under

        -P1dot = At* P1 + P1 At - P1 Rt P1 + Qt,
        -w1dot = (At - Rt P1)* w1 - P1 G z - c_t,

    and x1 forward under x1dot = (At - Rt P1) x1 - Rt w1 - G z, with
    z = B2* K2^{-1} C2* y_c, c_t = C1* y_c - A21* K2^{-1} C2* y_c - g2 z and
    g2 = N* K2^{-*} B2.  Then the slaved blocks at the output nodes:
    P21 = -K2^{-1}(M P1 + N), w2 = K2^{-1}(C2* y_c - M w1),
    x2 = -K2^{-*}[(A21 - B2 L1) x1 - B2 B* w] with L1 = B1* P1 + B2* P21,
    and u = -B*(P x + w).  No algebraic Riccati equation is solved.
    Supplied algebraic initial values are replaced by the consistent ones,
    with a note on the result.
    """
    x0 = as_vector(x0, "x0", plant.n)
    y_c = as_vector(y_c, "y_c", plant.k)
    y_e = as_vector(y_e, "y_e", plant.F.shape[0])
    part, p2, red = _reduce(plant)
    d = part.d

    k2_cy = np.linalg.solve(red.K2, part.C2.T @ y_c)
    z = part.B2.T @ k2_cy
    c_t = part.C1.T @ y_c - part.A21.T @ k2_cy - red.g2 @ z
    ts, p1s, w1, x1s, gap = sweep(red.A_t, red.R_t, red.Q_t, part.S1,
                                  -red.G @ z, c_t, -part.F1.T @ y_e, t1, grid,
                                  x0[:d])

    ps = _full_P(red, p1s, p2)
    w2 = np.linalg.solve(red.K2, (part.C2.T @ y_c - w1 @ red.M.T).T).T
    ws = np.hstack([w1, w2])
    # K2* x2 = -[(A21 - B2 L1) x1 - B2 B* w] with L1 = B* P[:, :d]
    l1 = plant.B.T @ ps[:, :, :d]
    rhs = (np.einsum("tij,tj->ti", part.A21 - part.B2 @ l1, x1s)
           - ws @ plant.B @ part.B2.T)
    xs = np.hstack([x1s, -np.linalg.solve(red.K2.T, rhs.T).T])
    us = -np.einsum("ij,tj->ti", plant.B.T,
                    np.einsum("tij,tj->ti", ps, xs) + ws)

    alg = xs @ plant.A[d:].T + us @ part.B2.T
    alg_resid = float(np.max(np.linalg.norm(alg, axis=1)))
    if alg_resid > 1e-8 * (1.0 + float(np.max(np.abs(x1s), initial=0.0))):
        raise NumericalError(
            f"algebraic constraint residual {alg_resid:.3e} exceeds 1e-8")
    notes = []
    if gap < EIG_RANK_CUT:
        note = (f"unobservable or uncontrollable split has rank gap "
                f"{gap:.1e} < sqrt(eps): a mode that the weights barely see "
                "or the input barely reaches is solved with the rest, and a "
                "relative change of that size in them could split it off and "
                "change the trajectory")
        logger.warning(note)
        notes.append(note)
    if np.any(x0[d:]):
        logger.info("supplied algebraic initial values are overridden by the "
                    "consistency relation")
        notes.append("algebraic initial values recomputed from the "
                     "consistency relation")

    ys = xs @ plant.C.T
    cost = _running_cost(ts, ys, us, y_c) + 0.5 * float(
        np.sum((plant.F @ xs[-1] - y_e) ** 2))
    return OptimalTrajectory(grid=ts, x=xs, u=us, y=ys, w=ws, P=ps,
                             cost=float(cost), d=d, algebraic_residual=alg_resid,
                             notes=notes)


def solve_gdre(plant, t1, grid=101):
    """Backward Riccati solve of either plant kind: the trajectory of
    ``optimal_trajectory`` from x0 = 0 with y_c = y_e = 0, whose P is the
    reduced equation's solution from P1(t1) = S1 with the coupling block
    slaved algebraically and the fast block constant.  P depends on none of
    x0, y_c and y_e.  No algebraic Riccati equation is solved, so plants
    whose slow dynamics cannot be stabilized get their solution too."""
    return optimal_trajectory(plant, np.zeros(plant.n), np.zeros(plant.k),
                              np.zeros(plant.F.shape[0]), t1, grid)


def _running_cost(ts, ys, us, y_c):
    integrand = 0.5 * (np.sum((ys - y_c) ** 2, axis=1) + np.sum(us ** 2, axis=1))
    return float(np.trapezoid(integrand, ts))


def decompose_state(traj, are, steady):
    """Split a trajectory as x = x_h + x_s - transient + g, where x_h is the
    homogeneous solution from the same x0 (y_c = 0, y_e = 0) and
    transient(t) = [I; -A+2^{-1} A+21] e^{t Abar} x_s1; the remainder g
    decays pointwise as the horizon grows."""
    ts = traj.grid
    plant = are.plant
    d = are.partition.d
    x0 = np.zeros(plant.n)
    x0[:d] = traj.x[0, :d]
    x_h = optimal_trajectory(plant, x0, np.zeros(plant.k),
                             np.zeros(plant.F.shape[0]), float(ts[-1]),
                             ts.size).x
    lift = np.vstack([np.eye(d), -np.linalg.solve(are.A_p2, are.A_p21)])
    # e^{t Abar} on the uniform grid: the powers of one step's map
    maps = flow_maps(expm((ts[1] - ts[0]) * are.A_bar), ts.size - 1)
    transient = (maps @ steady.x_s1) @ lift.T
    g = traj.x - x_h - steady.x_s + transient
    return StateDecomposition(grid=ts, x_h=x_h, x_s=steady.x_s,
                              transient=transient, g=g)


def _fit_decay_rate(ts, dist, floor):
    """Least-squares decay rate of log(dist) over the given nodes; NaN
    when fewer than ``_MIN_FIT_SAMPLES`` of them lie above ``floor``.

    Regressors are [1, t, log(1+t)]; the logarithmic term absorbs the
    polynomial envelope t^k e^{lambda t} that defective closed-loop spectra
    produce, which would otherwise bias the slope of a plain linear fit far
    off the spectral abscissa.
    """
    mask = dist > floor
    if int(np.sum(mask)) < _MIN_FIT_SAMPLES:
        return float("nan")
    t = ts[mask]
    z = np.log(dist[mask])
    basis = np.column_stack([np.ones_like(t), t, np.log1p(t)])
    coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
    return float(coef[1])


def _rate_window(ts, dist_x, t1):
    """Node selector for the rate fit: the decaying stretch between the
    initial boundary layer and the mid-horizon dip.

    The boundary layers [0, t1/4] and [3 t1/4, t1] belong to the envelope
    constant, not to the rate, so they are excluded whenever the remaining
    stretch still carries enough nodes; otherwise the head window is used
    (that fallback triggers exactly for non-decaying data, where the sign of
    the fitted slope is all that matters).
    """
    middle = (ts >= t1 / 4.0 - 1e-12) & (ts <= 3.0 * t1 / 4.0 + 1e-12)
    idx = np.where(middle)[0]
    dip = idx[int(np.argmin(dist_x[idx]))]
    window = (ts >= t1 / 4.0 - 1e-12) & (np.arange(ts.size) <= dip)
    if int(np.sum(window)) >= 5:
        return window
    return ts <= t1 / 4.0 + 1e-12


def turnpike_report(traj, steady, lam=None):
    """Turnpike diagnostics for a solved trajectory.

    The decay rate is fitted on the ``_rate_window`` stretch [t1/4, dip]
    between the initial boundary layer and the mid-horizon dip (the head
    window [0, t1/4] only when that stretch is too short); it is NaN when
    too few window samples lie above the degeneracy floor.  The envelope
    constant is the (inflated) global maximum of dist/(e^{lt}+e^{l(t1-t)}).
    ``envelope_holds`` additionally demands that both state and input
    distances decay over the window, or never leave the degeneracy floor
    over the horizon, and that the mid-horizon distance dips
    well below the boundary-layer values; a single-horizon run cannot
    falsify the existence of *some* envelope constant, but it can certify
    the dip.
    """
    ts = traj.grid
    t1 = float(ts[-1])
    dist_x = np.linalg.norm(traj.x - steady.x_s, axis=1)
    dist_u = np.linalg.norm(traj.u - steady.u_s, axis=1)
    scale = 1.0 + float(np.linalg.norm(steady.x_s)) + float(np.max(dist_x, initial=0.0))
    floor = _DEGENERATE_DIST * scale

    report = TurnpikeReport(
        x_s=steady.x_s, u_s=steady.u_s, lambda_hat=0.0, lambda_hat_u=0.0,
        C_hat=0.0, max_violation=0.0, envelope_holds=True,
        dist_x=dist_x, dist_u=dist_u, envelope=np.zeros_like(dist_x))

    if np.max(dist_x, initial=0.0) < floor and np.max(dist_u, initial=0.0) < floor:
        report.notes.append("trajectory coincides with the steady state; "
                            "envelope trivially satisfied")
        return report

    if ts.size < _MIN_TURNPIKE_GRID:
        raise ValueError("grid too coarse for a turnpike fit (need >= "
                         f"{_MIN_TURNPIKE_GRID} nodes)")
    window = _rate_window(ts, dist_x, t1)
    lam_x = _fit_decay_rate(ts[window], dist_x[window], floor)
    lam_u = _fit_decay_rate(ts[window], dist_u[window], floor)
    report.lambda_hat = lam_x
    report.lambda_hat_u = lam_u

    rate = lam_x if lam_x < 0.0 else (lam if lam is not None and lam < 0.0 else None)
    if rate is not None:
        env = np.exp(rate * ts) + np.exp(rate * (t1 - ts))
        dist = np.maximum(dist_x, dist_u)
        # a node where the envelope underflows to 0 and the distance is at
        # the degeneracy floor bounds nothing, so it is left out
        seen = (env > 0.0) | (dist > floor)
        c_hat = _C_HAT_INFLATION * float(np.max(dist[seen] / env[seen]))
        report.C_hat = c_hat
        report.envelope = c_hat * env
        report.max_violation = float(np.max(dist[seen]
                                            - report.envelope[seen]))
    else:
        report.C_hat = float("inf")
        report.envelope = np.full_like(dist_x, np.inf)
        report.max_violation = float("inf")
        report.notes.append("no decaying rate available; envelope undefined")

    middle = (ts > t1 / 4.0) & (ts < 3.0 * t1 / 4.0)
    boundary_peak = max(dist_x[0], dist_x[-1])
    dip_ok = bool(np.min(dist_x[middle], initial=np.inf)
                  <= _DIP_FRACTION * boundary_peak + floor)
    if not dip_ok:
        report.notes.append("mid-horizon state distance does not dip below "
                            "the boundary layers")
    for label, rate_hat in (("state", lam_x), ("input", lam_u)):
        if np.isnan(rate_hat):
            report.notes.append(
                f"{label} distance: fewer than {_MIN_FIT_SAMPLES} window "
                "samples above the degeneracy floor; rate not fitted")
        elif rate_hat >= 0.0:
            report.notes.append(
                f"{label} distance does not decay over the rate window")

    # a distance with no node above the floor over the whole horizon (the
    # input distance of a plant with no input) has nothing left to decay
    decayed = [rate < 0.0 or not np.any(dist > floor)
               for rate, dist in ((lam_x, dist_x), (lam_u, dist_u))]
    report.envelope_holds = bool(all(decayed) and dip_ok)
    return report
