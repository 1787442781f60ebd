"""Exact stepping of the finite-horizon LQ two-point boundary-value problem

    x' = A x - R lam + g,    lam' = -Q x - A* lam + c,
    x(0) = x0,               lam(t1) = S x(t1) + w_end,

on a uniform grid.  All coefficients are constant, so one ``expm`` of the
augmented Hamiltonian is the exact flow map of every grid interval.  The
Riccati solution P and the feedforward w of lam = P x + w are stepped
backward by a Davison-Maki sweep reinitialised at every node (Davison and
Maki, IEEE TAC 18(1), 1973; Kenney and Leipnik, IEEE TAC 30(10), 1985), and
the state forward over the same maps.  A coarse output grid takes several
steps per interval, so that no step's map grows by much more than e^4.

P vanishes on the unobservable subspace, the largest A-invariant subspace
in ker [Q; S], and rounding must not feed an unstable mode there into the
observable part.  So the sweep runs in an orthonormal basis that splits that
subspace off: P and the observable state x_o are stepped over the
Hamiltonian restricted to (x_o, lam), in which x_o sees no unobservable
state, and the unobservable state x_u over the full forward map.
"""

import numpy as np

from .errors import NumericalError
from .linalg import DEFAULT_TOL, expm, sym

# largest h ||H||_1 of one step: the flow maps' growth e^{h ||H||} stays
# small, so the sweep loses no digits on coarse output grids
_MAX_STEP_NORM = 4.0


def _null_basis(m, scale, tol):
    """Orthonormal basis of the numerical kernel of m: the right singular
    vectors whose singular values are at most the rank cut times scale."""
    _, sv, vt = np.linalg.svd(m)
    rank = int(np.sum(sv > tol.rank_cut(m.shape) * scale))
    return vt[rank:].T


def _unobservable_basis(a, q, s, tol):
    """Orthonormal basis of the largest a-invariant subspace in ker [q; s]:
    shrink the kernel to the part that a maps back into it until it is
    invariant (at most d rounds)."""
    m = np.vstack([q, s])
    basis = _null_basis(m, np.linalg.norm(m, 2), tol)
    scale = np.linalg.norm(a, 2)
    while basis.shape[1]:
        moved = a @ basis
        keep = _null_basis(moved - basis @ (basis.T @ moved), scale, tol)
        if keep.shape[1] == basis.shape[1]:
            break
        basis = basis @ keep
    return basis


def sweep(a, r, q, s, g, c, w_end, t1, grid, x0=None, tol=DEFAULT_TOL):
    """Solve the boundary-value problem above on ``grid`` uniform nodes from
    0 to t1.

    Returns (nodes, P, w, x): the ascending nodes, the (grid, d, d) Riccati
    samples, the (grid, d) feedforward samples and, when ``x0`` is given,
    the (grid, d) state samples (otherwise None).
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 nodes")
    if not t1 > 0.0:
        raise ValueError("t1 must be positive")
    d = a.shape[0]
    u_basis = _unobservable_basis(a, q, s, tol)
    k = u_basis.shape[1]
    do = d - k
    # the orthonormal basis v = [v_o, v_u]; the identity when everything is
    # observable
    v = (np.linalg.qr(u_basis, mode="complete")[0][:, ::-1] if k
         else np.eye(d))
    v_o = v[:, :do]
    a_v = v.T @ a @ v
    a_v[:do, do:] = 0.0                      # x_o' sees no x_u
    q_v = np.zeros((d, d))
    q_v[:do, :do] = v_o.T @ q @ v_o
    ham = np.zeros((2 * d + 1, 2 * d + 1))
    ham[:d, :d], ham[:d, d:2 * d], ham[:d, -1] = a_v, -v.T @ r @ v, v.T @ g
    ham[d:2 * d, :d], ham[d:2 * d, d:2 * d], ham[d:2 * d, -1] = (
        -q_v, -a_v.T, v.T @ c)

    # backward sweep over (x_o, lam, 1): with lam(t + h) = P x_o(t + h) + w,
    # x_o(t) = X x_o(t + h) + xa and lam(t) = Y x_o(t + h) + b, so that
    # P(t) = Y X^-1 and x_o(t + h) = X^-1 (x_o(t) - xa).  Each
    # output interval takes m steps, so that h ||H||_1 <= _MAX_STEP_NORM.
    obs = np.r_[0:do, d:2 * d + 1]
    ham_o = ham[np.ix_(obs, obs)]
    m = max(1, int(np.ceil(t1 / (grid - 1) * np.linalg.norm(ham_o, 1)
                           / _MAX_STEP_NORM)))
    steps = (grid - 1) * m
    h = t1 / steps
    e = expm(-h * ham_o)
    e[do + do:-1, :2 * do] = 0.0             # lam_u sees neither x_o nor lam_o
    ex, ey = e[:do], e[do:-1]
    ps = np.empty((steps + 1, do, do))
    ws = np.empty((steps + 1, d))
    x_inv = np.empty((steps, do, do))
    xa = np.empty((steps, do))
    ps[-1] = v_o.T @ s @ v_o
    ws[-1] = v.T @ w_end
    try:
        for j in range(steps - 1, -1, -1):
            p, w = ps[j + 1], ws[j + 1]
            x_inv[j] = np.linalg.inv(ex[:, :do] + ex[:, do:2 * do] @ p)
            xa[j] = ex[:, do:-1] @ w + ex[:, -1]
            ps[j] = sym((ey[:do, :do] + ey[:do, do:2 * do] @ p) @ x_inv[j])
            ws[j] = ey[:, do:-1] @ w + ey[:, -1]
            ws[j, :do] -= ps[j] @ xa[j]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"backward sweep failed: {exc}") from exc
    if not (np.all(np.isfinite(ps)) and np.all(np.isfinite(ws))):
        raise NumericalError("backward sweep became non-finite")

    nodes = np.linspace(0.0, t1, grid)
    p_out = v_o @ ps[::m] @ v_o.T
    p_out = 0.5 * (p_out + p_out.transpose(0, 2, 1))
    w_out = ws[::m] @ v.T
    if x0 is None:
        return nodes, p_out, w_out, None

    # forward: x_o over the restricted maps, x_u over the full forward map
    # fed with lam = P x_o + w at each node
    z = np.empty((steps + 1, d))
    z[0] = v.T @ x0
    ef = expm(h * ham)[do:d] if k else None
    for j in range(steps):
        z[j + 1, :do] = x_inv[j] @ (z[j, :do] - xa[j])
        if k:
            lam = ws[j].copy()
            lam[:do] += ps[j] @ z[j, :do]
            z[j + 1, do:] = ef[:, :d] @ z[j] + ef[:, d:-1] @ lam + ef[:, -1]
    if not np.all(np.isfinite(z)):
        raise NumericalError("forward state pass became non-finite")
    x_out = z[::m] @ v.T
    x_out[0] = x0
    return nodes, p_out, w_out, x_out
