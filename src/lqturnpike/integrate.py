"""Exact stepping of the finite-horizon LQ two-point boundary-value problem

    x' = A x - R lam + g,    lam' = -Q x - A* lam + c,
    x(0) = x0,               lam(t1) = S x(t1) + w_end,

on a uniform grid.  All coefficients are constant, so one ``expm`` of the
augmented Hamiltonian is the exact flow map of every grid interval, and its
powers, built by doubling, are the maps over i intervals.  The Riccati
solution P and the feedforward w of lam = P x + w are stepped backward by a
blocked Davison-Maki sweep (Davison and Maki, IEEE TAC 18(1), 1973): every
node of a block is one exact map away from the block's top (latest) node,
where the sweep is reinitialised.  A block's length times ||H||_1 is at
most 4, so that no map grows by much more than e^4; bounded spans are all
that reinitialisation needs (Kenney and Leipnik, IEEE TAC 30(10), 1985).
So each block costs one batched product and one batched inverse, not a
Python step per node.  The state goes forward over the same maps, one block
at a time.  A coarse output grid takes several steps per interval, each
within the same bound, and then one step per block.

P vanishes on the unobservable subspace, the largest A-invariant subspace
in ker [Q; S], and rounding must not feed an unstable mode there into the
observable part.  So the sweep runs in an orthonormal basis that splits that
subspace off: P and the observable state x_o are stepped over the
Hamiltonian restricted to (x_o, lam), in which x_o sees no unobservable
state, and the unobservable state x_u over the full forward map.
"""

import numpy as np

from .errors import NumericalError
from .linalg import expm, rank_cut

# largest span, length times ||H||_1, of one flow map: the maps' growth
# e^{span} stays small, so the sweep loses no digits on long horizons
_MAX_STEP_NORM = 4.0
# most steps in one block, so that the stack of maps stays small
_MAX_BLOCK = 256


def _null_basis(m, scale):
    """Orthonormal basis of the numerical kernel of m: the right singular
    vectors whose singular values are at most the rank cut times scale.
    Also returns the smallest singular value kept above the cut, relative
    to scale (inf when none is kept)."""
    _, sv, vt = np.linalg.svd(m)
    rank = int(np.sum(sv > rank_cut(m.shape) * scale))
    gap = sv[rank - 1] / scale if rank else np.inf
    return vt[rank:].T, gap


def _unobservable_basis(a, q, s):
    """Orthonormal basis of the largest a-invariant subspace in ker [q; s]:
    shrink the kernel to the part that a maps back into it until it is
    invariant (at most d rounds).  Also returns the rank gap of the split:
    the smallest singular value, relative to its scale, that any round kept
    as observable (inf when none)."""
    m = np.vstack([q, s])
    basis, gap = _null_basis(m, np.linalg.norm(m, 2))
    scale = np.linalg.norm(a, 2)
    while basis.shape[1]:
        moved = a @ basis
        keep, kept_gap = _null_basis(moved - basis @ (basis.T @ moved), scale)
        gap = min(gap, kept_gap)
        if keep.shape[1] == basis.shape[1]:
            break
        basis = basis @ keep
    return basis, gap


def flow_maps(step, count):
    """The maps step^1, ..., step^count of a uniform grid, (count, n, n),
    from the one-step map by doubling: step^(i + j) = step^i step^j."""
    maps = np.empty((count,) + step.shape)
    maps[0] = step
    done = 1
    while done < count:
        more = min(done, count - done)
        maps[done:done + more] = maps[:more] @ maps[done - 1]
        done += more
    return maps


def _affine_map(ham, t):
    """expm(t ham) of an augmented Hamiltonian whose last row is zero, with
    its affine row set to the exact [0 ... 0 1]."""
    e = expm(t * ham)
    e[-1] = 0.0
    e[-1, -1] = 1.0
    return e


def sweep(a, r, q, s, g, c, w_end, t1, grid, x0=None):
    """Solve the boundary-value problem above on ``grid`` uniform nodes from
    0 to t1.

    Returns (nodes, P, w, x, gap): the ascending nodes, the (grid, d, d)
    Riccati samples, the (grid, d) feedforward samples, when ``x0`` is given
    the (grid, d) state samples (otherwise None), and the rank gap of the
    unobservable split (see ``_unobservable_basis``).
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 nodes")
    if not t1 > 0.0:
        raise ValueError("t1 must be positive")
    d = a.shape[0]
    u_basis, gap = _unobservable_basis(a, q, s)
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

    # Steps of length h, with h ||H_o||_1 <= _MAX_STEP_NORM (m steps per
    # output interval), grouped into blocks of at most `span` steps whose
    # span obeys the same bound.  Every node of a block is one exact map
    # Phi(-ih) = expm(-ih H_o) away from the block's top node.
    obs = np.r_[0:do, d:2 * d + 1]
    ham_o = ham[np.ix_(obs, obs)]
    norm = np.linalg.norm(ham_o, 1)
    m = max(1, int(np.ceil(t1 / (grid - 1) * norm / _MAX_STEP_NORM)))
    steps = (grid - 1) * m
    h = t1 / steps
    span = min(steps, _MAX_BLOCK)
    if norm:
        span = min(span, max(1, int(_MAX_STEP_NORM // (h * norm))))
    e = _affine_map(ham_o, -h)
    e[do + do:-1, :2 * do] = 0.0             # lam_u sees neither x_o nor lam_o
    phi = flow_maps(e, span)[:, :-1]
    tops = range(steps, 0, -span)

    # backward over (x_o, lam, 1): with lam(top) = P x_o(top) + w,
    # Phi(-ih) [I 0; P w; 0 1] = [X xa; Y b] gives x_o(top - ih) =
    # X x_o(top) + xa and lam(top - ih) = Y x_o(top) + b, so that
    # P(top - ih) = Y X^-1 and w(top - ih) = b - P xa: one batched product
    # and one batched inverse per block.  Forming Y X^-1 keeps the tiny
    # entries of P along a nearly unobservable unstable mode accurate: solving
    # X* P = Y* instead put x of F = [1e-10, sqrt 3] on the 2x2 running
    # example at t1 = 40 up to 4e-6 off.
    ps = np.empty((steps + 1, do, do))
    ws = np.empty((steps + 1, d))
    xm = np.empty((steps, do, do + 1))       # [X xa] from each node's top
    x_inv = np.empty((steps, do, do))
    ps[-1] = v_o.T @ s @ v_o
    ws[-1] = v.T @ w_end
    aug = np.zeros((do + d + 1, do + 1))
    aug[:do, :do] = np.eye(do)
    aug[-1, -1] = 1.0
    try:
        for top in tops:
            lo = top - min(span, top)
            aug[do:2 * do, :do] = ps[top]
            aug[do:-1, -1] = ws[top]
            img = phi[:top - lo] @ aug
            xm[lo:top] = img[::-1, :do]
            x_inv[lo:top] = np.linalg.inv(xm[lo:top, :, :do])
            p = img[::-1, do:2 * do, :do] @ x_inv[lo:top]
            ps[lo:top] = 0.5 * (p + p.transpose(0, 2, 1))
            ws[lo:top] = img[::-1, do:, do]
            ws[lo:top, :do] -= (ps[lo:top] @ xm[lo:top, :, do:])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"backward sweep failed: {exc}") from exc
    if not (np.all(np.isfinite(ps)) and np.all(np.isfinite(ws))):
        raise NumericalError("backward sweep became non-finite")

    nodes = np.linspace(0.0, t1, grid)
    p_out = v_o @ ps[::m] @ v_o.T
    p_out = 0.5 * (p_out + p_out.transpose(0, 2, 1))
    w_out = ws[::m] @ v.T
    if x0 is None:
        return nodes, p_out, w_out, None, gap

    # forward, block by block: x_o at the top node through X^-1 of the
    # bottom node, the nodes below it by the block's maps; x_u over the full
    # forward maps Phi(ih) = expm(ih H) from the bottom node, fed with
    # lam = P x_o + w there
    z = np.empty((steps + 1, d))
    z[0] = v.T @ x0
    psi = flow_maps(_affine_map(ham, h), span)[:, do:d] if k else None
    for top in reversed(tops):
        lo = top - min(span, top)
        z[top, :do] = x_inv[lo] @ (z[lo, :do] - xm[lo, :, do])
        z[lo + 1:top, :do] = (xm[lo + 1:top, :, :do] @ z[top, :do]
                              + xm[lo + 1:top, :, do])
        if k:
            lam = ws[lo].copy()
            lam[:do] += ps[lo] @ z[lo, :do]
            z[lo + 1:top + 1, do:] = psi[:top - lo] @ np.concatenate(
                [z[lo], lam, [1.0]])
    if not np.all(np.isfinite(z)):
        raise NumericalError("forward state pass became non-finite")
    x_out = z[::m] @ v.T
    x_out[0] = x0
    return nodes, p_out, w_out, x_out, gap
