"""Exact solution of the finite-horizon LQ two-point boundary-value problem

    x' = A x - R lam + g,    lam' = -Q x - A* lam + c,
    x(0) = x0,               lam(t1) = S x(t1) + w_end,

on a uniform grid by decoupling (Mattheij, SIAM Rev. 27(1), 1985) in the
negative-exponential form of Vaughan (IEEE TAC 14(1), 1969).

Two orthonormal splits come first.  The unobservable subspace, the largest
A-invariant subspace in ker [Q; S], carries a state x_u that nothing else
sees and on which P vanishes.  The orthogonal complement of the
controllable subspace, the largest A*-invariant subspace in ker R, carries
a costate lam_w that feeds no state.  The core z = (x_o, lam_c, 1) is
closed; x_u and lam_w are driven by it, x_u forward from x0 and lam_w
backward from its terminal value, so rounding feeds no unobserved or
uncontrollable unstable mode into the core.

One real Schur form of the core's Hamiltonian (``linalg.real_schur``),
reordered both ways (``linalg.ordered_basis``), splits it into a group F,
its eigenvalues with real part below a cut in [-4/t1, 0), and a group B,
the rest.  Every core solution is
V_F e^{t T_F} a + V_B e^{-(t1 - t) T_B} b, neither exponential grows by
much more than e^4, and no step count depends on t1 or ||H||.  At
tau = t1 - t the solutions that meet the terminal condition are
V_F y + V_B e^{-tau T_B} beta c over e^{tau T_F} y = alpha c, [alpha; beta]
being [I; S] in the two bases, and P maps their x rows to their lam rows.
Where alpha is well conditioned c = alpha^-1 e^{tau T_F} y (Vaughan);
otherwise the constraint is bordered with the x rows, which needs neither
the convergence condition nor stabilizability.  Where no input reaches the
state at all (lam_c is empty), z = (x_o, 1) is simply stepped forward and
P and w are exact sums over the steps.  x and w come from one boundary
system, the exponentials at the nodes are powers of one step
(``flow_maps``), and x_u and lam_w, and the lam_w rows of the terminal
family, are stepped from node to node by Van Loan block exponentials of
one interval, each sum one doubling recursion (``_scan``).  Every request,
a Riccati flow alone included, enters through ``lqr.optimal_trajectory``,
so each is validated, checked and noted the same way.
"""

import numpy as np

from .errors import NumericalError
from .linalg import expm, ordered_basis, rank_cut, real_schur

# largest condition number of alpha for Vaughan's form, whose P is about
# cond(alpha) eps off; the bordered solve stays accurate beyond it
_MAX_COND = 1e4
# largest |P| taken from the first solve; above it the problem is rescaled
_MAX_P = 1e3


def _null_basis(m, scale=None):
    """Orthonormal basis of the numerical kernel of m: the right singular
    vectors whose singular values are at most the rank cut times scale
    (by default the norm of m).  Also returns the smallest singular value
    kept above the cut, relative to scale (inf when none is kept)."""
    _, sv, vt = np.linalg.svd(m)
    if scale is None:
        scale = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > rank_cut(m.shape) * scale))
    gap = sv[rank - 1] / scale if rank else np.inf
    return vt[rank:].T, gap


def _unobservable_basis(a, m, a_norm):
    """Orthonormal basis of the largest a-invariant subspace in ker m:
    shrink the kernel to the part that a maps back into it until it is
    invariant (at most d rounds), the rank cut relative to a_norm, the
    2-norm of a.  Also returns the rank gap of the split: the smallest
    singular value, relative to its scale, that any round kept out of it
    (inf when none)."""
    basis, gap = _null_basis(m)
    while basis.shape[1]:
        moved = a @ basis
        keep, kept_gap = _null_basis(moved - basis @ (basis.T @ moved),
                                     a_norm)
        gap = min(gap, kept_gap)
        if keep.shape[1] == basis.shape[1]:
            break
        basis = basis @ keep
    return basis, gap


def _completed(basis):
    """Orthonormal basis of the whole space whose trailing columns span
    ``basis``."""
    if not basis.shape[1]:
        return np.eye(len(basis))
    return np.linalg.qr(basis, mode="complete")[0][:, ::-1]


def flow_maps(step, count):
    """The maps step^0, ..., step^count of a uniform grid, (count + 1, n,
    n), from the one-step map by doubling: step^(i + j) = step^i step^j."""
    maps = np.empty((count + 1,) + step.shape)
    maps[0] = np.eye(len(step))
    maps[1:2] = step
    done = 2
    while done <= count:
        more = min(done - 1, count + 1 - done)
        maps[done:done + more] = maps[1:more + 1] @ maps[done - 1]
        done += more
    return maps


def _scan(left, forcing, right=None):
    """The recursion s_0 = f_0, s_i = L s_(i-1) R + f_i over the first axis
    of ``forcing`` (vectors or matrices; R = I when ``right`` is None), by
    doubling: s_i is the sum over j <= i of L^(i-j) f_j R^(i-j)."""
    sums, shift = forcing.copy(), 1
    while shift < len(sums):
        if shift > 1:   # squared only for use: a spare square may overflow
            left = left @ left
            right = None if right is None else right @ right
        moved = _times(left, sums[:-shift])
        if right is not None:
            moved = _times(moved, right)
        sums[shift:] += moved
        shift *= 2
    return sums


def _times(left, right):
    """The product of each matrix of a stack (count, ., .) and a matrix or
    vector, or of a matrix and each matrix or vector of a stack, as one
    matrix product; numpy's stacked products of small matrices cost several
    times more."""
    if left.ndim == 3:
        flat = left.reshape(len(left) * left.shape[1], left.shape[2]) @ right
        return flat.reshape(left.shape[:2] + right.shape[1:])
    if right.ndim == 2:
        return right @ left.T
    return np.moveaxis(np.tensordot(left, right, (1, 1)), 0, 1)


def _van_loan(a, k, t, h):
    """int_0^h e^{(h - s) a} k e^{s t} ds, one block exponential (Van
    Loan, IEEE TAC 23(3), 1978)."""
    block = np.zeros((len(a) + len(t),) * 2)
    block[:len(a), :len(a)], block[:len(a), len(a):] = a, k
    block[len(a):, len(a):] = t
    return expm(h * block)[:len(a), len(a):]


def _forward_integral(a, k, t, h):
    """int_0^h e^{s a} k e^{s t} ds, both exponentials forward in s, by
    scaling and squaring: on a step h / 2^j on which h a and h t are small
    one Van Loan block gives it, and J(2 delta) = J(delta) + e^{delta a}
    J(delta) e^{delta t} doubles the step, so that neither e^{-h a} nor
    e^{-h t} is formed."""
    norm = h * max(np.abs(a).sum(axis=0).max(initial=0.0),
                   np.abs(t).sum(axis=0).max(initial=0.0))
    halvings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    delta = h / 2.0 ** halvings
    e_a, e_t = expm(delta * a), expm(delta * t)
    integral = e_a @ _van_loan(-a, k, t, delta)
    for _ in range(halvings):
        integral = integral + e_a @ integral @ e_t
        e_a, e_t = e_a @ e_a, e_t @ e_t
    return integral


def _split(ham, t1):
    """Ordered Schur bases and blocks (V_F, T_F, V_B, T_B) of ham, the cut
    in the middle of the widest gap between the real parts in [-4/t1, 0):
    one real Schur form, reordered each way."""
    schur = real_schur(ham)
    # the diagonal of a standardized 2 x 2 block holds its real part
    re, low = np.diag(schur[0]), -4.0 / t1
    ends = np.sort(np.append(re[(re > low) & (re < 0.0)], [low, 0.0]))
    gaps = np.diff(ends)
    forward = re < ends[np.argmax(gaps)] + 0.5 * np.max(gaps)
    return (*ordered_basis(schur, forward), *ordered_basis(schur, ~forward))


def sweep(a, r, q, s, g, c, w_end, t1, grid, x0):
    """Solve the boundary-value problem above from ``x0`` on ``grid``
    uniform nodes from 0 to t1.

    Returns (nodes, P, w, x, gap): the ascending nodes, the (grid, d, d)
    Riccati samples, the (grid, d) feedforward and state samples, and the
    smallest rank gap of the splits (see ``_unobservable_basis``).

    Where P comes out large, the problem is solved once more in the
    coordinates x = D xi, lam = D^-1 mu, D diagonal with D P D at most
    one on its diagonal: the x rows of the orthonormal Schur bases carry
    about eps ||P|| relative error, and P = D^-1 P_xi D^-1 keeps its digits.
    That pass decides its splits anew; the gap is the smaller of both's.
    """
    nodes, ps, ws, xs, gap = _dichotomy(a, r, q, s, g, c, w_end, t1, grid, x0)
    if np.abs(ps).max(initial=0.0) <= _MAX_P:
        return nodes, ps, ws, xs, gap
    diag = np.sqrt(np.maximum(np.abs(ps).max(axis=0).diagonal(), 1.0))
    outer = np.outer(diag, diag)
    _, ps, ws, xs, gap_d = _dichotomy(
        a * diag[:, None] / diag, r * outer, q / outer, s / outer, g * diag,
        c / diag, w_end / diag, t1, grid, x0 * diag)
    return nodes, ps * outer, ws * diag, xs / diag, min(gap, gap_d)


def _dichotomy(a, r, q, s, g, c, w_end, t1, grid, x0):
    """``sweep`` in the given coordinates."""
    if grid < 2:
        raise ValueError("grid must have at least 2 nodes")
    if not t1 > 0.0:
        raise ValueError("t1 must be positive")
    d = a.shape[0]
    a_norm = np.linalg.norm(a, 2)
    x_split, gap_x = _unobservable_basis(a, np.vstack([q, s]), a_norm)
    lam_split, gap_lam = _unobservable_basis(a.T, r, a_norm)
    do, dc = d - x_split.shape[1], d - lam_split.shape[1]
    # x = v (x_o, x_u) and lam = u (lam_c, lam_w); x_o sees no x_u, lam_c
    # no lam_w, Q no x_u and R no lam_w
    v, u = _completed(x_split), _completed(lam_split)
    a_v, a_u = v.T @ a @ v, u.T @ a.T @ u
    a_v[:do, do:] = 0.0
    a_u[:dc, dc:] = 0.0
    ham = np.zeros((2 * d + 1, 2 * d + 1))
    ham[:d, :d] = a_v
    ham[:d, d:d + dc] = -v.T @ r @ u[:, :dc]
    ham[d:2 * d, :do] = -u.T @ q @ v[:, :do]
    ham[d:2 * d, d:2 * d] = -a_u
    ham[:d, -1], ham[d:2 * d, -1] = v.T @ g, u.T @ c
    # the terminal condition lam(t1) = s_z z(t1) on z = (x_o, lam_c, 1)
    core = np.r_[0:do, d:d + dc, 2 * d]
    s_z = np.hstack([u.T @ s @ v[:, :do], np.zeros((d, dc)),
                     (u.T @ w_end)[:, None]])
    s_c, s_w = s_z[:dc], s_z[dc:]

    n, h, steps = len(core), t1 / (grid - 1), grid - 1
    if dc:
        v_f, t_f, v_b, t_b = _split(ham[np.ix_(core, core)], t1)
    else:
        # no input reaches the state: z = (x_o, 1) is stepped forward, and
        # lam = lam_w = P x + w follows by the exact sums below
        v_f, t_f = np.eye(n), ham[np.ix_(core, core)]
        v_b, t_b = np.zeros((n, 0)), np.zeros((0, 0))
    # (alpha, beta): the terminal subspace z = (x_o, s_c z, 0) in the bases
    z1 = np.zeros((n, do))
    z1[:do] = np.eye(do)
    z1[do:-1] = s_c[:, :do]
    try:
        alpha, beta = np.split(np.linalg.solve(np.hstack([v_f, v_b]), z1),
                               [v_f.shape[1]])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Schur basis is singular: {exc}") from exc
    n_f = len(t_f)
    vaughan = do and n_f == do and np.linalg.cond(alpha) <= _MAX_COND
    gen = np.zeros((n, n))
    gen[:n_f, :n_f], gen[n_f:, n_f:] = h * t_f, -h * t_b
    maps = flow_maps(expm(gen), steps)
    e_f, e_b = maps[:, :n_f, :n_f], maps[:, n_f:, n_f:]

    # lam_w over one interval from its end, driven by the core's modes:
    # lam_w(t) = ew lam_w(t + h) + gw_f y_F(t) + gw_b y_B(t + h); its rows
    # of the terminal family at tau = m h are lam_w = mw_m y + lw_m c, so
    # [mw, lw]_m = ew [mw, lw]_(m-1) diag(e^{h T_F}, I) + [gw_f, gw_b
    # e^{-(m-1) h T_B} beta], from s_w [V_F, V_B beta]
    kw = d - dc
    lam_ww, k_w = ham[d + dc:2 * d, d + dc:2 * d], ham[d + dc:2 * d, core]
    rows_w = np.zeros((grid, kw, n_f + do))
    if kw:
        ew = expm(-h * lam_ww)
        gw_f = -_forward_integral(-lam_ww, k_w @ v_f, t_f, h)
        gw_b = -_van_loan(-lam_ww, k_w @ v_b, -t_b, h)
        rows_w[0] = np.hstack([s_w @ v_f, s_w @ v_b @ beta])
        rows_w[1:, :, :n_f] = gw_f
        rows_w[1:, :, n_f:] = _times(gw_b, _times(e_b[:-1], beta))
        right = np.eye(n_f + do)
        right[:n_f, :n_f] = e_f[1]
        rows_w = _scan(ew, rows_w, right)
    mw, lw = rows_w[:, :, :n_f], rows_w[:, :, n_f:]

    # P maps the x_o rows of the terminal family to its (lam_c, lam_w) rows
    try:
        if not dc:
            p_tau = mw[:, :, :do]            # the family is y = (x_o, 0)
        elif not do:
            p_tau = np.zeros((grid, d, 0))
        elif vaughan:
            # Vaughan: c = alpha^-1 e^{tau T_F} y leaves y free, and
            # P* = X^-* L* over the rows [X; L] of V_F + V_B gamma y (and of
            # mw y + lw c for lam_w)
            c_of_y = np.linalg.inv(alpha)
            gamma = _times(e_b, beta @ c_of_y) @ e_f
            rows_t = v_f[:-1].T + _times(gamma.transpose(0, 2, 1), v_b[:-1].T)
            if kw:
                c_of_y = c_of_y @ e_f
                rows_t = np.concatenate(
                    [rows_t, (mw + lw @ c_of_y).transpose(0, 2, 1)], axis=2)
            p_tau = np.linalg.solve(rows_t[:, :, :do], rows_t[:, :, do:])
            p_tau = p_tau.transpose(0, 2, 1)
        else:
            # (y, c) on the null space of [e^{tau T_F}, -alpha], bordered so
            # that the x rows are the identity; one step of refinement makes
            # it componentwise accurate (Skeel, Math. Comp. 35(151), 1980)
            fam = np.empty((grid, n - 1 + kw, n_f + do))
            fam[:, :n - 1, :n_f] = v_f[:-1]
            fam[:, :n - 1, n_f:] = _times(v_b[:-1], _times(e_b, beta))
            fam[:, n - 1:] = rows_w
            bordered = np.empty((grid, do + n_f, n_f + do))
            bordered[:, :do] = fam[:, :do]
            bordered[:, do:, :n_f], bordered[:, do:, n_f:] = e_f, -alpha
            inv = np.linalg.inv(bordered)
            p_tau = fam[:, do:] @ inv
            p_tau += (fam[:, do:] - p_tau @ bordered) @ inv
            p_tau = p_tau[:, :, :do]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dichotomy solve failed: {exc}") from exc
    ps = p_tau[::-1]                         # ascending t, rows (lam_c, lam_w)
    ps[-1] = s_z[:, :do]                     # the terminal weight itself

    # the core solutions from x0 and from 0, on which lam = w, by the
    # boundary system (x_o, 1) at 0 and lam_c - s_c z at t1 for (a, b), its
    # rows and then its columns equilibrated
    z0 = v.T @ x0
    bnd = np.empty((n, n))
    bnd[:do + 1] = np.hstack([v_f, v_b @ e_b[-1]])[np.r_[0:do, n - 1]]
    bnd[do + 1:] = (np.hstack([-s_c[:, :do], np.eye(dc), -s_c[:, -1:]])
                    @ np.hstack([v_f @ e_f[-1], v_b]))
    rhs = np.zeros((n, 2))
    rhs[:do, 0], rhs[do] = z0[:do], 1.0
    rows = np.abs(bnd).max(axis=1, keepdims=True) + np.finfo(float).tiny
    cols = np.abs(bnd / rows).max(axis=0)
    try:
        ab = np.linalg.solve(bnd / rows / cols, rhs / rows) / cols[:, None]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dichotomy boundary system is singular: {exc}"
                             ) from exc
    # (solution, node, mode), ascending t
    y_f = np.moveaxis(_times(e_f, ab[:n_f]), 2, 0).copy()
    y_b = np.moveaxis(_times(e_b, ab[n_f:]), 2, 0)[:, ::-1].copy()
    zs = y_f @ v_f.T + y_b @ v_b.T

    lams = zs[1, :, do:-1]
    if kw:
        # lam_w backward from s_w z(t1), stepped as above, from 0
        lw_forcing = np.vstack([s_w @ zs[1, -1], y_f[1, -2::-1] @ gw_f.T
                                + y_b[1, :0:-1] @ gw_b.T])
        lams = np.hstack([lams, _scan(ew, lw_forcing)[::-1]])
    ws = (lams - np.einsum("tij,tj->ti", ps, zs[1, :, :do])) @ u.T
    p_out = ps
    if do < d or dc < d:
        # back from the split bases; P vanishes on the unobservable subspace
        # from either side, so the rows along it are dropped, not rounded
        p_out = _times(v[:, :do], _times(v[:, :do].T @ u, ps) @ v[:, :do].T)
    p_out = 0.5 * (p_out + p_out.transpose(0, 2, 1))

    # x_u forward from x0 unless x0, g, c and w_end are zero (so is x_u):
    # x_u(t + h) = eu x_u(t) + gu_f y_F(t) + gu_b y_B(t + h)
    xs = zs[0, :, :do]
    if do < d and (x0.any() or g.any() or c.any() or w_end.any()):
        a_uu, k_u = ham[do:d, do:d], ham[do:d, core]
        gu_f = _van_loan(a_uu, k_u @ v_f, t_f, h)
        gu_b = _forward_integral(a_uu, k_u @ v_b, -t_b, h)
        xu_forcing = np.vstack([z0[do:], y_f[0, :-1] @ gu_f.T
                                + y_b[0, 1:] @ gu_b.T])
        xs = np.hstack([xs, _scan(expm(h * a_uu), xu_forcing)])
    xs = np.vstack([x0, xs[1:] @ v[:, :xs.shape[1]].T])
    if not (np.isfinite(p_out).all() and np.isfinite(ws).all()
            and np.isfinite(xs).all()):
        raise NumericalError("dichotomy solution became non-finite")
    return np.linspace(0.0, t1, grid), p_out, ws, xs, min(gap_x, gap_lam)
