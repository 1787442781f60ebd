"""Independent brute-force verifier: direct transcription of the
finite-horizon problems into an equality-constrained QP solved through one
banded KKT system.

Standard plants (d = n, also a descriptor plant with E = I) use
implicit-midpoint dynamics (second order, controls at interval midpoints);
descriptor plants with d < n use trapezoidal collocation on the
differential rows with the algebraic rows pinned exactly at every node
(controls at nodes).  Each scheme is assembled once as COO triplets by
vectorised index arithmetic.  Every KKT unknown carries a time-stage key;
sorted by it (multipliers of x(0), then x_0, u_0 with the algebraic rows of
node 0, the interval-0 multipliers, x_1, ...) the KKT matrix is banded with
bandwidth about 2n + m (Rao, Wright and Rawlings, J. Optim. Theory Appl.
99(3), 1998), and one general band LU with partial pivoting (LAPACK gbsv,
``scipy.linalg.solve_banded``) solves it.  The permutation is the only
structure used: there is no stage-wise elimination, which keeps this path
entirely independent of the Riccati machinery it is used to check.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalError
from .linalg import as_vector, rank_svd
from .plants import DescriptorPlant

_RANK_CHECK_MAX_N = 200  # full row-rank audit (dense SVD of G) only at small sizes
_KKT_RESIDUAL_MAX = 1e-9
_MIN_STEPS = 50


@dataclass(frozen=True)
class DiscretizedLQ:
    """Assembled equality-constrained QP: minimize 1/2 z*Hz - f*z + const
    subject to G z = b.

    ``discretize`` returns dense H and G; the solver path keeps them as
    COO triplets ``(rows, cols, vals)``, summed where they repeat.
    """

    N: int
    h: float
    H: np.ndarray
    G: np.ndarray
    f: np.ndarray
    b: np.ndarray
    const: float
    n: int
    m: int
    kind: str            # "ode" (midpoint controls) or "dae" (node controls)
    d: int = 0           # differential order (dae only)


@dataclass(frozen=True)
class OracleSolution:
    grid: np.ndarray       # node times, ascending
    x: np.ndarray          # (N+1, n)
    u: np.ndarray          # controls: (N+1, m) at nodes or (N, m) at midpoints
    u_times: np.ndarray
    cost: float
    kkt_residual: float
    kkt_dim: int           # size of the square KKT matrix
    kkt_nnz: int           # its stored nonzeros
    kkt_bandwidth: tuple[int, int]   # (kl, ku) of the stage-ordered band
    # descriptor plants: largest change the boundary extrapolation made to
    # the raw QP controls at nodes 0 and N (None for standard plants; NaN
    # where A22 is singular and they keep the raw values, first order in h)
    boundary_u_shift: float | None


def discretize(plant, x0, y_c, y_e, t1, N):
    """Build the QP for one scenario with dense H and G.  See the module
    docstring for the schemes."""
    disc, _ = _assemble(plant, x0, y_c, y_e, t1, N)
    nz = disc.f.size
    return replace(disc, H=_dense(disc.H, (nz, nz)),
                   G=_dense(disc.G, (disc.b.size, nz)))


def _trapezoid_weights(N, h):
    w = np.full(N + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _tile(block, rows, cols, scale=1.0):
    """COO triplets of one copy of ``block`` per top-left corner
    ``(rows[k], cols[k])``, copy k multiplied by ``scale[k]``."""
    r, c = np.nonzero(block)
    rows = np.asarray(rows)[:, None]
    cols = np.asarray(cols)[:, None]
    vals = np.multiply.outer(np.broadcast_to(scale, rows.shape[:1]), block[r, c])
    return (rows + r).ravel(), (cols + c).ravel(), vals.ravel()


def _triplets(parts):
    """One ``(rows, cols, vals)`` triplet from the list ``parts``."""
    return tuple(np.concatenate(p) for p in zip(*parts))


def _scatter(index, vals, shape):
    """A zero array of ``shape`` with ``vals`` summed in at the flat
    ``index``."""
    size = int(np.prod(shape))
    return np.bincount(index, weights=vals, minlength=size).reshape(shape)


def _dense(trip, shape):
    rows, cols, vals = trip
    return _scatter(rows * shape[1] + cols, vals, shape)


def _assemble(plant, x0, y_c, y_e, t1, N):
    """The QP of ``discretize`` with H and G as COO triplets, and the stage
    key of every KKT unknown: z, then the multipliers."""
    if N < _MIN_STEPS:
        raise ValueError(f"N must be at least {_MIN_STEPS}")
    if not isinstance(plant, DescriptorPlant):
        raise TypeError(f"unsupported plant type {type(plant).__name__}")
    x0 = as_vector(x0, "x0", plant.n)
    y_c = as_vector(y_c, "y_c", plant.k)
    y_e = as_vector(y_e, "y_e", plant.F.shape[0])
    n, m, h = plant.n, plant.m, t1 / N
    wq = _trapezoid_weights(N, h)
    if plant.d == n:
        kind, d, wu = "ode", 0, np.full(N, h)     # controls at midpoints
        g_parts, b, g_stage = _ode_constraints(plant, x0, N, h)
    else:
        kind, d, wu = "dae", plant.d, wq          # controls at the nodes
        g_parts, b, g_stage = _dae_constraints(plant, x0, N, h)

    nx = n * (N + 1)
    nz = nx + m * wu.size
    nodes = n * np.arange(N + 1)
    controls = nx + m * np.arange(wu.size)
    H = _triplets([_tile(plant.C.T @ plant.C, nodes, nodes, wq),
                   _tile(plant.F.T @ plant.F, [N * n], [N * n]),
                   _tile(np.eye(m), controls, controls, wu)])
    f = np.zeros(nz)
    f[:nx] = np.multiply.outer(wq, plant.C.T @ y_c).ravel()
    f[N * n:nx] += plant.F.T @ y_e
    const = 0.5 * float(np.sum(wq)) * float(y_c @ y_c) + 0.5 * float(y_e @ y_e)
    # x_k at stage 3k + 1, u_k at 3k + 2, interval-k multipliers at 3k + 3
    stage = np.concatenate([np.repeat(3 * np.arange(N + 1) + 1, n),
                            np.repeat(3 * np.arange(wu.size) + 2, m), g_stage])
    disc = DiscretizedLQ(N=N, h=h, H=H, G=_triplets(g_parts), f=f, b=b,
                         const=const, n=n, m=m, kind=kind, d=d)
    return disc, stage


def _ode_constraints(plant, x0, N, h):
    """Implicit midpoint: x(0) = x0 and, on every interval j,
    (I - hA/2) x_{j+1} - (I + hA/2) x_j - h B u_{j+1/2} = 0."""
    n, m = plant.n, plant.m
    nx = n * (N + 1)
    j = np.arange(N)
    rows = n + n * j
    eye = np.eye(n)
    half_a = 0.5 * h * plant.A
    parts = [_tile(eye, [0], [0]),
             _tile(-eye - half_a, rows, n * j),
             _tile(eye - half_a, rows, n * (j + 1)),
             _tile(-h * plant.B, rows, nx + m * j)]
    b = np.zeros(nx)
    b[:n] = x0
    return parts, b, np.repeat(np.r_[0, 3 * j + 3], n)


def _dae_constraints(plant, x0, N, h):
    """Trapezoidal collocation for the descriptor problem.

    The differential rows are discretized by the trapezoid rule while the
    algebraic rows are pinned exactly at every node, so states and controls
    both live at the nodes and the constraint ``0 = A21 x1 + A22 x2 + B2 u``
    holds to solver precision everywhere.  (A plain one-sided scheme leaves
    an O(h) control error whose constant on the reference problems exceeds
    the verification budget at the prescribed step counts.)  Only the
    differential part of x(0) is prescribed; the algebraic initial values
    are unknowns fixed by the node-0 algebraic rows.

    Rows: the d initial conditions, then d rows per interval, then n - d
    algebraic rows per node (at the stage of that node's control).
    """
    n, m, d = plant.n, plant.m, plant.d
    nx = n * (N + 1)
    j = np.arange(N)
    k = np.arange(N + 1)
    diff_rows = d + d * j
    alg_rows = d * (N + 1) + (n - d) * k
    sel = np.eye(d, n)
    half_a = 0.5 * h * plant.A[:d, :]
    half_b = -0.5 * h * plant.B[:d, :]
    parts = [_tile(np.eye(d), [0], [0]),
             _tile(-sel - half_a, diff_rows, n * j),
             _tile(sel - half_a, diff_rows, n * (j + 1)),
             _tile(half_b, diff_rows, nx + m * j),
             _tile(half_b, diff_rows, nx + m * (j + 1)),
             _tile(plant.A[d:, :], alg_rows, n * k),
             _tile(plant.B[d:, :], alg_rows, nx + m * k)]
    b = np.zeros(nx)
    b[:d] = x0[:d]
    stage = np.concatenate([np.repeat(np.r_[0, 3 * j + 3], d),
                            np.repeat(3 * k + 2, n - d)])
    return parts, b, stage


def transcribe_and_solve(plant, x0, y_c, y_e, t1, N):
    """Discretize and solve the equality-constrained QP by one band LU with
    partial pivoting of its stage-ordered KKT matrix.

    Refused with ``NumericalError`` when the constraint rows are rank
    deficient (audited by SVD up to N = 200), when the LU meets an exactly
    singular pivot, or when the relative KKT residual is not below 1e-9.
    """
    disc, stage = _assemble(plant, x0, y_c, y_e, t1, N)
    nz, nc = disc.f.size, disc.b.size
    if N <= _RANK_CHECK_MAX_N and rank_svd(_dense(disc.G, (nc, nz))) < nc:
        raise NumericalError("rank-deficient KKT system (structural "
                             "assumptions violated)")
    (hr, hc, hv), (gr, gc, gv) = disc.H, disc.G
    rows = np.concatenate([hr, gr + nz, gc])
    cols = np.concatenate([hc, gc, gr + nz])
    vals = np.concatenate([hv, gv, gv])
    dim = nz + nc
    rhs = np.concatenate([disc.f, disc.b])
    # one permutation of rows and columns: unknown order[j] goes to place j
    order = np.argsort(stage, kind="stable")
    pos = np.argsort(order)
    pr, pc = pos[rows], pos[cols]
    kl, ku = int(np.max(pr - pc)), int(np.max(pc - pr))
    band = _scatter((ku + pr - pc) * dim + pc, vals, (kl + ku + 1, dim))
    nnz = int(np.count_nonzero(band))
    try:
        sol = solve_banded((kl, ku), band, rhs[order], overwrite_ab=True,
                           overwrite_b=True)[pos]
    except np.linalg.LinAlgError as exc:   # gbsv: an exactly zero pivot
        raise NumericalError(f"rank-deficient KKT system: {exc}") from exc
    kkt_sol = np.bincount(rows, weights=vals * sol[cols], minlength=dim)
    resid = float(np.linalg.norm(kkt_sol - rhs) / (1.0 + np.linalg.norm(rhs)))
    if not resid <= _KKT_RESIDUAL_MAX:   # also refuses a NaN residual
        raise NumericalError(
            f"KKT residual {resid:.3e} exceeds {_KKT_RESIDUAL_MAX:.0e}")

    z = sol[:nz]
    n, m, h = disc.n, disc.m, disc.h
    grid = np.linspace(0.0, t1, N + 1)
    nx = n * (N + 1)
    xs = z[:nx].reshape(N + 1, n).copy()
    us = z[nx:].reshape(-1, m).copy()
    shift = None
    if disc.kind == "dae":
        u_times = grid.copy()
        d = disc.d
        shift = 0.0
        # Boundary-node controls are tied to one-sided interval multipliers
        # (and, for nonzero C2, to an h-amplified algebraic multiplier),
        # which leaves them an order behind the interior; report the
        # boundary limits by quadratic extrapolation and keep the algebraic
        # rows consistent with the reported controls.
        part = plant.partition()
        u_first = 3.0 * us[1] - 3.0 * us[2] + us[3]
        u_last = 3.0 * us[-2] - 3.0 * us[-3] + us[-4]
        try:
            for j, uj in ((0, u_first), (N, u_last)):
                x2j = -np.linalg.solve(
                    part.A22, part.A21 @ xs[j, :d] + part.B2 @ uj)
                shift = max(shift, float(np.max(np.abs(uj - us[j]))))
                us[j] = uj
                xs[j, d:] = x2j
        except np.linalg.LinAlgError:
            shift = float("nan")   # singular A22: the raw QP values stay
    else:
        u_times = grid[:-1] + 0.5 * h
    cost = 0.5 * float(hv @ (z[hr] * z[hc])) - float(disc.f @ z) + disc.const
    return OracleSolution(grid=grid, x=xs, u=us, u_times=u_times,
                          cost=float(cost), kkt_residual=resid, kkt_dim=dim,
                          kkt_nnz=nnz, kkt_bandwidth=(kl, ku),
                          boundary_u_shift=shift)
