"""Dense real linear-algebra kernel: matrix exponential, Lyapunov and
algebraic Riccati solvers, rank and spectral helpers.

The solvers are scipy's Schur-based routines: ``scipy.linalg.expm``,
Bartels-Stewart (LAPACK trsyl) on one real Schur form of the coefficient
matrix (``real_schur``), whose diagonal also decides the Hurwitz check and
which a caller that already holds it passes in, and for the Riccati
equation that form of the Hamiltonian, its eigenvalues read off it,
reordered by LAPACK trsen (``ordered_basis``), the two steps by which the
dichotomy kernel of ``integrate`` splits its Hamiltonian too.
Everything operates on plain 2-D numpy arrays of float64.  All functions are
pure; solvers validate their own contracts (residual bounds, stability of the
closed loop) before returning.

The numerical policy is fixed: Lyapunov and Riccati residuals are bounded
by ``RESIDUAL_TOL``, a reduced state weight may fall ``PSD_SLACK`` below
semidefinite, and ``rank_svd`` and ``is_singular`` cut singular values at
``rank_cut(shape)`` relative to the largest one.  A rank decided at a
computed eigenvalue, which is accurate to about sqrt(eps) relative, cuts at
``EIG_RANK_CUT`` instead.
"""

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import AssumptionViolation, DimensionError, NumericalError

EPS = float(np.finfo(np.float64).eps)
RESIDUAL_TOL = 1e-8  # residual bound, relative to 1 + ||solution||_F
PSD_SLACK = 1e-9     # semidefiniteness slack, relative to max(1, ||.||_2)
EIG_RANK_CUT = float(np.sqrt(EPS))  # rank cut at a computed eigenvalue,
                                    # relative to max(1, ||.||_2)
_NEWTON_STEPS = 12   # most Kleinman steps of the ARE residual polish


def rank_cut(shape):
    """Relative singular-value cutoff, eps * max(shape), for a matrix of the
    given shape."""
    return EPS * max(*shape, 1)


def is_singular(m):
    """smallest singular value <= rank cut x max(1, ||.||_2), for m or for
    each matrix of a stack m; an empty matrix is not singular."""
    if not m.size:
        return False
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[..., -1] <= rank_cut(m.shape[-2:]) * np.maximum(1.0, sv[..., 0])


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise DimensionError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name="vector", size=None):
    """Validate and return ``a`` as a finite 1-D float array (of ``size``)."""
    v = np.atleast_1d(np.asarray(a, dtype=float)).ravel()
    if size is not None and v.size != size:
        raise ValueError(f"{name} has size {v.size}, expected {size}")
    if v.size and not np.all(np.isfinite(v)):
        raise DimensionError(f"{name} contains non-finite entries")
    return v


def _require_square(m, name):
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")


def sym(m):
    """Symmetric part (used as a drift projection after matrix updates)."""
    return 0.5 * (m + m.T)


def expm(m):
    """Matrix exponential (scipy's scaling-and-squaring Pade, Al-Mohy and
    Higham 2009)."""
    a = as_matrix(m, "expm argument")
    _require_square(a, "expm argument")
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    return sla.expm(a)


def spectral_abscissa(m):
    """Maximum real part over the eigenvalues of a square matrix."""
    a = as_matrix(m, "spectral_abscissa argument")
    _require_square(a, "spectral_abscissa argument")
    if a.shape[0] == 0:
        return -np.inf
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(eigs.real))


def rank_svd(m):
    """Numerical rank: number of singular values above the relative cutoff."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"rank_svd needs a 2-D array, got shape {a.shape}")
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_cut(a.shape) * sv[0]))


def real_schur(a):
    """Real Schur form (T, Z) of a square matrix, A = Z T Z*: one LAPACK
    gees, whose 2x2 diagonal blocks are standardized to [[r, b], [c, r]]
    with b c < 0, so the diagonal of T holds the real parts of the
    eigenvalues."""
    try:
        return sla.schur(a, output="real")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"real Schur decomposition failed: {exc}") from exc


def ordered_basis(schur, select):
    """Leading Schur vectors and block (Z1, T11) of the real Schur form
    ``schur`` = (T, Z) reordered by LAPACK's trsen so that the eigenvalues
    marked by ``select`` (one flag per diagonal entry, equal on each 2x2
    block) come first: Z1 spans their invariant subspace."""
    t_s, z_s, *_, info = sla.lapack.dtrsen(select, *schur, job="N")
    if info:
        raise NumericalError(f"Schur reordering failed (info {info})")
    count = int(np.sum(select))
    return z_s[:, :count], t_s[:count, :count]


def schur_abscissa(t):
    """Spectral abscissa read off a real Schur factor T."""
    return float(np.max(np.diag(t), initial=-np.inf))


def schur_eigvals(t):
    """Eigenvalues read off a real Schur factor T: the diagonal, and
    r +- i sqrt(|b|) sqrt(|c|) at each standardized 2x2 block, as LAPACK's
    dlanv2 forms them."""
    lam = np.diag(t).astype(complex)
    k = np.flatnonzero(np.diag(t, -1))
    im = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
    lam[k] += 1j * im
    lam[k + 1] -= 1j * im
    return lam


def solve_lyapunov(a_stable, q_sym):
    """Solve ``A X + X A* + Q = 0`` for symmetric X by the Bartels-Stewart
    method (real Schur form of A, then a quasi-triangular Sylvester solve;
    O(n^3) time, O(n^2) memory).

    ``A`` must be Hurwitz, which the diagonal of its Schur form decides;
    Q is symmetrized on input.
    """
    a = as_matrix(a_stable, "A")
    _require_square(a, "A")
    return hurwitz_lyapunov(a, q_sym, real_schur(a))


def hurwitz_lyapunov(a, q_sym, schur):
    """``solve_lyapunov`` on a validated square A whose real Schur form
    (T, Z) is given: refused as ``stability`` where the diagonal of T has
    an entry >= -rank_cut x ||A||_1, zero to rounding."""
    q = as_matrix(q_sym, "Q")
    _require_square(q, "Q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise DimensionError(f"Q has shape {q.shape}, expected {(n, n)}")
    if n == 0:
        return np.zeros((0, 0))
    if schur_abscissa(schur[0]) >= -rank_cut(a.shape) * np.linalg.norm(a, 1):
        raise AssumptionViolation(
            "stability", "Lyapunov solve requires a Hurwitz coefficient matrix")
    return bartels_stewart(a, q, schur)


def bartels_stewart(a, q, schur):
    """Symmetric X with ``A X + X A* + Q = 0`` from the real Schur form
    ``schur`` = (T, Z) of A, its residual checked; the caller makes sure
    that no two eigenvalues of A sum to zero.  Q is symmetrized on input.
    The Sylvester solve on T (LAPACK trsyl) and the back-transform are the
    steps of scipy's ``solve_continuous_lyapunov``, so X is the same to the
    bit."""
    q = sym(q)
    t, z = schur
    f = z.T.dot((-q).dot(z))
    y, scale, info = sla.lapack.dtrsyl(t, t, f, tranb="T")
    if info < 0:
        raise NumericalError(f"trsyl argument {-info} is illegal")
    if info == 1:
        warnings.warn("two eigenvalues of A sum to zero to working precision; "
                      "trsyl perturbed them", RuntimeWarning, stacklevel=2)
    y *= scale
    x = sym(z.dot(y).dot(z.T))
    resid = np.linalg.norm(a @ x + x @ a.T + q, "fro")
    if resid > RESIDUAL_TOL * (1.0 + np.linalg.norm(x, "fro")):
        raise NumericalError(
            f"Lyapunov residual {resid:.3e} exceeds tolerance")
    return x


def _are_residual(a, bbt, q, p):
    return a.T @ p + p @ a - p @ bbt @ p + q


def _kleinman_refine(a, bbt, q, p0):
    """Newton (Kleinman) refinement of an approximately stabilizing ARE
    solution; each step is one Lyapunov solve with the current closed loop,
    and stops where that solve refuses it as not Hurwitz.

    Returns the iterate with the smallest residual.  Quadratically
    convergent, so one or two steps repair the accuracy that the subspace
    extraction loses at defective Hamiltonian eigenvalues.
    """
    best_p = p0
    best_res = np.linalg.norm(_are_residual(a, bbt, q, p0), "fro")
    p = p0
    for _ in range(_NEWTON_STEPS):
        try:
            p_next = sym(solve_lyapunov((a - bbt @ p).T, q + p @ bbt @ p))
        except (NumericalError, AssumptionViolation):
            break
        res = np.linalg.norm(_are_residual(a, bbt, q, p_next), "fro")
        improved = res < best_res
        if improved:
            best_p, best_res = p_next, res
        if not improved or res <= 100.0 * EPS * (1.0 + np.linalg.norm(p_next, "fro")):
            break
        p = p_next
    return best_p


def solve_are_q(a, bbt, q):
    """Stabilizing solution of ``A*X + XA - X BB* X + Q = 0`` with
    ``BB*``, ``Q`` symmetric PSD, via the stable invariant subspace of the
    Hamiltonian ``[[A, -BB*], [-Q, -A*]]`` plus Newton residual polish.

    The subspace basis is the leading n Schur vectors of the Hamiltonian's
    real Schur form ordered with the open left half-plane first (Laub's
    method, IEEE TAC 24(6), 1979).  It is orthonormal, so it stays well
    conditioned at defective closed-loop eigenvalues, and cond(X11) of its
    upper block measures how ill-conditioned P+ = X21 X11^{-1} is.
    """
    a = as_matrix(a, "A")
    bbt = sym(as_matrix(bbt, "BB*"))
    q = sym(as_matrix(q, "Q"))
    _require_square(a, "A")
    n = a.shape[0]
    if bbt.shape != (n, n) or q.shape != (n, n):
        raise DimensionError("ARE coefficient shapes are inconsistent")
    if n == 0:
        return np.zeros((0, 0))

    schur = real_schur(np.block([[a, -bbt], [-q, -a.T]]))
    eigvals = schur_eigvals(schur[0])
    on_axis = np.abs(eigvals.real) <= 1e-9 * (1.0 + np.abs(eigvals))
    if np.any(on_axis):
        raise AssumptionViolation(
            "stabilizing-solution",
            "Hamiltonian has eigenvalues on the imaginary axis")
    stable = eigvals.real < 0.0
    n_stable = int(np.sum(stable))
    if n_stable != n:
        raise AssumptionViolation(
            "stabilizing-solution",
            f"stable Hamiltonian subspace has dimension {n_stable}, expected {n}")

    z1 = ordered_basis(schur, stable)[0]
    x11, x21 = z1[:n], z1[n:]
    sv = np.linalg.svd(x11, compute_uv=False)
    if sv[-1] == 0.0:
        raise AssumptionViolation(
            "stabilizing-solution",
            "stable-subspace basis X11 is exactly singular (no stabilizing "
            "solution for the given data)")
    cond_x11 = sv[0] / sv[-1]
    if cond_x11 > 1e12:
        raise NumericalError(
            f"stable-subspace basis has cond(X11) = {cond_x11:.2e} > "
            "1e12; the stabilizing solution is too ill-conditioned to compute")
    p = sym(np.linalg.solve(x11.T, x21.T).T)
    p = _kleinman_refine(a, bbt, q, p)

    resid = np.linalg.norm(_are_residual(a, bbt, q, p), "fro")
    norm_p = np.linalg.norm(p, "fro")
    if resid > RESIDUAL_TOL * (1.0 + norm_p):
        raise NumericalError(
            f"ARE residual {resid:.3e} exceeds tolerance (||P||_F = "
            f"{norm_p:.2e}, cond(X11) = {cond_x11:.2e})")
    if spectral_abscissa(a - bbt @ p) >= 0.0:
        raise AssumptionViolation(
            "stabilizing-solution", "computed solution fails to stabilize the closed loop")
    return p
