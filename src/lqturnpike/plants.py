"""Plant definitions (standard and descriptor form) and structural checks
on the blocks that E = diag(I_d, 0) guarantees: pencil regularity, impulse
controllability (rank [A22, B2] = n - d), impulse-freeness (A22 invertible),
terminal-weight compatibility, and stabilizability of the finite dynamics
(the ``finite_dynamics_stable`` flag: a Hautus test, one SVD at each
unstable real finite pencil eigenvalue that QZ finds and one per complex
conjugate pair).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError
from .linalg import (EIG_RANK_CUT, _require_square, as_matrix, is_singular,
                     rank_cut, rank_svd)

# the fixed shifts of the randomized regularity probe
_REGULARITY_SHIFTS = np.random.default_rng(20160817).uniform(-10.0, 10.0, 20)
_F_COMPAT_ATOL = 1e-12


@dataclass(frozen=True)
class DescriptorPlant:
    """Semi-explicit descriptor plant ``E xdot = A x + B u`` with
    ``E = diag(I_d, 0)`` exactly, running output ``C x`` and terminal
    weight ``F``."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        e = as_matrix(self.E, "E")
        a = as_matrix(self.A, "A")
        b = as_matrix(self.B, "B")
        c = as_matrix(self.C, "C")
        f = as_matrix(self.F, "F")
        _require_square(a, "A")
        n = a.shape[0]
        if e.shape != (n, n):
            raise DimensionError(f"E has shape {e.shape}, expected {(n, n)}")
        if b.shape[0] != n:
            raise DimensionError(f"B has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionError(f"C has {c.shape[1]} columns, expected {n}")
        if f.shape[1] != n:
            raise DimensionError(f"F has {f.shape[1]} columns, expected {n}")
        d = _semi_explicit_order(e)
        for name, m in (("E", e), ("A", a), ("B", b), ("C", c), ("F", f)):
            object.__setattr__(self, name, m)
        object.__setattr__(self, "_d", d)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def k(self):
        return self.C.shape[0]

    @property
    def d(self):
        """Number of differential variables (size of the identity block)."""
        return self._d

    @property
    def terminal_weight(self):
        """S = F*F, the quadratic terminal cost matrix."""
        return self.F.T @ self.F

    def partition(self):
        d = self.d
        return SemiExplicitPartition(
            d=d,
            A11=self.A[:d, :d], A12=self.A[:d, d:],
            A21=self.A[d:, :d], A22=self.A[d:, d:],
            B1=self.B[:d, :], B2=self.B[d:, :],
            C1=self.C[:, :d], C2=self.C[:, d:],
            S1=self.terminal_weight[:d, :d], F1=self.F[:, :d],
        )


class LtiPlant(DescriptorPlant):
    """Standard state-space plant ``xdot = A x + B u``: the descriptor plant
    with E = I (d = n, no algebraic block)."""

    def __init__(self, A, B, C, F):
        a = as_matrix(A, "A")
        super().__init__(E=np.eye(a.shape[0]), A=a, B=B, C=C, F=F)


def _semi_explicit_order(e):
    """Return d such that E == diag(I_d, 0) exactly, else raise."""
    n = e.shape[0]
    diag = np.diag(e)
    d = int(np.sum(diag == 1.0))
    expected = np.zeros_like(e)
    expected[:d, :d] = np.eye(d)
    if not np.array_equal(e, expected):
        raise DimensionError(
            "E must equal diag(I_d, 0) exactly (no equivalence transformation "
            "is applied)")
    return d


@dataclass(frozen=True)
class SemiExplicitPartition:
    """Blocks of (A, B, C) and the terminal weight conforming with
    ``E = diag(I_d, 0)``."""

    d: int
    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    S1: np.ndarray
    F1: np.ndarray


@dataclass
class StructuralReport:
    regular: bool = False
    impulse_controllable: bool = False
    impulse_free: bool = False
    finite_dynamics_stable: bool = False
    f_compatible: bool = False
    notes: list = field(default_factory=list)

    def all_ok(self):
        return (self.regular and self.impulse_controllable
                and self.impulse_free and self.finite_dynamics_stable
                and self.f_compatible)


def check_pencil_regular(e, a):
    """Probabilistic regularity test: sE - A is not singular at one of 20
    fixed random real shifts s in [-10, 10], as in every solve.

    A shift that lands near an eigenvalue of the pencil is passed over, so
    an unlucky shift does not produce a false negative; a uniformly singular
    pencil fails every shift.
    """
    e = as_matrix(e, "E")
    a = as_matrix(a, "A")
    if e.shape != a.shape or e.shape[0] != e.shape[1]:
        raise DimensionError("E, A must be square of equal size")
    return any(not is_singular(s * e - a) for s in _REGULARITY_SHIFTS)


def check_impulse_controllable(e, a, b):
    """rank [A22, B2] == n - d for E = diag(I_d, 0) exactly, else
    DimensionError (Bender and Laub, IEEE TAC 32(8), 1987); for that E it
    is rank [[E, 0, 0], [A, E, B]] == n + rank E."""
    e = as_matrix(e, "E")
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    d = _semi_explicit_order(e)
    return rank_svd(np.hstack([a[d:, d:], b[d:]])) == e.shape[0] - d


def check_impulse_free(e, a):
    """Impulse controllability with no input: A22 invertible."""
    e = as_matrix(e, "E")
    return check_impulse_controllable(e, a, np.zeros((e.shape[0], 0)))


def check_F_compatible(e, f):
    """range F* within range E*; for semi-explicit E this means the trailing
    n - d columns of F vanish."""
    e = as_matrix(e, "E")
    f = as_matrix(f, "F")
    d = _semi_explicit_order(e)
    return bool(np.all(np.abs(f[:, d:]) <= _F_COMPAT_ATOL))


def _finite_dynamics_stabilizable(e, a, b):
    """Hautus test at the unstable finite eigenvalues of the regular pencil
    sE - A, found by QZ: rank [lam E - A, B] == n for every finite lam with
    Re lam >= 0, where rank < n means sigma_min <= ``EIG_RANK_CUT`` x
    max(1, sigma_max), the accuracy of a computed eigenvalue.  Real QZ
    returns a complex pair as conjugates to within rounding, and
    [conj(lam) E - A, B] is the conjugate of [lam E - A, B], with the same
    singular values, so only the member with Im lam > 0 is tested."""
    n = e.shape[0]
    alpha, beta = sla.eigvals(a, e, homogeneous_eigvals=True)
    finite = np.abs(beta) > rank_cut((n, n)) * np.abs(alpha)
    for lam in alpha[finite] / beta[finite]:
        if lam.real < 0.0 or lam.imag < 0.0:
            continue
        sv = np.linalg.svd(np.hstack([lam * e - a, b]), compute_uv=False)
        if sv[-1] <= EIG_RANK_CUT * max(1.0, sv[0]):
            return False
    return True


def structural_report(plant):
    """Run all structural checks on a descriptor plant; failures are recorded
    as flags/notes, never raised.

    The ``finite_dynamics_stable`` flag records stabilizability of the slow
    dynamics (the solvability precondition); stability itself is certified on
    the closed loop once a stabilizing Riccati solution is in hand.
    """
    rep = StructuralReport()
    e, a, b, f = plant.E, plant.A, plant.B, plant.F

    rep.regular = check_pencil_regular(e, a)
    if not rep.regular:
        rep.notes.append("pencil sE - A appears singular; remaining checks skipped")
        return rep

    rep.impulse_controllable = check_impulse_controllable(e, a, b)
    if not rep.impulse_controllable:
        rep.notes.append("system is not impulse controllable")
    rep.impulse_free = check_impulse_free(e, a)
    if not rep.impulse_free:
        rep.notes.append("open-loop pair is not impulse-free (closed loop may "
                         "still be, via the Riccati gain)")
    rep.f_compatible = check_F_compatible(e, f)
    if not rep.f_compatible:
        rep.notes.append("terminal weight F acts on algebraic variables "
                         "(range F* not within range E*)")
    rep.finite_dynamics_stable = _finite_dynamics_stabilizable(e, a, b)
    if not rep.finite_dynamics_stable:
        rep.notes.append("slow dynamics not stabilizable")
    rep.notes.append("finite_dynamics_stable records stabilizability of the "
                     "slow dynamics; closed-loop stability is verified at the "
                     "Riccati stage")
    return rep

