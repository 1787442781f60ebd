import numpy as np
import pytest
from scipy.integrate import solve_ivp

import lqturnpike as lt
from lqturnpike.errors import DimensionError
from lqturnpike.linalg import as_matrix, sym

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)

# hand-derived reference data for the 2x2 running example
P_PLUS_ABC = np.array([[64.0, -16.0], [-16.0, 13.0]]) / 9.0
A_PLUS_ABC = np.array([[-10.0, 1.0], [-16.0, -2.0]]) / 3.0
W_ABC = np.array([[5.0 / 32.0, 1.0 / 16.0], [1.0 / 16.0, 1.0 / 4.0]])
X_S_ABC = np.array([-SQRT3 / 8.0, SQRT3 / 4.0])      # for y_c = 1
U_S_ABC = np.array([SQRT3 / 4.0])
W_S_ABC = np.array([4.0 * SQRT3 / 3.0, -5.0 * SQRT3 / 6.0])


def integrate(field, y0, t0, t1, grid, rtol=1e-12):
    """Independent cross-check: ``dy/dt = field(t, y)`` for an array-valued
    y from t0 to t1 (either direction) by scipy's DOP853, sampled on a
    uniform grid of ``grid`` nodes.  Returns (ts, ys)."""
    y0 = np.asarray(y0, dtype=float)
    ts = np.linspace(t0, t1, grid)
    sol = solve_ivp(lambda t, y: np.ravel(field(t, y.reshape(y0.shape))),
                    (t0, t1), y0.ravel(), method="DOP853", t_eval=ts,
                    rtol=rtol, atol=rtol * 1e-2)
    assert sol.success, sol.message
    return ts, sol.y.T.reshape((grid,) + y0.shape)


def riccati_field(plant):
    """Right side of -Pdot = A*P + PA - P BB* P + C*C of a standard plant as
    a (t, P) -> Pdot field."""
    a, b, c = plant.A, plant.B, plant.C

    def field(_t, p):
        return -(a.T @ p + p @ a - p @ b @ b.T @ p + c.T @ c)

    return field


def min_eig_sym(m):
    """Smallest eigenvalue of a symmetric matrix (a PSD assertion)."""
    a = as_matrix(m, "min_eig_sym argument")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"min_eig_sym argument must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        return np.inf
    if np.linalg.norm(a - a.T, np.inf) > 1e-12 * (1.0 + np.linalg.norm(a, np.inf)):
        raise DimensionError("min_eig_sym requires a symmetric matrix")
    return float(np.linalg.eigvalsh(sym(a))[0])


def gdre_fd_residual(dre, plant):
    """Centered finite-difference defect of a Riccati trajectory on its
    interior nodes against -E* Pdot = A* P + P* A - P* BB* P + C*C, with
    E = diag(I_d, 0) (E = I for a standard plant).

    Returns (residual, bound).  The bound is the h^2 truncation term of the
    centered difference, estimated from second differences of the algebraic
    right side, plus a floor of 1e-7 relative to max ||P|| and 1e-9
    absolute; the truncation term dominates on any coarse output grid.
    """
    a, b, c = plant.A, plant.B, plant.C
    grid, ps = dre.grid, dre.P
    e = np.eye(plant.n)
    e[dre.d:] = 0.0
    pt = ps.transpose(0, 2, 1)
    slopes = -(a.T @ ps + pt @ a - pt @ (b @ b.T) @ ps + c.T @ c)
    h = grid[1] - grid[0]
    defect = e @ (ps[2:] - ps[:-2]) / (2.0 * h) - slopes[1:-1]
    resid = float(np.max(np.linalg.norm(defect, axis=(1, 2))))
    # |fd - Pdot| <= h^2/6 max|P'''|; P''' estimated by second differences of Pdot
    d2rhs = np.abs(slopes[2:] - 2.0 * slopes[1:-1] + slopes[:-2]) / h ** 2
    p3 = float(np.max(np.linalg.norm(d2rhs, axis=(1, 2)))) if len(d2rhs) else 0.0
    scale = 1.0 + float(np.max(np.linalg.norm(ps, axis=(1, 2))))
    bound = (h ** 2 / 6.0) * p3 * 2.0 + 1e-7 * scale + 1e-9
    return resid, bound


def all_ok(rep):
    """Every flag of a ``StructuralReport`` is set."""
    return (rep.regular and rep.impulse_controllable and rep.impulse_free
            and rep.finite_dynamics_stable and rep.f_compatible)


@pytest.fixture(scope="session")
def abc_fperp():
    """Running 2x2 example with the terminal weight complementary to C."""
    return lt.LtiPlant(A=np.diag([2.0, -1.0]), B=np.array([[1.0], [1.0]]),
                       C=np.array([[0.0, SQRT3]]),
                       F=np.array([[SQRT3, 0.0]]))


@pytest.fixture(scope="session")
def abc_fc():
    """Same plant with the terminal weight along the output row."""
    return lt.LtiPlant(A=np.diag([2.0, -1.0]), B=np.array([[1.0], [1.0]]),
                       C=np.array([[0.0, SQRT3]]),
                       F=np.array([[0.0, SQRT3]]))


@pytest.fixture(scope="session")
def ref_dae():
    """Scalar-reducible descriptor reference plant."""
    return lt.DescriptorPlant(E=np.diag([1.0, 0.0]), A=np.diag([1.0, -1.0]),
                              B=np.array([[1.0], [1.0]]),
                              C=np.array([[1.0, 0.0]]),
                              F=np.array([[1.0, 0.0]]))


@pytest.fixture(scope="session")
def are_abc(abc_fperp):
    return lt.solve_gare(abc_fperp)


@pytest.fixture(scope="session")
def gram_abc(are_abc, abc_fperp):
    return lt.gramians(are_abc, abc_fperp.B)


@pytest.fixture(scope="session")
def gare_ref(ref_dae):
    return lt.solve_gare(ref_dae)
