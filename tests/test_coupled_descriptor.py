"""End-to-end checks on a fully coupled 4x4 descriptor instance: every
off-diagonal block of the partition is nonzero, so the coupling block P21,
the cross terms of the reduced coefficients, and the algebraic feedforward
path are all exercised with non-scalar data.
"""

import numpy as np
import pytest

import lqturnpike as lt

from conftest import all_ok, gdre_fd_residual, integrate

E = np.zeros((4, 4))
E[:2, :2] = np.eye(2)
A = np.array([
    [-0.5, 0.3, 0.2, -0.1],
    [0.1, -0.8, 0.4, 0.3],
    [0.1, 0.2, -1.2, 0.2],
    [-0.3, 0.1, 0.1, -0.9]])
B = np.array([[1.0, 0.0], [0.5, 1.0], [0.3, 0.1], [0.2, 0.4]])
C = np.array([[1.0, 0.5, 0.1, 0.05], [0.0, 1.0, 0.02, 0.1]])
F = np.array([[0.8, 0.2, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0]])
X0 = np.array([1.0, -0.5, 0.0, 0.0])
Y_C = np.array([0.7, -0.3])
Y_E = np.array([0.2, 0.4])
T1 = 8.0


@pytest.fixture(scope="module")
def plant():
    return lt.DescriptorPlant(E=E, A=A, B=B, C=C, F=F)


@pytest.fixture(scope="module")
def gare(plant):
    return lt.solve_gare(plant)


def test_structurally_sound(plant):
    assert all_ok(lt.structural_report(plant))


def test_gare_and_reduction_identities(gare):
    assert gare.residual <= 1e-10
    assert np.abs(gare.P21).max() > 0.1          # the coupling block is live
    red = gare.reduced
    # the reduced closed loop equals the Schur complement of the full one
    assert np.abs(gare.A_bar - (red.A_t - red.R_t @ gare.P1)).max() < 1e-12
    assert np.abs(gare.B_bar @ gare.B_bar.T - red.R_t).max() < 1e-12
    assert np.abs(gare.K2 - gare.A_p2.T).max() < 1e-12


def test_gdre_residual_and_delta_equivalence(plant, gare):
    gdre = lt.solve_gdre(plant, T1, 161)
    resid, bound = gdre_fd_residual(gdre, plant)
    assert resid <= bound
    delta = lt.structured_delta(gare, gare.partition.S1)
    err = max(np.abs(delta.delta1(t, T1) - (p1 - gare.P1)).max()
              for t, p1 in zip(gdre.grid, gdre.P1))
    assert err < 1e-7
    # structured full delta: second block column zero, slaved coupling block
    for i, t in enumerate(gdre.grid):
        p_delta = gdre.P[i] - gare.P_plus
        assert np.abs(p_delta[:, 2:]).max() < 1e-10
        assert np.abs(p_delta[2:, :2]
                      - delta.coupling() @ p_delta[:2, :2]).max() < 1e-9


def test_closed_loop_closed_forms(gare):
    # U and the transition maps of the 2x2 reduced closed loop against
    # x1dot = A1_hat(t) x1 integrated from U(t1) = I
    delta = lt.structured_delta(gare, gare.partition.S1)
    ts, us = integrate(lambda t, u: delta.A1_hat(t, T1) @ u, np.eye(2), T1,
                       0.0, grid=17)
    err = max(np.abs(delta.U(t, T1) - u).max() / (1.0 + np.abs(u).max())
              for t, u in zip(ts, us))
    assert err < 1e-6
    fwd = delta.forward(6.0, 2.0, T1)
    assert np.abs(fwd @ delta.U(2.0, T1) - delta.U(6.0, T1)).max() < 1e-8
    bwd = delta.backward(2.0, 6.0, T1)
    assert np.abs(bwd - fwd.T).max() < 1e-10 * (1.0 + np.abs(bwd).max())


def test_trajectory_against_oracle(plant, gare):
    errs = {}
    for n_steps in (200, 400):
        sol = lt.transcribe_and_solve(plant, X0, Y_C, Y_E, T1, n_steps)
        traj = lt.optimal_trajectory(plant, X0, Y_C, Y_E, T1,
                                     grid=n_steps + 1)
        assert traj.algebraic_residual <= 1e-10
        errs[n_steps] = max(np.abs(traj.x - sol.x).max(),
                            np.abs(traj.u - sol.u).max())
        rel_cost = abs(traj.cost - sol.cost) / (1.0 + abs(traj.cost))
        assert rel_cost < 1e-4
    assert errs[400] < 1e-4
    assert errs[200] / errs[400] >= 3.0          # second-order refinement


def test_steady_state_and_feedforward(plant, gare):
    steady = lt.steady_state(gare.plant, gare, Y_C)
    assert steady.kkt_residual <= 1e-12
    ff = lt.optimal_trajectory(plant, X0, Y_C, Y_E, T1, grid=81)
    part = gare.partition
    # w2 satisfies its algebraic relation at every node
    const = np.linalg.solve(gare.A_p2.T, part.C2.T @ Y_C)
    coef = -np.linalg.solve(gare.A_p2.T, gare.A_p12.T)
    assert np.abs(ff.w2 - (ff.w1 @ coef.T + const)).max() < 1e-12
    # mid-horizon w1 approaches its constant part at the reduced rate
    mid = len(ff.grid) // 2
    w1_const = np.linalg.solve(gare.A_bar.T, gare.C_bar.T @ Y_C)
    layer = 3.0 * np.exp(gare.lambda_bar * T1 / 2.0)
    assert np.abs(ff.w1[mid] - w1_const).max() < layer
