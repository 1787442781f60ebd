import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import lqturnpike as lt
import test_coupled_descriptor as coupled
from conftest import SQRT3, U_S_ABC, W_S_ABC, X_S_ABC, integrate


class TestSteadyState:
    def test_zero_target(self, abc_fperp, are_abc):
        st = lt.steady_state(abc_fperp, are_abc, [0.0])
        assert np.abs(st.x_s).max() == 0.0
        assert np.abs(st.u_s).max() == 0.0
        assert np.abs(st.w_s).max() == 0.0

    def test_reference_values(self, abc_fperp, are_abc):
        st = lt.steady_state(abc_fperp, are_abc, [1.0])
        assert np.abs(st.x_s - X_S_ABC).max() < 1e-10
        assert np.abs(st.u_s - U_S_ABC).max() < 1e-10
        assert np.abs(st.w_s - W_S_ABC).max() < 1e-10
        assert st.kkt_residual <= 1e-10

    def test_adjoint_equation_residual(self, abc_fperp, are_abc):
        st = lt.steady_state(abc_fperp, are_abc, [1.0])
        r = (abc_fperp.A.T @ st.lambda_s
             + abc_fperp.C.T @ (abc_fperp.C @ st.x_s - np.array([1.0])))
        assert np.abs(r).max() < 1e-10

    def test_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            n, m, k = 3, 2, 2
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((k, n))
            plant = lt.LtiPlant(A=a, B=b, C=c, F=np.zeros((1, n)))
            are = lt.solve_gare(plant)
            y_c = rng.standard_normal(k)
            st = lt.steady_state(plant, are, y_c)
            scale = 1.0 + max(np.linalg.norm(st.x_s), np.linalg.norm(y_c))
            assert st.kkt_residual <= 1e-10 * scale

    # n = 4 random standard plants with ||P+||_2 = 6.3e3 and 7.3e3, whose
    # KKT rounding a residual bound without ||P+|| in its scale refused
    LARGE_P_PLANTS = [
        ([[0.19238277636430512, 1.1450118416473916, 0.2947287141023186, -0.539677582670274],
          [-0.010085103585294916, 0.23314623899648365, 0.06799135468984613, 0.3691800549135973],
          [0.10731919953741227, 0.4564029257194649, 0.4796554442096001, 0.3693430399769545],
          [0.5126240347922301, 0.40346258434309124, 0.35428582785069557, -0.0502307577997301]],
         [[0.13482997779710376], [0.49209358181578106], [-0.8019682735712876],
          [-0.3106632775337892]],
         [[0.6855165086629469, 0.09777818809182877, 0.41117687478178305, -0.5928238523614993]],
         [1.394448044348605]),
        ([[0.5313860167601421, -0.5512160268813809, 0.09189997619255363, 0.2392455977225911],
          [0.037156274229951186, 0.033125638146316624, -0.025354702877981923, -0.4687404356739744],
          [-0.09647470317844045, 0.1641359561672096, 0.8512375262057292, 0.33063104913747865],
          [0.3354812444626457, -0.5983049793068828, -0.2928476719572339, -0.23875546187861152]],
         [[0.35773908601455734], [0.565777051138869], [-0.7412242322721263],
          [0.05005708975431682]],
         [[0.03925612351672376, -0.7548579115028339, 0.3075540959171899, 0.5779783458682335]],
         [2.172213759987061]),
    ]

    @pytest.mark.parametrize("a, b, c, y_c", LARGE_P_PLANTS)
    def test_large_riccati_solution_accepted(self, a, b, c, y_c):
        a, b, c, y_c = (np.array(m) for m in (a, b, c, y_c))
        n, m = b.shape
        plant = lt.LtiPlant(A=a, B=b, C=c, F=np.zeros((1, n)))
        are = lt.solve_gare(plant)
        assert np.linalg.norm(are.P_plus, 2) > 6e3
        _assert_matches_direct_kkt(plant, are, y_c)

    @pytest.mark.parametrize("which", ["ref_dae", "coupled"])
    def test_descriptor_solution_against_direct_kkt(self, which, ref_dae):
        # the same three-row KKT system holds for E = diag(I, 0): the
        # steady state of a descriptor plant also satisfies 0 = Ax + Bu
        if which == "ref_dae":
            plant, y_c = ref_dae, np.array([1.0])
        else:
            plant = lt.DescriptorPlant(E=coupled.E, A=coupled.A, B=coupled.B,
                                       C=coupled.C, F=coupled.F)
            y_c = coupled.Y_C
        _assert_matches_direct_kkt(plant, lt.solve_gare(plant), y_c)


def _assert_matches_direct_kkt(plant, are, y_c):
    a, b, c = plant.A, plant.B, plant.C
    n, m = b.shape
    st = lt.steady_state(plant, are, y_c)
    # direct solve of the steady KKT system in (x, u, lambda)
    kkt = np.block([[c.T @ c, np.zeros((n, m)), a.T],
                    [np.zeros((m, n)), np.eye(m), b.T],
                    [a, b, np.zeros((n, n))]])
    rhs = np.concatenate([c.T @ y_c, np.zeros(m + n)])
    x_direct = np.linalg.solve(kkt, rhs)[:n]
    assert np.abs(st.x_s - x_direct).max() <= 1e-8 * max(
        1.0, np.abs(x_direct).max())


class TestFeedforward:
    def test_zero_targets(self, abc_fperp, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        ff = lt.feedforward(st, [0.0], [0.0], 10.0)
        assert np.abs(ff.w).max() < 1e-12

    def test_terminal_condition(self, abc_fperp, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        ff = lt.feedforward(st, [0.0], [1.0], 10.0)
        assert np.abs(ff.w[-1] - [-SQRT3, 0.0]).max() < 1e-12

    def test_closed_form_matches_integration(self, abc_fperp, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        for grid in (101, 2001):
            for y_c, y_e in ([0.0, 1.0], [1.0, 1.0], [1.0, 0.0]):
                ff = lt.feedforward(st, [y_c], [y_e], 10.0, grid)
                assert ff.max_discrepancy < 1e-6
                assert np.abs(ff.w - (ff.w_h + ff.w_p)).max() < 1e-14

    def test_closed_form_multi_output(self):
        # exercises the closed forms with k = 2, l = 2, m = 2 shapes
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        plant = lt.LtiPlant(A=a, B=rng.standard_normal((3, 2)),
                            C=rng.standard_normal((2, 3)),
                            F=rng.standard_normal((2, 3)))
        are = lt.solve_gare(plant)
        gram = lt.gramians(are, plant.B)
        st = lt.StructuredDelta(are, plant.terminal_weight, gram)
        ff = lt.feedforward(st, [0.4, -0.2], [1.0, 0.3], 6.0)
        assert ff.max_discrepancy < 1e-6

    def test_descriptor_delta_refused(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        with pytest.raises(ValueError, match=r"need a standard plant \(d = n\)"):
            lt.feedforward(delta, [0.0], [1.0], 10.0)


class TestOptimalTrajectory:
    def test_feedback_identity(self, abc_fperp):
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0], 10.0)
        recon = -np.einsum("ij,tj->ti", abc_fperp.B.T,
                           np.einsum("tij,tj->ti", traj.P, traj.x) + traj.w)
        assert np.abs(traj.u - recon).max() < 1e-12

    def test_initial_condition_and_output(self, abc_fperp):
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0], 10.0)
        assert np.array_equal(traj.x[0], [1.0, 1.0])
        assert np.abs(traj.y - traj.x @ abc_fperp.C.T).max() == 0.0

    def test_bad_x0_size(self, abc_fperp):
        with pytest.raises(ValueError):
            lt.optimal_trajectory(abc_fperp, [1.0], [0.0], [1.0], 10.0)

    @pytest.mark.parametrize("t1, grid, message", [
        (5.0, 1, "grid must have at least 2 nodes"),
        (0.0, 11, "t1 must be positive"), (-1.0, 11, "t1 must be positive")],
        ids=["grid_1", "t1_0", "t1_negative"])
    @pytest.mark.parametrize("entry", ["optimal_trajectory", "solve_gdre"])
    def test_bad_horizon_or_grid(self, entry, t1, grid, message, abc_fperp):
        calls = {
            "optimal_trajectory": lambda: lt.optimal_trajectory(
                abc_fperp, [1.0, 1.0], [0.0], [1.0], t1, grid),
            "solve_gdre": lambda: lt.solve_gdre(abc_fperp, t1, grid)}
        with pytest.raises(ValueError, match=message):
            calls[entry]()

    @pytest.mark.parametrize("which", ["fperp", "coupled", "near_fc"])
    def test_grid_independent_at_long_horizon(self, which, abc_fperp):
        # the kernel's exponentials are exact at every node, so the output
        # grid must not change the solution at the shared nodes.  near_fc:
        # F = [1e-10, sqrt 3] barely sees the unstable mode, and P's tiny
        # entries along it must stay accurate while x1 grows to 1e10
        if which == "fperp":
            plant, x0, y_c, y_e = abc_fperp, [1.0, 1.0], [0.0], [1.0]
        elif which == "near_fc":
            plant = lt.LtiPlant(A=abc_fperp.A, B=abc_fperp.B, C=abc_fperp.C,
                                F=np.array([[1e-10, SQRT3]]))
            x0, y_c, y_e = [1.0, 1.0], [0.0], [1.0]
        else:
            plant = lt.DescriptorPlant(E=coupled.E, A=coupled.A, B=coupled.B,
                                       C=coupled.C, F=coupled.F)
            x0, y_c, y_e = coupled.X0, coupled.Y_C, coupled.Y_E
        coarse = lt.optimal_trajectory(plant, x0, y_c, y_e, 40.0, 101)
        fine = lt.optimal_trajectory(plant, x0, y_c, y_e, 40.0, 2001)
        assert np.abs(coarse.grid - fine.grid[::20]).max() < 1e-12
        for name in ("x", "u"):
            c, f = getattr(coarse, name), getattr(fine, name)[::20]
            assert np.abs(c - f).max() < 1e-8 * np.abs(f).max()

    @pytest.mark.parametrize("plant_name", ["abc_fperp", "abc_fc"])
    def test_coarse_grid_at_long_horizon(self, plant_name, request):
        # one interval of 20 time units is one step of exponentials that
        # stay bounded; the nodes match a fine grid's
        plant = request.getfixturevalue(plant_name)
        coarse = lt.optimal_trajectory(plant, [1.0, 1.0], [0.0], [1.0], 40.0, 3)
        fine = lt.optimal_trajectory(plant, [1.0, 1.0], [0.0], [1.0], 40.0,
                                     2001)
        for name in ("x", "u"):
            c, f = getattr(coarse, name), getattr(fine, name)[::1000]
            assert (np.abs(c - f).max(axis=0)
                    <= 1e-8 * np.abs(f).max(axis=0)).all()

    @pytest.mark.parametrize("grid", [21, 101, 2001])
    def test_nondetectable_plant_at_long_horizon(self, grid, abc_fc):
        # F = C leaves the unstable mode of A unobserved: P vanishes on it
        # while x1 grows like e^{2t}.  The unobserved x_u is stepped from
        # node to node, driven by the modes of x_o and lam, on every grid.
        y_e, t1 = np.array([1.0]), 40.0
        _, x_ref = _dop853_trajectory(abc_fc, [1.0, 1.0], [0.0], y_e, t1, grid)
        traj = lt.optimal_trajectory(abc_fc, [1.0, 1.0], [0.0], y_e, t1, grid)
        err = np.abs(traj.x - x_ref).max(axis=0) / np.abs(x_ref).max(axis=0)
        assert err.max() < 1e-10

    @pytest.mark.parametrize("grid", [101, 2001])
    @pytest.mark.parametrize("n", [8, 16])
    def test_random_plant_at_long_horizon(self, n, grid):
        plant = _random_standard(n, seed=1)
        x0, y_c, y_e, t1 = np.ones(n), np.array([0.5, -0.5]), [1.0], 40.0
        p_ref, x_ref = _dop853_trajectory(plant, x0, y_c, y_e, t1, grid)
        traj = lt.optimal_trajectory(plant, x0, y_c, y_e, t1, grid)
        assert (np.abs(traj.x - x_ref).max(axis=0)
                <= 1e-8 * np.abs(x_ref).max(axis=0)).all()
        assert (np.abs(traj.P - p_ref).max(axis=(0, 1))
                <= 1e-8 * np.abs(p_ref).max(axis=(0, 1))).all()

    @pytest.mark.parametrize("f_row, noted", [
        ([1e-14, SQRT3], True), ([1e-10, SQRT3], True),
        ([1e-6, SQRT3], False), ([SQRT3, 0.0], False), ([0.0, SQRT3], False)])
    def test_rank_gap_of_the_split_is_reported(self, f_row, noted, caplog):
        # F = [eps, sqrt 3] barely sees the unstable mode, which the split
        # then steps as observable; a gap below sqrt(eps) is named.  F-perp
        # and F = C split cleanly.
        plant = lt.LtiPlant(A=np.diag([2.0, -1.0]), B=np.array([[1.0], [1.0]]),
                            C=np.array([[0.0, SQRT3]]), F=np.array([f_row]))
        with caplog.at_level("WARNING", logger="lqturnpike.lqr"):
            traj = lt.optimal_trajectory(plant, [1.0, 1.0], [0.0], [1.0], 40.0)
        assert any("rank gap" in note for note in traj.notes) == noted
        assert any("rank gap" in rec.message for rec in caplog.records) == noted

    def test_rank_gap_of_the_rescaled_pass_is_reported(self, caplog):
        # |P| reaches 5e8, so the kernel solves once more in rescaled
        # coordinates.  The first pass splits with gap 1.5e-4, the pass
        # whose solution is returned with gap 1.9e-9 < sqrt(eps): the note
        # names the smaller.  solve_gdre enters through the same pipeline
        # and logs it too.
        plant = lt.LtiPlant(A=np.diag([2.0, -1.0]), B=np.array([[1e-4], [1.0]]),
                            C=np.eye(2), F=np.zeros((1, 2)))
        with caplog.at_level("WARNING", logger="lqturnpike.lqr"):
            traj = lt.optimal_trajectory(plant, [1.0, 1.0], [0.0, 0.0], [0.0],
                                         10.0)
        assert np.abs(traj.P).max() > 1e8
        assert any("rank gap 1.9e-09" in note for note in traj.notes)
        caplog.clear()
        with caplog.at_level("WARNING", logger="lqturnpike.lqr"):
            dre = lt.solve_gdre(plant, 10.0)
        assert np.array_equal(dre.P, traj.P)
        assert any("rank gap 1.9e-09" in rec.message for rec in caplog.records)


def _dop853_trajectory(plant, x0, y_c, y_e, t1, grid):
    """P and x of a standard plant on ``grid`` uniform nodes by DOP853: the
    joint backward (P, w) equations with dense output, then x forward."""
    a, b, c, f = plant.A, plant.B, plant.C, plant.F
    n = a.shape[0]
    bbt, cy = b @ b.T, c.T @ np.asarray(y_c, dtype=float)

    def backward(_t, z):
        p, w = z[:n * n].reshape(n, n), z[n * n:]
        pdot = -(a.T @ p + p @ a - p @ bbt @ p + c.T @ c)
        return np.concatenate([pdot.ravel(), -(a - bbt @ p).T @ w + cy])

    pw = solve_ivp(backward, (t1, 0.0),
                   np.concatenate([(f.T @ f).ravel(), -f.T @ np.asarray(y_e)]),
                   method="DOP853", rtol=1e-13, atol=1e-15,
                   dense_output=True).sol

    def forward(t, x):
        z = pw(t)
        return a @ x - bbt @ (z[:n * n].reshape(n, n) @ x + z[n * n:])

    ts, x_ref = integrate(forward, x0, 0.0, t1, grid, rtol=1e-13)
    return pw(ts)[:n * n].T.reshape(grid, n, n), x_ref


class TestKernelHardCases:
    """Plants whose Hamiltonian has eigenvalues on the imaginary axis or no
    stabilizing solution, against closed forms or DOP853."""

    @pytest.mark.parametrize("t1", [10.0, 40.0])
    def test_centre_eigenvalues(self, t1):
        # A = 0, B = 1, C = 0, F = 1: H has the double eigenvalue 0, and
        # P = 1/(1 + tau) steers x = x0 (1 + tau)/(1 + t1)
        plant = lt.LtiPlant(A=[[0.0]], B=[[1.0]], C=[[0.0]], F=[[1.0]])
        traj = lt.optimal_trajectory(plant, [2.0], [0.0], [0.0], t1, 101)
        tau = t1 - traj.grid
        assert np.max(np.abs(traj.P[:, 0, 0] * (1.0 + tau) - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.x[:, 0] * (1.0 + t1) / (1.0 + tau) - 2.0)
                      ) <= 1e-12
        dre = lt.solve_gdre(plant, t1, 101)
        assert np.max(np.abs(dre.P[:, 0, 0] * (1.0 + tau) - 1.0)) <= 1e-12

    def test_growing_solution_without_stabilizing_one(self):
        # A = 1, B = 0, C = 1, F = 0: no input, and P = (e^{2 tau} - 1)/2
        # reaches 2.4e8 at t1 = 10 while x = e^t x0
        plant = lt.LtiPlant(A=[[1.0]], B=[[0.0]], C=[[1.0]], F=[[0.0]])
        traj = lt.optimal_trajectory(plant, [1.0], [0.0], [0.0], 10.0, 101)
        exact = 0.5 * np.expm1(2.0 * (10.0 - traj.grid))
        assert traj.P[-1, 0, 0] == 0.0
        assert np.max(np.abs(traj.P[:-1, 0, 0] / exact[:-1] - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.x[:, 0] / np.exp(traj.grid) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("mu_t1", [15.0, 20.0])
    def test_uncontrollable_unstable_mode(self, mu_t1):
        # B = 0 and A = Q diag(mu, -1, 0.3) Q*: the mode mu grows by
        # e^{mu t1} with no input, so x = e^{tA} x0, and in the eigenbasis
        # P(t1 - tau) = e^{L tau} S e^{L tau} + int_0^tau e^{L s} Q e^{L s} ds
        # entry by entry, up to 2e17 at mu t1 = 20
        rng = np.random.default_rng(3)
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        lam, t1 = np.array([mu_t1 / 10.0, -1.0, 0.3]), 10.0
        a = rot @ np.diag(lam) @ rot.T
        c, f = rng.standard_normal((2, 3)), rng.standard_normal((1, 3))
        plant = lt.LtiPlant(A=a, B=np.zeros((3, 1)), C=c, F=f)
        x0 = np.array([1.0, -0.5, 0.25])
        traj = lt.optimal_trajectory(plant, x0, [0.0, 0.0], [0.0], t1, 51)
        x_ref = np.array([expm(t * a) @ x0 for t in traj.grid])
        assert np.abs(traj.x - x_ref).max() <= 1e-11 * np.abs(x_ref).max()
        rate = lam[:, None] + lam[None, :]
        weight = (rot.T @ c.T @ c @ rot) * np.expm1(rate * t1) / rate
        p0 = rot @ (rot.T @ f.T @ f @ rot * np.exp(rate * t1) + weight) @ rot.T
        assert np.abs(traj.P[0] - p0).max() <= 1e-13 * np.abs(p0).max()
        assert np.abs(traj.u).max() == 0.0

    def test_weakly_controllable_unstable_mode(self):
        # B = (1e-4, 1): the unstable mode 2 is barely reached, so P reaches
        # about 4e8 and u = -B*(P x + w) is a small difference of large
        # terms; it must still follow DOP853 closely
        plant = lt.LtiPlant(A=[[2.0, 0.0], [0.0, -1.0]], B=[[1e-4], [1.0]],
                            C=np.eye(2), F=np.zeros((1, 2)))
        x0, y_c, t1, grid = [1.0, 1.0], [0.5, -1.0], 10.0, 101
        a, b, c = plant.A, plant.B, plant.C
        bbt, cy = b @ b.T, c.T @ np.array(y_c)

        def backward(_t, z):
            p, w = z[:4].reshape(2, 2), z[4:]
            pdot = -(a.T @ p + p @ a - p @ bbt @ p + c.T @ c)
            return np.concatenate([pdot.ravel(), -(a - bbt @ p).T @ w + cy])

        pw = solve_ivp(backward, (t1, 0.0), np.zeros(6), method="DOP853",
                       rtol=1e-13, atol=1e-15, dense_output=True).sol

        def forward(t, x):
            z = pw(t)
            return a @ x - bbt @ (z[:4].reshape(2, 2) @ x + z[4:])

        ts, x_ref = integrate(forward, x0, 0.0, t1, grid, rtol=1e-13)
        z = pw(ts)
        u_ref = -np.einsum("ij,tj->ti", b.T, np.einsum(
            "tij,tj->ti", z[:4].T.reshape(grid, 2, 2), x_ref) + z[4:].T)
        traj = lt.optimal_trajectory(plant, x0, y_c, [0.0], t1, grid)
        assert np.abs(traj.P).max() > 1e8
        assert np.abs(traj.u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()

    def test_vaughan_form_with_uncontrollable_costate(self):
        # B = (0, 1)*: no input reaches the stable mode -1, whose costate
        # feeds no state and is stepped outside the core, while alpha stays
        # well conditioned, so P takes Vaughan's form with those rows added
        plant = lt.LtiPlant(A=np.diag([-1.0, 1.0]), B=[[0.0], [1.0]],
                            C=np.eye(2), F=np.eye(2))
        x0, y_c, y_e, t1, grid = [1.0, 1.0], [0.5, -0.5], [1.0, 0.0], 10.0, 101
        a, bbt, cy = plant.A, plant.B @ plant.B.T, np.array(y_c)

        def backward(_t, pw):
            p, w = pw[:2], pw[2]
            pdot = -(a.T @ p + p @ a - p @ bbt @ p + np.eye(2))
            return np.vstack([pdot, -(a - bbt @ p).T @ w + cy])

        _, pw_ref = integrate(backward, np.vstack([np.eye(2), -np.array(y_e)]),
                              t1, 0.0, grid, rtol=1e-13)
        p_ref, w_ref = pw_ref[::-1, :2], pw_ref[::-1, 2]
        _, x_ref = _dop853_trajectory(plant, x0, y_c, y_e, t1, grid)
        traj = lt.optimal_trajectory(plant, x0, y_c, y_e, t1, grid)
        for got, ref in ((traj.P, p_ref), (traj.w, w_ref), (traj.x, x_ref)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_unobserved_unstable_mode_leaves_u_alone(self, abc_fc):
        # F = C misses the mode 2 of A, which grows to e^{80} at t1 = 40:
        # P vanishes on it exactly, so u and the cost are those of the
        # observed scalar plant x2' = -x2 + u alone
        traj = lt.optimal_trajectory(abc_fc, [1.0, 1.0], [0.0], [1.0], 40.0)
        scalar = lt.LtiPlant(A=[[-1.0]], B=[[1.0]], C=[[SQRT3]], F=[[SQRT3]])
        ref = lt.optimal_trajectory(scalar, [1.0], [0.0], [1.0], 40.0)
        assert np.all(traj.P[:, 0, :] == 0.0) and np.all(traj.P[:, :, 0] == 0.0)
        assert np.abs(traj.u - ref.u).max() <= 1e-12
        assert abs(traj.cost - ref.cost) <= 1e-12 * ref.cost

    def test_unobserved_mode_near_overflow_stays_quiet(self, abc_fc):
        # at t1 = 300 the unobserved mode reaches e^{600}: the Riccati flow
        # from x0 = 0 has no x_u to step, and the trajectory's doubling
        # forms no power of e^{hA} beyond the ones it uses, so neither
        # overflows into a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dre = lt.solve_gdre(abc_fc, 300.0)
            traj = lt.optimal_trajectory(abc_fc, [1.0, 1.0], [0.0], [1.0],
                                         300.0)
        converged = lt.solve_gdre(abc_fc, 40.0).P[0]
        assert np.abs(dre.P[0] - converged).max() <= 1e-10
        scalar = lt.LtiPlant(A=[[-1.0]], B=[[1.0]], C=[[SQRT3]], F=[[SQRT3]])
        ref = lt.optimal_trajectory(scalar, [1.0], [0.0], [1.0], 300.0)
        assert np.all(np.isfinite(traj.x))
        assert np.abs(traj.u - ref.u).max() <= 1e-12
        assert abs(traj.cost - ref.cost) <= 1e-12 * ref.cost

    @pytest.mark.parametrize("a", [[[1.0]], [[-1.0, 0.0], [0.0, -2.0]],
                                   [[0.0, 1.0], [-2.0, -3.0]]])
    def test_nothing_observed(self, a):
        # C = 0 and F = 0 leave every mode unobserved: P = 0, u = 0 and
        # x = e^{tA} x0, with no observable part left for the dichotomy
        n = len(a)
        plant = lt.LtiPlant(A=a, B=np.ones((n, 1)), C=np.zeros((1, n)),
                            F=np.zeros((1, n)))
        traj = lt.optimal_trajectory(plant, np.ones(n), [0.0], [0.0], 5.0, 11)
        x_ref = np.array([expm(t * np.array(a)) @ np.ones(n)
                          for t in traj.grid])
        assert np.abs(traj.P).max() == 0.0
        assert np.abs(traj.u).max() == 0.0
        assert np.abs(traj.x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    @pytest.mark.parametrize("grid", [101, 401])
    def test_undamped_oscillator(self, grid):
        # C = 0 leaves H with the double pair +-i on the imaginary axis
        plant = lt.LtiPlant(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                            C=[[0.0, 0.0]], F=np.eye(2))
        x0, y_e = [1.0, 1.0], [0.0, 0.0]
        p_ref, x_ref = _dop853_trajectory(plant, x0, [0.0], y_e, 40.0, grid)
        traj = lt.optimal_trajectory(plant, x0, [0.0], y_e, 40.0, grid)
        assert np.abs(traj.P - p_ref).max() <= 1e-10 * np.abs(p_ref).max()
        assert np.abs(traj.x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


class TestDecomposeState:
    def test_homogeneous_case(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [0.0])
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [0.0], 10.0)
        dec = lt.decompose_state(traj, are_abc, steady)
        assert np.abs(traj.x - dec.x_h).max() < 1e-8
        assert np.abs(dec.g).max() < 1e-8

    def test_zero_time_identity(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [1.0])
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [1.0], [1.0], 10.0)
        dec = lt.decompose_state(traj, are_abc, steady)
        # transient(0) = x_s, so the remainder vanishes at t = 0
        assert np.abs(dec.transient[0] - steady.x_s).max() < 1e-12
        assert np.abs(dec.g[0]).max() < 1e-12

    def test_horizon_doubling_decay(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [1.0])
        peaks = {}
        for t1 in (10.0, 20.0):
            traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [1.0], [1.0],
                                         t1, grid=201)
            dec = lt.decompose_state(traj, are_abc, steady)
            mask = dec.grid <= 5.0
            peaks[t1] = np.max(np.linalg.norm(dec.g[mask], axis=1))
        assert peaks[20.0] <= 1e-4 * peaks[10.0]


class TestTurnpikeReport:
    def test_synthetic_on_turnpike(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [1.0])

        class Synthetic:
            grid = np.linspace(0.0, 10.0, 101)
            x = np.tile(steady.x_s, (101, 1))
            u = np.tile(steady.u_s, (101, 1))

        rep = lt.turnpike_report(Synthetic(), steady, lam=-2.0)
        assert rep.envelope_holds
        assert rep.C_hat == 0.0

    def test_affine_reference(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [0.0])
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0], 10.0)
        rep = lt.turnpike_report(traj, steady, lam=are_abc.lambda_bar)
        assert -2.2 <= rep.lambda_hat <= -1.8
        assert rep.envelope_holds
        assert rep.max_violation <= 0.0
        assert np.all(np.maximum(rep.dist_x, rep.dist_u)
                      <= rep.envelope + 1e-12)

    def test_homogeneous_reference(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [0.0])
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [0.0], 10.0)
        rep = lt.turnpike_report(traj, steady, lam=are_abc.lambda_bar)
        assert -2.2 <= rep.lambda_hat <= -1.8
        assert rep.envelope_holds

    def test_failure_case(self, abc_fc, are_abc):
        # terminal weight along the output: the state escapes
        class SteadyZero:
            x_s = np.zeros(2)
            u_s = np.zeros(1)

        traj = lt.optimal_trajectory(abc_fc, [1.0, 1.0], [0.0], [1.0], 10.0)
        for lam in (-2.0, -1.0, -0.5, None):
            rep = lt.turnpike_report(traj, SteadyZero(), lam=lam)
            assert not rep.envelope_holds
        assert lt.turnpike_report(traj, SteadyZero()).lambda_hat > 0.0

    def test_unfittable_rate_is_nan(self, abc_fc, are_abc):
        # at t1 = 40 the escaping state puts the degeneracy floor above every
        # window sample, so no rate can be fitted
        steady = lt.steady_state(abc_fc, are_abc, [0.0])
        traj = lt.optimal_trajectory(abc_fc, [1.0, 1.0], [0.0], [1.0], 40.0)
        rep = lt.turnpike_report(traj, steady, lam=are_abc.lambda_bar)
        assert np.isnan(rep.lambda_hat)
        assert not rep.envelope_holds
        assert any("rate not fitted" in note for note in rep.notes)

    def test_no_input_distance_counts_as_decayed(self):
        # m = 0: the input distance is zero over the whole horizon, so no
        # input rate can be fitted, and there is nothing left to decay
        plant = lt.LtiPlant(A=np.diag([-1.0, -2.0]), B=np.zeros((2, 0)),
                            C=np.array([[1.0, 0.0]]), F=np.array([[1.0, 0.0]]))
        are = lt.solve_gare(plant)
        steady = lt.steady_state(plant, are, [0.0])
        traj = lt.optimal_trajectory(plant, [1.0, 1.0], [0.0], [0.0], 5.0)
        rep = lt.turnpike_report(traj, steady, lam=are.lambda_bar)
        assert np.isnan(rep.lambda_hat_u) and rep.lambda_hat < 0.0
        assert rep.max_violation <= 0.0
        assert rep.envelope_holds

    def test_short_horizon_has_no_dip(self, abc_fperp, are_abc):
        # at t1 = 0.5 the two boundary layers overlap: nothing dips in the
        # middle, so the envelope is not certified
        steady = lt.steady_state(abc_fperp, are_abc, [0.0])
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0], 0.5)
        rep = lt.turnpike_report(traj, steady, lam=are_abc.lambda_bar)
        assert ("mid-horizon state distance does not dip below the boundary "
                "layers") in rep.notes
        assert not rep.envelope_holds

    def test_coarse_grid_rejected(self, abc_fperp, are_abc):
        steady = lt.steady_state(abc_fperp, are_abc, [0.0])

        class Tiny:
            grid = np.linspace(0.0, 10.0, 8)
            x = np.ones((8, 2))
            u = np.ones((8, 1))

        with pytest.raises(ValueError):
            lt.turnpike_report(Tiny(), steady)

    def test_horizon_sweep_constants(self, abc_fperp, are_abc):
        # the envelope constant must not grow with the horizon, while the
        # interior dip deepens exponentially
        steady = lt.steady_state(abc_fperp, are_abc, [0.0])
        c_hats, dips = [], []
        for t1 in (6.0, 10.0, 14.0):
            traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0],
                                         t1, grid=141)
            rep = lt.turnpike_report(traj, steady, lam=are_abc.lambda_bar)
            assert rep.envelope_holds
            c_hats.append(rep.C_hat)
            middle = (traj.grid > t1 / 4.0) & (traj.grid < 3.0 * t1 / 4.0)
            dips.append(np.linalg.norm(traj.x[middle], axis=1).min())
        assert max(c_hats) <= 3.0 * min(c_hats)
        assert dips[1] < 0.05 * dips[0]
        assert dips[2] < 0.05 * dips[1]


def _random_standard(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return lt.LtiPlant(A=rng.standard_normal((n, n)) / np.sqrt(n),
                       B=rng.standard_normal((n, 2)),
                       C=rng.standard_normal((2, n)),
                       F=rng.standard_normal((1, n)))


@pytest.mark.parametrize("which", ["fperp", "fc", "random8"])
def test_standard_plant_is_its_identity_descriptor(which, abc_fperp, abc_fc):
    # an LtiPlant is the E = I descriptor plant itself: the solvers take
    # both through the same path, so nothing differs
    plant = {"fperp": abc_fperp, "fc": abc_fc}.get(which) or _random_standard()
    dplant = lt.DescriptorPlant(E=np.eye(plant.n), A=plant.A, B=plant.B,
                                C=plant.C, F=plant.F)
    k, n = plant.C.shape
    x0, y_c = np.ones(n), np.linspace(-0.5, 0.5, k)
    y_e = np.ones(plant.F.shape[0])
    are, dare = lt.solve_gare(plant), lt.solve_gare(dplant)
    for name in ("P_plus", "A_plus", "A_bar", "lambda_bar", "residual"):
        assert np.array_equal(getattr(are, name), getattr(dare, name)), name
    assert np.array_equal(lt.solve_gdre(plant, 10.0).P,
                          lt.solve_gdre(dplant, 10.0).P)
    st = lt.steady_state(plant, are, y_c)
    dst = lt.steady_state(dplant, dare, y_c)
    for name in ("x_s", "u_s", "w_s", "kkt_residual"):
        assert np.array_equal(getattr(st, name), getattr(dst, name)), name
    traj = lt.optimal_trajectory(plant, x0, y_c, y_e, 10.0)
    dtraj = lt.optimal_trajectory(dplant, x0, y_c, y_e, 10.0)
    for name in ("x", "u", "w", "P", "cost"):
        assert np.array_equal(getattr(traj, name), getattr(dtraj, name)), name
    # the oracle picks its scheme from d = n, not from the class
    sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, 5.0, 200)
    dsol = lt.transcribe_and_solve(dplant, x0, y_c, y_e, 5.0, 200)
    for name in ("x", "u", "cost", "kkt_dim"):
        assert np.array_equal(getattr(sol, name), getattr(dsol, name)), name


@pytest.mark.parametrize("entry, name", [
    ("optimal_trajectory", "x0"), ("optimal_trajectory", "y_c"),
    ("optimal_trajectory", "y_e"), ("steady_state", "y_c"),
    ("feedforward", "y_c"), ("feedforward", "y_e"),
    ("transcribe_and_solve", "x0"), ("transcribe_and_solve", "y_c"),
    ("transcribe_and_solve", "y_e")])
def test_wrong_vector_size_is_named(entry, name, abc_fperp):
    # the entry points name the vector of the wrong size instead of failing
    # inside a matrix product
    plant = abc_fperp
    args = {"x0": np.ones(2), "y_c": np.zeros(1), "y_e": np.ones(1)}
    size = args[name].size + 1
    args[name] = np.ones(size)
    x0, y_c, y_e = args["x0"], args["y_c"], args["y_e"]
    calls = {
        "optimal_trajectory":
            lambda: lt.optimal_trajectory(plant, x0, y_c, y_e, 10.0),
        "steady_state":
            lambda: lt.steady_state(plant, lt.solve_gare(plant), y_c),
        "feedforward": lambda: lt.feedforward(
            lt.structured_delta(lt.solve_gare(plant), plant.terminal_weight),
            y_c, y_e, 10.0),
        "transcribe_and_solve":
            lambda: lt.transcribe_and_solve(plant, x0, y_c, y_e, 10.0, 100),
    }
    with pytest.raises(ValueError,
                       match=rf"^{name} has size {size}, expected {size - 1}$"):
        calls[entry]()
