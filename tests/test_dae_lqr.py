import time

import numpy as np
import pytest

import lqturnpike as lt

from conftest import SQRT2, all_ok


def _random_descriptor(rng, d=2, n2=1, m=2, k=2):
    n = d + n2
    e = np.zeros((n, n))
    e[:d, :d] = np.eye(d)
    a = rng.standard_normal((n, n))
    a[d:, d:] -= 1.5 * np.eye(n2)   # keep the fast block well separated
    b = rng.standard_normal((n, m))
    c = np.hstack([rng.standard_normal((k, d)),
                   0.2 * rng.standard_normal((k, n2))])
    f = np.hstack([rng.standard_normal((k, d)), np.zeros((k, n2))])
    return lt.DescriptorPlant(E=e, A=a, B=b, C=c, F=f)


class TestDaeSteadyState:
    def test_zero_target(self, gare_ref):
        st = lt.steady_state(gare_ref.plant, gare_ref, [0.0])
        assert np.abs(st.x_s).max() == 0.0
        assert np.abs(st.u_s).max() == 0.0

    def test_reference_values(self, gare_ref):
        st = lt.steady_state(gare_ref.plant, gare_ref, [1.0])
        assert np.abs(st.x_s - [0.5, -0.5]).max() < 1e-9
        assert st.u_s[0] == pytest.approx(-0.5, abs=1e-9)
        assert st.w_s1[0] == pytest.approx(-1.0 / SQRT2, abs=1e-9)
        assert np.abs(st.w_s2).max() < 1e-12

    def test_steady_residual_identity(self, ref_dae, gare_ref):
        st = lt.steady_state(gare_ref.plant, gare_ref, [1.0])
        resid = ref_dae.A @ st.x_s + ref_dae.B @ st.u_s
        assert np.abs(resid).max() < 1e-12

    def test_randomized_instances(self):
        rng = np.random.default_rng(55)
        solved = 0
        for _ in range(20):
            plant = _random_descriptor(rng)
            if not all_ok(lt.structural_report(plant)):
                continue
            try:
                gare = lt.solve_gare(plant)
            except (lt.AssumptionViolation, lt.NumericalError):
                continue
            y_c = rng.standard_normal(plant.k)
            st = lt.steady_state(plant, gare, y_c)   # enforces the residual
            assert st.kkt_residual <= 1e-10 * (1.0 + np.linalg.norm(st.x_s)
                                           + np.linalg.norm(y_c))
            solved += 1
        assert solved >= 5


class TestDaeFeedforward:
    def test_zero_targets(self, ref_dae):
        ff = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [0.0], [0.0], 10.0)
        assert np.abs(ff.w1).max() < 1e-12
        assert np.abs(ff.w2).max() < 1e-12

    def test_constant_parts(self, ref_dae):
        ff = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [1.0], [0.0], 10.0)
        mid = len(ff.grid) // 2
        assert abs(ff.w1[mid, 0] + 1.0 / SQRT2) < np.exp(-SQRT2 * 5.0) + 1e-6
        assert np.abs(ff.w2).max() < 1e-12   # no output weight on x2

    def test_terminal_condition(self, ref_dae):
        ff = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [0.0], [1.0], 10.0)
        assert ff.w1[-1, 0] == pytest.approx(-1.0, abs=1e-12)


class TestDaeOptimalTrajectory:
    def test_turnpike_value_mid_horizon(self, ref_dae):
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [1.0], [0.0],
                                     10.0)
        mid = len(traj.grid) // 2
        assert abs(traj.x1[mid, 0] - 0.5) < 1e-3
        assert traj.algebraic_residual <= 1e-8

    def test_algebraic_consistency_everywhere(self, ref_dae):
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [1.0], [1.0],
                                     10.0)
        part = ref_dae.partition()
        resid = np.array([
            part.A21 @ traj.x1[i] + part.A22 @ traj.x2[i] + part.B2 @ traj.u[i]
            for i in range(len(traj.grid))])
        assert np.abs(resid).max() <= 1e-8

    def test_inconsistent_x2_overridden(self, ref_dae):
        traj = lt.optimal_trajectory(ref_dae, [1.0, 99.0], [1.0], [0.0],
                                     10.0)
        assert traj.notes
        assert abs(traj.x2[0, 0] - 99.0) > 10.0   # replaced, not honored

    def test_identity_descriptor_matches_lqr(self, abc_fperp):
        dplant = lt.DescriptorPlant(E=np.eye(abc_fperp.n), A=abc_fperp.A,
                                    B=abc_fperp.B, C=abc_fperp.C,
                                    F=abc_fperp.F)
        traj_ode = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0],
                                         10.0)
        traj_dae = lt.optimal_trajectory(dplant, [1.0, 1.0], [0.0], [1.0],
                                         10.0)
        assert np.abs(traj_ode.x - traj_dae.x).max() < 1e-10
        assert np.abs(traj_ode.u - traj_dae.u).max() < 1e-10
        assert abs(traj_ode.cost - traj_dae.cost) < 1e-10

    def test_w2_relation_at_nodes(self, ref_dae, gare_ref):
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [1.0], [1.0],
                                     10.0)
        coef = -np.linalg.solve(gare_ref.A_p2.T, gare_ref.A_p12.T)
        const = np.linalg.solve(gare_ref.A_p2.T,
                                gare_ref.partition.C2.T @ np.array([1.0]))
        expect = traj.w1 @ coef.T + const
        assert np.abs(traj.w2 - expect).max() < 1e-12

    def test_unstabilizable_plant_against_oracle(self):
        # the slow mode at +0.5 cannot be stabilized, so there is no
        # stabilizing GARE solution; the finite-horizon problem is still
        # well-posed and needs only the reduced differential equation
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 1.0, 0.0]),
            A=np.array([[0.5, 0.0, 0.0], [0.0, -1.0, 0.3], [0.0, 0.2, -1.0]]),
            B=np.array([[0.0], [1.0], [1.0]]),
            C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.1]]),
            F=np.array([[1.0, 0.5, 0.0]]))
        x0, y_c, y_e, t1 = [1.0, 1.0, 0.0], [0.3, -0.2], [0.5], 5.0
        with pytest.raises(lt.AssumptionViolation) as info:
            lt.solve_gare(plant)
        assert info.value.assumption == "stabilizing-solution"
        errs = {}
        for n_steps in (200, 400):
            sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, t1, n_steps)
            traj = lt.optimal_trajectory(plant, x0, y_c, y_e, t1,
                                         grid=n_steps + 1)
            assert traj.algebraic_residual <= 1e-10
            errs[n_steps] = max(np.abs(traj.x - sol.x).max(),
                                np.abs(traj.u - sol.u).max())
            rel_cost = abs(traj.cost - sol.cost) / (1.0 + abs(traj.cost))
            assert rel_cost < 1e-4
        assert errs[400] < 1e-3
        assert errs[200] / errs[400] >= 3.0          # second-order refinement

    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_near_singular_fast_block_is_cheap(self, eps):
        # A22 = eps leaves the scalar reduced plant a = -1 - 1/eps with
        # r = q = s = 1, so ||H||_1 is about 1/eps; the trajectory's cost
        # must not grow with it, and P1 follows the closed form
        # (P1 - p+) / (P1 - p-) = C e^{-(p+ - p-) tau}, its roots taken
        # without cancellation
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[-1.0, 1.0], [1.0, eps]]),
            B=np.array([[1.0], [0.0]]), C=np.array([[1.0, 0.0]]),
            F=np.array([[1.0, 0.0]]))
        start = time.perf_counter()
        traj = lt.optimal_trajectory(plant, [1.0, 0.0], [1.0], [0.0], 5.0, 41)
        assert time.perf_counter() - start < 1.0
        a = -1.0 - 1.0 / eps
        root = np.sqrt(a * a + 1.0)
        p_plus, p_minus = 1.0 / (root - a), a - root
        c = (1.0 - p_plus) / (1.0 - p_minus)
        decay = c * np.exp(-(p_plus - p_minus) * (5.0 - traj.grid))
        p1 = p_plus + (p_plus - p_minus) * decay / (1.0 - decay)
        assert np.max(np.abs(traj.P[:, 0, 0] - p1) / p1) <= 1e-10

    def test_purely_algebraic_plant(self):
        # E = 0 (d = 0): x1 = u and x2 = 0, so the cost 5 (u - 1)^2 / 2 +
        # 5 u^2 / 2 is least at u = 1/2; P is the constant solution
        # sqrt(2) - 1 of -2p - p^2 + 1 = 0 on x1
        plant = lt.DescriptorPlant(
            E=np.zeros((2, 2)), A=np.diag([-1.0, -2.0]),
            B=np.array([[1.0], [0.0]]), C=np.array([[1.0, 0.0]]),
            F=np.zeros((1, 2)))
        traj = lt.optimal_trajectory(plant, [0.0, 0.0], [1.0], [0.0], 5.0)
        assert traj.d == 0
        assert np.abs(traj.u - 0.5).max() <= 1e-12
        assert np.abs(traj.x - [0.5, 0.0]).max() <= 1e-12
        assert traj.cost == pytest.approx(1.25, rel=1e-12)
        gdre = lt.solve_gdre(plant, 5.0)
        assert np.abs(gdre.P[:, 0, 0] - (SQRT2 - 1.0)).max() <= 1e-12
        sol = lt.transcribe_and_solve(plant, [0.0, 0.0], [1.0], [0.0], 5.0, 500)
        assert np.abs(sol.x - [0.5, 0.0]).max() <= 1e-12
        assert sol.cost == pytest.approx(1.25, rel=1e-12)


class TestDaeTurnpikeReport:
    def test_affine_rate_window(self, ref_dae, gare_ref):
        steady = lt.steady_state(gare_ref.plant, gare_ref, [1.0])
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [1.0], [0.0],
                                     10.0)
        rep = lt.turnpike_report(traj, steady, lam=gare_ref.lambda_bar)
        assert -1.6 <= rep.lambda_hat <= -1.2
        assert rep.envelope_holds

    def test_homogeneous(self, ref_dae, gare_ref):
        steady = lt.steady_state(gare_ref.plant, gare_ref, [0.0])
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [0.0], [0.0],
                                     10.0)
        rep = lt.turnpike_report(traj, steady, lam=gare_ref.lambda_bar)
        assert -1.6 <= rep.lambda_hat <= -1.2
        assert rep.envelope_holds

    def test_synthetic_on_turnpike(self, gare_ref):
        steady = lt.steady_state(gare_ref.plant, gare_ref, [1.0])

        class Synthetic:
            grid = np.linspace(0.0, 10.0, 101)
            x1 = np.tile(steady.x_s[:1], (101, 1))
            x2 = np.tile(steady.x_s[1:], (101, 1))
            u = np.tile(steady.u_s, (101, 1))

            @property
            def x(self):
                return np.hstack([self.x1, self.x2])

        rep = lt.turnpike_report(Synthetic(), steady)
        assert rep.envelope_holds
        assert rep.C_hat == 0.0

