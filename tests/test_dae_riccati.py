import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import lqturnpike as lt
from lqturnpike.dae_riccati import gare_residual, reduced_coefficients
from lqturnpike.errors import AssumptionViolation
from lqturnpike.linalg import PSD_SLACK, RESIDUAL_TOL, solve_are_q

from conftest import SQRT2, gdre_fd_residual, integrate, min_eig_sym

TAU_GRID = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])


def _closed_form_p1(tau):
    """Scalar reference solution of the reduced backward Riccati flow."""
    decay = np.exp(-2.0 * SQRT2 * tau)
    return 1.0 + SQRT2 - 2.0 * SQRT2 * decay / (1.0 + decay)


class TestFastBlock:
    def test_stabilizing_branch(self):
        p2 = lt.solve_fast_block([[-1.0]], [[1.0]], [[0.0]])
        assert p2[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_anti_stabilizing_branch(self):
        # A22 = 1 with no control on the fast block has no stabilizing
        # solution; the anti-stabilizing one solves 2 P2 + 1 = 0
        p2 = lt.solve_fast_block([[1.0]], [[0.0]], [[1.0]])[0, 0]
        assert abs(2.0 * p2 + 1.0) <= RESIDUAL_TOL * (1.0 + abs(p2))
        assert p2 == pytest.approx(-0.5, abs=1e-12)

    def test_lyapunov_type(self):
        p2 = lt.solve_fast_block([[-1.0]], [[0.0]], [[1.0]])
        assert p2[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_gain_beyond_one(self):
        # |C2 B2| = 2 > 1 in the A22 = -I normal form: the fast-block
        # equation 4 P2^2 + 2 P2 - 1 = 0 has the stabilizing root
        # (sqrt 5 - 1)/4, and the plant built on it matches the oracle
        p2 = lt.solve_fast_block([[-1.0]], [[2.0]], [[1.0]])
        assert p2[0, 0] == pytest.approx((np.sqrt(5.0) - 1.0) / 4.0, abs=1e-12)
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[-1.0, 0.5], [0.3, -1.0]]),
            B=np.array([[1.0], [2.0]]), C=np.array([[1.0, 1.0]]),
            F=np.array([[1.0, 0.0]]))
        x0, y_c, y_e, t1, steps = [1.0, 0.0], [1.0], [0.0], 5.0, 500
        sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, t1, steps)
        ric = lt.optimal_trajectory(plant, x0, y_c, y_e, t1, grid=steps + 1)
        assert max(np.abs(ric.x - sol.x).max(),
                   np.abs(ric.u - sol.u).max()) <= 1e-3
        assert abs(sol.cost - ric.cost) / (1.0 + abs(ric.cost)) <= 1e-3

    def test_no_valid_k2(self):
        # A22 = 0 with no control on the fast block leaves K2 singular
        with pytest.raises(AssumptionViolation):
            lt.solve_fast_block([[0.0]], [[0.0]], [[0.0]])

    def test_empty_block(self):
        assert lt.solve_fast_block(np.zeros((0, 0)), np.zeros((0, 1)),
                                   np.zeros((1, 0))).shape == (0, 0)


def _descriptor(a, b, c, f, d):
    e = np.zeros_like(a)
    e[:d, :d] = np.eye(d)
    return lt.DescriptorPlant(E=e, A=a, B=b, C=c, F=f)


def _relative_gap(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    return np.abs(got - expect).max() / max(1.0, np.abs(expect).max())


class TestFastBlockBranch:
    def test_zero_input_anti_stable_fast_mode(self):
        # A22 = 1 > 0 and B = 0: x2 = -0.3 x1 and x1dot = -1.15 x1
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[-1.0, 0.5], [0.3, 1.0]]),
            B=np.zeros((2, 1)), C=np.array([[1.0, 1.0]]),
            F=np.array([[1.0, 0.0]]))
        traj = lt.optimal_trajectory(plant, [1.0, 0.0], [0.0], [0.0], 5.0)
        x1 = np.exp(-1.15 * traj.grid)
        assert np.abs(traj.x[:, 0] / x1 - 1.0).max() <= 1e-12
        assert np.all(np.abs(traj.x[:, 1] + 0.3 * traj.x[:, 0]) <= 1e-12 * x1)
        assert not np.any(traj.u)

    def test_branch_independence(self, monkeypatch):
        # every quantity but the P21 and P2 blocks is the same on either
        # branch of the fast-block equation
        rng = np.random.default_rng(23)
        d, n2, m, k = 2, 2, 2, 2
        solved = 0
        for _ in range(12):
            a = rng.standard_normal((d + n2, d + n2))
            b = rng.standard_normal((d + n2, m))
            c = rng.standard_normal((k, d + n2))
            f = np.hstack([rng.standard_normal((k, d)), np.zeros((k, n2))])
            plant = _descriptor(a, b, c, f, d)
            x0 = np.concatenate([rng.standard_normal(d), np.zeros(n2)])
            y_c, y_e = rng.standard_normal(k), rng.standard_normal(k)
            runs = []
            for branch in (1.0, -1.0):
                monkeypatch.setattr(
                    "lqturnpike.dae_riccati.solve_fast_block",
                    lambda a22, b2, c2, s=branch: s * solve_are_q(
                        s * a22, b2 @ b2.T, c2.T @ c2))
                try:
                    gare = lt.solve_gare(plant)
                except AssumptionViolation:
                    break
                traj = lt.optimal_trajectory(plant, x0, y_c, y_e, 4.0, 41)
                steady = lt.steady_state(plant, gare, y_c)
                runs.append((gare, [
                    gare.P1, gare.A_bar, gare.B_bar @ gare.B_bar.T,
                    gare.C_bar, lt.gramians(gare, gare.B_bar).W,
                    steady.x_s, steady.u_s, traj.x, traj.u]))
            if len(runs) < 2:
                continue
            solved += 1
            (stab, first), (anti, second) = runs
            assert np.abs(stab.P2 - anti.P2).max() > 1e-3
            for got, expect in zip(second, first):
                assert _relative_gap(got, expect) <= 1e-10
        assert solved >= 6

    def test_both_branches_refused(self):
        # the fast block (x2, x3, x4) has the undamped pair +-i in (x2, x3),
        # which neither B2 nor C2 sees: its Hamiltonian has eigenvalues on
        # the axis for A22 and -A22 alike, while every structural flag holds
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0, 0.0, 0.0]),
            A=[[-1.0, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0],
               [0.0, -1.0, 0.0, 0.0], [0.3, 0.0, 0.0, -1.0]],
            B=[[1.0], [0.0], [0.0], [1.0]], C=[[1.0, 0.0, 0.0, 1.0]],
            F=[[1.0, 0.0, 0.0, 0.0]])
        rep = lt.structural_report(plant)
        assert all((rep.regular, rep.impulse_controllable, rep.impulse_free,
                    rep.finite_dynamics_stable, rep.f_compatible))
        for solve in (lambda: lt.solve_gare(plant),
                      lambda: lt.solve_gdre(plant, 5.0, 11),
                      lambda: lt.optimal_trajectory(
                          plant, [1.0, 0.0, 0.0, 0.0], [0.0], [0.0], 5.0, 11)):
            with pytest.raises(AssumptionViolation) as err:
                solve()
            assert err.value.assumption == "fast-block"
            assert "(stabilizing: " in str(err.value)
            assert "; anti-stabilizing: " in str(err.value)

    def test_zero_input_fast_block_family(self):
        # seed 5, 60 random B2 = 0 descriptor plants, under 1 s: whatever
        # the signs of its spectrum, the fast block is solved (one-signed on
        # one branch, mixed by one Bartels-Stewart solve) and matches the
        # standard plant left after eliminating x2 = -A22^{-1} A21 x1.
        # Draws with a fast eigenvalue near the imaginary axis (2, 17, 18,
        # 22, 38, 40, 45, 54, 55 and 59) have a stiff eliminated plant
        # (reduced weights up to 1e6) and cost no more than the others
        rng = np.random.default_rng(5)
        counts = {"hurwitz": 0, "anti-hurwitz": 0, "mixed": 0}
        for _ in range(60):
            d, n2 = rng.integers(1, 4, size=2)
            m, k = rng.integers(1, 3, size=2)
            n = d + n2
            a = rng.standard_normal((n, n))
            b = np.vstack([rng.standard_normal((d, m)), np.zeros((n2, m))])
            c = rng.standard_normal((k, n))
            f = np.hstack([rng.standard_normal((k, d)), np.zeros((k, n2))])
            plant = _descriptor(a, b, c, f, d)
            x0 = np.concatenate([rng.standard_normal(d), np.zeros(n2)])
            y_c, y_e = rng.standard_normal(k), rng.standard_normal(k)
            re = np.linalg.eigvals(a[d:, d:]).real
            counts["hurwitz" if np.all(re < 0.0) else
                   "anti-hurwitz" if np.all(re > 0.0) else "mixed"] += 1
            slave = -np.linalg.solve(a[d:, d:], a[d:, :d])
            std = lt.LtiPlant(A=a[:d, :d] + a[:d, d:] @ slave,
                              B=b[:d], C=c[:, :d] + c[:, d:] @ slave,
                              F=f[:, :d])
            got = lt.optimal_trajectory(plant, x0, y_c, y_e, 3.0, 51)
            ref = lt.optimal_trajectory(std, x0[:d], y_c, y_e, 3.0, 51)
            assert _relative_gap(got.x[:, :d], ref.x) <= 1e-10
            assert _relative_gap(got.x[:, d:], ref.x @ slave.T) <= 1e-10
            assert _relative_gap(got.u, ref.u) <= 1e-10
        assert min(counts.values()) >= 5, counts

    def test_mixed_zero_input_against_oracle(self):
        # A22 = diag(1, -2) with B2 = 0: neither branch of the Riccati form
        # exists, and the linear solve matches the oracle, under 0.1 s
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0, 0.0]),
            A=np.array([[-1.0, 0.5, 0.2], [0.3, 1.0, 0.0], [0.1, 0.0, -2.0]]),
            B=np.array([[1.0], [0.0], [0.0]]), C=np.array([[1.0, 1.0, 1.0]]),
            F=np.array([[1.0, 0.0, 0.0]]))
        x0, y_c, y_e, t1, steps = [1.0, 0.0, 0.0], [1.0], [0.0], 5.0, 500
        sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, t1, steps)
        ric = lt.optimal_trajectory(plant, x0, y_c, y_e, t1, grid=steps + 1)
        assert max(np.abs(ric.x - sol.x).max(),
                   np.abs(ric.u - sol.u).max()) <= 1e-3
        assert abs(sol.cost - ric.cost) / (1.0 + abs(ric.cost)) <= 1e-3

    @pytest.mark.parametrize("a22", [[[0.0]], [[1.0, 0.0], [0.0, -1.0]],
                                     [[0.0, 1.0], [-1.0, 0.0]]],
                             ids=["singular", "opposite_pair", "imaginary_pair"])
    def test_zero_input_refused_before_solve(self, a22):
        # with B2 = 0 the linear fast-block equation has no unique solution
        # (or K2 = A22* is singular); it is refused by name, and scipy's
        # Bartels-Stewart solve, which would warn and perturb, is not run
        n2 = len(a22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssumptionViolation) as err:
                lt.solve_fast_block(a22, np.zeros((n2, 1)), np.ones((1, n2)))
        assert err.value.assumption == "fast-block"


class TestReducedCoefficients:
    def test_reference_values(self, gare_ref):
        red = gare_ref.reduced
        assert red.A_t[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert red.R_t[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert red.Q_t[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_normal_form_psd(self):
        # in the impulse-free normal form A22 = -I, A21 = 0 the fast state is
        # x2 = B2 u, so the running cost |C1 x1 + C2 B2 u|^2 + |u|^2 is a
        # semidefinite form whatever the gain |C2 B2|, and so is the reduced
        # state weight C1* (I + C2 B2 B2* C2*)^{-1} C1
        rng = np.random.default_rng(41)
        for gain, _ in itertools.product((0.95, 2.0, 5.0), range(8)):
            d, n2, m, k = 2, 2, 2, 2
            b2 = rng.standard_normal((n2, m))
            c2 = rng.standard_normal((k, n2))
            sv = np.linalg.svd(c2 @ b2, compute_uv=False)[0]
            c2 *= gain / max(sv, 1e-9)
            part = lt.SemiExplicitPartition(
                d=d, A11=rng.standard_normal((d, d)),
                A12=rng.standard_normal((d, n2)),
                A21=np.zeros((n2, d)), A22=-np.eye(n2),
                B1=rng.standard_normal((d, m)), B2=b2,
                C1=rng.standard_normal((k, d)), C2=c2,
                S1=np.zeros((d, d)), F1=np.zeros((k, d)))
            p2 = lt.solve_fast_block(part.A22, part.B2, part.C2)
            red = reduced_coefficients(part, p2)
            assert min_eig_sym(red.Q_t) >= -1e-9

    def test_indefinite_weight_rejected(self):
        part = lt.SemiExplicitPartition(
            d=1, A11=np.array([[0.0]]), A12=np.array([[0.0]]),
            A21=np.array([[0.0]]), A22=np.array([[-1.0]]),
            B1=np.array([[0.0]]), B2=np.array([[2.0]]),
            C1=np.array([[1.0]]), C2=np.array([[1.0]]),
            S1=np.array([[0.0]]), F1=np.array([[0.0]]))
        # deliberately inconsistent fast-block choice makes Qt indefinite
        with pytest.raises(AssumptionViolation):
            reduced_coefficients(part, np.array([[0.0]]))


class TestSolveGare:
    def test_reference_solution(self, ref_dae, gare_ref):
        expect_p = np.diag([1.0 + SQRT2, 0.0])
        assert np.abs(gare_ref.P_plus - expect_p).max() < 1e-9
        expect_ap = np.array([[-SQRT2, 0.0], [-1.0 - SQRT2, -1.0]])
        assert np.abs(gare_ref.A_plus - expect_ap).max() < 1e-9
        assert gare_ref.A_bar[0, 0] == pytest.approx(-SQRT2, abs=1e-9)
        assert gare_ref.B_bar[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert gare_ref.C_bar[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert gare_ref.lambda_bar == pytest.approx(-SQRT2, abs=1e-9)
        assert gare_ref.residual <= 1e-10
        assert np.abs(gare_ref.K2 - gare_ref.A_p2.T).max() < 1e-12

    def test_assembled_residual_and_symmetry(self, ref_dae, gare_ref):
        assert gare_residual(ref_dae, gare_ref.P_plus) <= 1e-10
        ep = ref_dae.E.T @ gare_ref.P_plus
        assert np.abs(ep - ep.T).max() < 1e-12

    def test_identity_descriptor_reduces(self, abc_fperp, are_abc):
        gare = lt.solve_gare(lt.DescriptorPlant(
            E=np.eye(abc_fperp.n), A=abc_fperp.A, B=abc_fperp.B,
            C=abc_fperp.C, F=abc_fperp.F))
        assert np.abs(gare.P_plus - are_abc.P_plus).max() < 1e-10
        assert gare.lambda_bar == pytest.approx(are_abc.lambda_bar, abs=1e-8)
        assert np.abs(gare.A_bar - are_abc.A_plus).max() < 1e-10

    def test_terminal_incompatibility_rejected(self):
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.diag([1.0, -1.0]),
            B=np.array([[1.0], [1.0]]), C=np.array([[1.0, 0.0]]),
            F=np.array([[0.0, 1.0]]))
        with pytest.raises(AssumptionViolation) as err:
            lt.solve_gare(plant)
        assert err.value.assumption == "terminal-compatibility"

    def test_impulse_uncontrollable_rejected(self):
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]), F=np.zeros((1, 2)))
        with pytest.raises(AssumptionViolation) as err:
            lt.solve_gare(plant)
        assert err.value.assumption == "impulse-controllability"

    def test_singular_pencil_refused(self):
        # sE - A = diag(s, 0) is singular for every s: the structural report
        # records it and stops, and every solve refuses it by name
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.zeros((2, 2)),
            B=np.array([[1.0], [1.0]]), C=np.array([[1.0, 0.0]]),
            F=np.array([[1.0, 0.0]]))
        rep = lt.structural_report(plant)
        assert not rep.regular
        assert any("remaining checks skipped" in note for note in rep.notes)
        for solve in (lambda: lt.solve_gare(plant),
                      lambda: lt.solve_gdre(plant, 5.0),
                      lambda: lt.optimal_trajectory(plant, [1.0, 0.0], [0.0],
                                                    [0.0], 5.0)):
            with pytest.raises(AssumptionViolation) as err:
                solve()
            assert err.value.assumption == "regularity"

    def test_randomized_reduction_identities(self):
        # on every solvable random instance the reduced closed loop must be
        # the Schur complement of the assembled one
        rng = np.random.default_rng(71)
        solved = 0
        for _ in range(25):
            d, n2, m, k = 2, 2, 2, 2
            n = d + n2
            e = np.zeros((n, n))
            e[:d, :d] = np.eye(d)
            a = rng.standard_normal((n, n))
            a[d:, d:] -= 1.5 * np.eye(n2)
            b = rng.standard_normal((n, m))
            c = np.hstack([rng.standard_normal((k, d)),
                           0.2 * rng.standard_normal((k, n2))])
            f = np.hstack([rng.standard_normal((k, d)), np.zeros((k, n2))])
            plant = lt.DescriptorPlant(E=e, A=a, B=b, C=c, F=f)
            try:
                gare = lt.solve_gare(plant)
            except (AssumptionViolation, lt.NumericalError):
                continue
            solved += 1
            red = gare.reduced
            scale = 1.0 + np.abs(gare.A_bar).max()
            assert np.abs(gare.A_bar
                          - (red.A_t - red.R_t @ gare.P1)).max() < 1e-10 * scale
            assert np.abs(gare.B_bar @ gare.B_bar.T
                          - red.R_t).max() < 1e-10 * scale
            assert np.abs(gare.K2 - gare.A_p2.T).max() < 1e-10 * scale
        assert solved >= 8


def _unreachable_unstable(rng, n, m):
    """A rotated pair (A, B) whose trailing block, with its rightmost
    eigenvalue's real part in [0.1, 1], no input reaches."""
    nu = int(rng.integers(1, n))
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a[n - nu:, :n - nu] = 0.0
    blk = a[n - nu:, n - nu:]
    blk += (rng.uniform(0.1, 1.0)
            - np.linalg.eigvals(blk).real.max()) * np.eye(nu)
    b = np.vstack([rng.standard_normal((n - nu, m)), np.zeros((nu, m))])
    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return rot @ a @ rot.T, rot @ b


class TestUnreachableUnstableMode:
    """An unstable mode that no input reaches leaves no stabilizing
    solution; the reduced ARE's X11 is then singular only to rounding, and
    the refusal names the assumption, not the conditioning."""

    def test_plant(self):
        # the eigenvalue 1 of A has left eigenvector orthogonal to B
        plant = lt.LtiPlant(
            A=[[-0.424, 0.768, -0.4], [1.068, 0.424, 0.3], [-0.2, 0.4, -0.7]],
            B=[[-0.8], [0.6], [0.5]], C=[[1.0, 1.0, 0.0]], F=[[0.0, 1.0, 1.0]])
        assert not lt.structural_report(plant).finite_dynamics_stable
        with pytest.raises(AssumptionViolation) as err:
            lt.solve_gare(plant)
        assert err.value.assumption == "stabilizing-solution"
        assert "not stabilizable" in str(err.value)

    @pytest.mark.parametrize("descriptor", [False, True],
                             ids=["standard", "descriptor"])
    def test_rotated_family(self, descriptor):
        # a descriptor plant carries the planted pair as its slow dynamics
        # behind a coupled fast block, A22 Hurwitz and C2 = 0, so P2 = 0
        rng = np.random.default_rng(37)
        for _ in range(40):
            d, m, k = int(rng.integers(2, 8)), 1 + int(rng.integers(2)), 2
            n2 = int(rng.integers(1, 4)) if descriptor else 0
            a_s, b_s = _unreachable_unstable(rng, d, m)
            a12 = rng.standard_normal((d, n2))
            a21 = rng.standard_normal((n2, d))
            a22 = -np.eye(n2) + 0.1 * rng.standard_normal((n2, n2))
            b2 = rng.standard_normal((n2, m))
            lift = a12 @ np.linalg.inv(a22)
            a = np.block([[a_s + lift @ a21, a12], [a21, a22]])
            b = np.vstack([b_s + lift @ b2, b2])
            c, f = (np.hstack([rng.standard_normal((k, d)), np.zeros((k, n2))])
                    for _ in range(2))
            plant = _descriptor(a, b, c, f, d)
            assert not lt.structural_report(plant).finite_dynamics_stable
            with pytest.raises(AssumptionViolation) as err:
                lt.solve_gare(plant)
            assert err.value.assumption == "stabilizing-solution"


class TestSolveGdre:
    def test_scalar_closed_form(self, ref_dae):
        gdre = lt.solve_gdre(ref_dae, 10.0)
        tau = 10.0 - gdre.grid
        err = np.abs(gdre.P1[:, 0, 0] - _closed_form_p1(tau)).max()
        assert err < 1e-7
        assert np.abs(gdre.P21).max() == 0.0

    def test_equilibrium(self, ref_dae, gare_ref):
        f_eq = np.array([[np.sqrt(1.0 + SQRT2), 0.0]])
        plant = lt.DescriptorPlant(E=ref_dae.E, A=ref_dae.A, B=ref_dae.B,
                                   C=ref_dae.C, F=f_eq)
        gdre = lt.solve_gdre(plant, 10.0)
        assert np.abs(gdre.P1 - gare_ref.P1).max() < 1e-8

    def test_terminal_weight_exact(self, ref_dae):
        gdre = lt.solve_gdre(ref_dae, 10.0)
        p_end = gdre.P[len(gdre.grid) - 1]
        assert np.array_equal(ref_dae.E.T @ p_end,
                              ref_dae.F.T @ ref_dae.F)

    def test_fd_residual_within_bound(self, ref_dae):
        gdre = lt.solve_gdre(ref_dae, 10.0)
        resid, bound = gdre_fd_residual(gdre, ref_dae)
        assert resid <= bound

    @pytest.mark.parametrize("f_row, noted", [
        ([1e-10, np.sqrt(3.0)], True), ([np.sqrt(3.0), 0.0], False)])
    def test_keeps_the_trajectory_notes(self, f_row, noted):
        # F = [1e-10, sqrt 3] barely sees the unstable mode: the rank-gap
        # note of the trajectory that the solve is read from stays on it;
        # F-perp splits cleanly
        plant = lt.LtiPlant(A=np.diag([2.0, -1.0]), B=np.array([[1.0], [1.0]]),
                            C=np.array([[0.0, np.sqrt(3.0)]]),
                            F=np.array([f_row]))
        gdre = lt.solve_gdre(plant, 10.0)
        traj = lt.optimal_trajectory(plant, [0.0, 0.0], [0.0], [0.0], 10.0)
        assert gdre.notes == traj.notes
        assert any("rank gap 2.9e-11" in note for note in gdre.notes) == noted

    def test_structural_invariants(self, ref_dae, gare_ref):
        gdre = lt.solve_gdre(ref_dae, 10.0)
        bbt = ref_dae.B @ ref_dae.B.T
        for i in range(len(gdre.grid)):
            p = gdre.P[i]
            ep = ref_dae.E.T @ p
            assert np.abs(ep - ep.T).max() < 1e-10
            # closed-loop fast block stays pinned at its algebraic value
            cl = ref_dae.A - bbt @ p
            assert np.abs(cl[1:, 1:] - gare_ref.A_p2).max() < 1e-10


class TestStructuredDelta:
    def test_terminal_value(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        got = delta.delta1(10.0, 10.0)[0, 0]
        assert got == pytest.approx(-SQRT2, abs=1e-12)

    def test_convergence_bracket(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        wbar = delta.gram_bar.W[0, 0]
        assert wbar == pytest.approx(1.0 / (2.0 * SQRT2), abs=1e-12)
        bracket = 1.0 + wbar * (1.0 - (1.0 + SQRT2))
        assert bracket == pytest.approx(0.5, abs=1e-12)

    def test_matches_integrated_gdre(self, ref_dae, gare_ref):
        gdre = lt.solve_gdre(ref_dae, 10.0)
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        err = max(
            abs(delta.delta1(t, 10.0)[0, 0] - (p1[0, 0] - gare_ref.P1[0, 0]))
            for t, p1 in zip(gdre.grid, gdre.P1))
        assert err < 1e-7

    def test_block_structure(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        full = delta.full(3.0, 10.0)
        assert np.abs(full[:, 1]).max() == 0.0
        coupling = delta.coupling()
        d1 = delta.delta1(3.0, 10.0)
        assert np.abs(full[1:, :1] - coupling @ d1).max() < 1e-10

    def test_sliding_monotone_on_reduced_system(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        vals = [delta.at(tau) for tau in TAU_GRID]
        for older, newer in zip(vals, vals[1:]):
            assert min_eig_sym(older - newer) >= -PSD_SLACK
        wnorm = np.linalg.norm(delta.gram_bar.W, 2)
        for tau in TAU_GRID:
            assert np.linalg.norm(delta.gram_bar.at(tau), 2) <= wnorm + 1e-12

    def test_nonconvergent_terminal_rejected(self, gare_ref):
        # synthetic terminal block on the singular bracket branch
        s1_bad = np.array([[1.0 - SQRT2]])
        with pytest.raises(AssumptionViolation):
            lt.structured_delta(gare_ref, s1_bad)

    def test_terminal_block_of_wrong_size_rejected(self, gare_ref):
        with pytest.raises(ValueError, match=r"^S1 must be 1x1$"):
            lt.structured_delta(gare_ref, np.eye(2))


class TestDecoupledClosedLoop:
    def test_equilibrium(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.P1)
        for t in (0.0, 4.0, 10.0):
            assert np.abs(delta.A1_hat(t, 10.0) - gare_ref.A_bar).max() < 1e-12
            expect = -np.linalg.solve(gare_ref.A_p2, gare_ref.A_p21)
            assert np.abs(delta.A2_hat(t, 10.0) - expect).max() < 1e-12

    def test_reference_formula(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        for t in (0.0, 5.0, 10.0):
            expect = -(1.0 + SQRT2) - delta.delta1(t, 10.0)[0, 0]
            assert delta.A2_hat(t, 10.0)[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_simulated_decoupling(self, ref_dae, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [0.0], [0.0],
                                     10.0)
        err = max(
            np.abs(traj.x2[i] - delta.A2_hat(t, 10.0) @ traj.x1[i]).max()
            for i, t in enumerate(traj.grid))
        assert err < 1e-7

    def test_fundamental_solution_against_integration(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        ts, us = integrate(lambda t, u: delta.A1_hat(t, 10.0) @ u, np.eye(1),
                           10.0, 0.0, grid=21)
        err = max(
            np.abs(delta.U(t, 10.0) - u).max() / (1.0 + np.abs(u).max())
            for t, u in zip(ts, us))
        assert err < 1e-6

    def test_transition_composition(self, gare_ref):
        delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
        rng = np.random.default_rng(17)
        for _ in range(6):
            r, mid, t = np.sort(rng.uniform(0.0, 10.0, 3))
            f_tr = delta.forward(t, r, 10.0)
            scale = 1.0 + np.abs(f_tr).max()
            prod = delta.forward(t, mid, 10.0) @ delta.forward(mid, r, 10.0)
            assert np.abs(prod - f_tr).max() / scale < 1e-8
            # and it is U(t) U(r)^{-1}
            assert np.abs(f_tr @ delta.U(r, 10.0)
                          - delta.U(t, 10.0)).max() / scale < 1e-8


def _random_gare(rng, descriptor):
    n = 12 if descriptor else 9
    d = n - 3 if descriptor else n
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a[d:, d:] -= 1.5 * np.eye(n - d)
    b = rng.standard_normal((n, 2))
    c = rng.standard_normal((2, n))
    c[:, d:] *= 0.1
    f = np.zeros((2, n))
    f[:, :d] = rng.standard_normal((2, d))
    e = np.zeros((n, n))
    e[:d, :d] = np.eye(d)
    return lt.solve_gare(lt.DescriptorPlant(E=e, A=a, B=b, C=c, F=f))


class TestSharedSchurForms:
    """``solve_gare`` takes one real Schur form of Abar, from which
    ``lambda_bar`` is read and ``gramians`` solves W."""

    @pytest.mark.parametrize("descriptor", [False, True],
                             ids=["standard", "descriptor"])
    def test_gramian_is_scipys_solve(self, descriptor):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = _random_gare(rng, descriptor)
            w = lt.gramians(g, g.B_bar).W
            bbt = g.B_bar @ g.B_bar.T
            x = sla.solve_continuous_lyapunov(g.A_bar, -0.5 * (bbt + bbt.T))
            assert np.array_equal(w, 0.5 * (x + x.T))

    @pytest.mark.parametrize("descriptor", [False, True],
                             ids=["standard", "descriptor"])
    def test_lambda_bar_is_the_spectral_abscissa(self, descriptor):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = _random_gare(rng, descriptor)
            t, z = g.A_bar_schur
            assert np.abs(z @ t @ z.T - g.A_bar).max() < 1e-12 * (
                1.0 + np.abs(g.A_bar).max())
            lam = np.linalg.eigvals(g.A_bar)
            assert g.lambda_bar == pytest.approx(np.max(lam.real), abs=1e-10)
            assert g.lambda_bar < 0.0

    def test_gramian_rows_checked(self, gare_ref):
        with pytest.raises(lt.DimensionError, match="^Q has shape"):
            lt.gramians(gare_ref, np.ones((3, 1)))
