import numpy as np
import pytest
import scipy.linalg as sla

import lqturnpike as lt
from lqturnpike.errors import AssumptionViolation, DimensionError, NumericalError
from lqturnpike.linalg import (PSD_SLACK, RESIDUAL_TOL, rank_cut, rank_svd,
                               solve_are_q, spectral_abscissa)

from conftest import A_PLUS_ABC, P_PLUS_ABC, SQRT2, W_ABC, min_eig_sym


class TestExpm:
    def test_zero(self):
        assert np.allclose(lt.expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        got = lt.expm(np.diag([np.log(2.0), 0.0]))
        assert np.allclose(got, np.diag([2.0, 1.0]), rtol=1e-13)

    def test_nilpotent(self):
        got = lt.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(got, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_inverse_identity(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4, 6):
            for _ in range(5):
                m = rng.standard_normal((n, n))
                m *= 5.0 / max(np.linalg.norm(m, 2), 1e-12)
                prod = lt.expm(m) @ lt.expm(-m)
                assert np.abs(prod - np.eye(n)).max() < 1e-10

    def test_large_norm_accuracy(self):
        # diagonalizable case with a closed form, norm about 50
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.array([-30.0, -1.0, 2.0, 25.0])
        m = q @ np.diag(lam) @ q.T
        exact = q @ np.diag(np.exp(lam)) @ q.T
        assert np.abs(lt.expm(m) - exact).max() < 1e-12 * np.abs(exact).max()

    def test_non_square(self):
        with pytest.raises(DimensionError):
            lt.expm(np.zeros((2, 3)))


class TestLyapunov:
    def test_scalar(self):
        assert np.allclose(lt.solve_lyapunov([[-1.0]], [[2.0]]), [[1.0]])
        got = lt.solve_lyapunov([[-SQRT2]], [[1.0]])
        assert np.allclose(got, [[1.0 / (2.0 * SQRT2)]])

    def test_reference_gramian(self):
        w = lt.solve_lyapunov(A_PLUS_ABC, np.ones((2, 2)))
        assert np.abs(w - W_ABC).max() < 1e-12

    def test_random_stable(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            for _ in range(5):
                a = rng.standard_normal((n, n))
                a -= (spectral_abscissa(a) + 0.5) * np.eye(n)
                g = rng.standard_normal((n, n))
                q = g @ g.T
                x = lt.solve_lyapunov(a, q)
                assert np.abs(x - x.T).max() < 1e-12 * (1 + np.abs(x).max())
                resid = np.linalg.norm(a @ x + x @ a.T + q, "fro")
                assert resid <= RESIDUAL_TOL * (1 + np.linalg.norm(x, "fro"))
                assert min_eig_sym(x) >= -PSD_SLACK

    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_large_random_stable(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        a -= (spectral_abscissa(a) + 0.5) * np.eye(n)
        g = rng.standard_normal((n, 3))
        q = g @ g.T
        x = lt.solve_lyapunov(a, q)
        assert np.abs(x - x.T).max() < 1e-12 * (1 + np.abs(x).max())
        resid = np.linalg.norm(a @ x + x @ a.T + q, "fro")
        assert resid <= RESIDUAL_TOL * (1 + np.linalg.norm(x, "fro"))
        assert min_eig_sym(x) >= -PSD_SLACK

    def test_unstable_rejected(self):
        with pytest.raises(AssumptionViolation):
            lt.solve_lyapunov([[1.0]], [[1.0]])

    @pytest.mark.parametrize("re, seed", [(1e-3, 5), (0.0, None), (0.0, 0),
                                          (0.0, 4)],
                             ids=["unstable", "on_axis", "on_axis_rotated_0",
                                  "on_axis_rotated_4"])
    def test_complex_pair_refused(self, re, seed):
        # the Hurwitz check reads the real part of the pair re +- 3i off the
        # diagonal of the standardized 2x2 Schur block, rotated by the
        # seed's orthogonal factor.  A rotation leaves the pair on the axis
        # at about -1e-16 (seeds 0 and 4), within rounding of zero
        a = np.array([[re, 3.0, 1.0], [-3.0, re, 2.0], [0.0, 0.0, -1.0]])
        if seed is not None:
            rng = np.random.default_rng(seed)
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            a = q @ a @ q.T
        with pytest.raises(AssumptionViolation) as err:
            lt.solve_lyapunov(a, np.eye(3))
        assert err.value.assumption == "stability"


class TestAre:
    def test_scalar_zero_weight(self):
        p = solve_are_q([[-1.0]], [[1.0]], [[0.0]])
        assert np.allclose(p, [[0.0]], atol=1e-12)

    def test_scalar(self):
        p = solve_are_q([[1.0]], [[1.0]], [[1.0]])
        assert abs(p[0, 0] - (1.0 + SQRT2)) < 1e-12

    def test_reference_example(self, abc_fperp):
        p = solve_are_q(abc_fperp.A, abc_fperp.B @ abc_fperp.B.T,
                        abc_fperp.C.T @ abc_fperp.C)
        assert np.abs(p - P_PLUS_ABC).max() < 1e-12
        resid = np.linalg.norm(
            abc_fperp.A.T @ p + p @ abc_fperp.A
            - p @ abc_fperp.B @ abc_fperp.B.T @ p
            + abc_fperp.C.T @ abc_fperp.C, "fro")
        assert resid <= 1e-12
        eigs = np.sort(np.linalg.eigvals(
            abc_fperp.A - abc_fperp.B @ abc_fperp.B.T @ p).real)
        assert np.abs(eigs - [-2.0, -2.0]).max() < 1e-6
        # the non-stabilizing root diag(0, 1) must never come back
        assert np.abs(p - np.diag([0.0, 1.0])).max() > 1.0

    def test_newton_polish_weak_input(self):
        # the Schur step alone leaves a residual of about 1e4 against a
        # bound of 2e2 here; the Kleinman polish brings P+ to full accuracy
        p = solve_are_q(np.array([[1.0]]), np.array([[1e-10]]),
                        np.array([[1.0]]))
        expected = (1.0 + np.sqrt(1.0 + 1e-10)) / 1e-10
        assert abs(p[0, 0] - expected) <= 1e-12 * expected

    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n, m, k = 3, 2, 2
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((k, n))
            p = solve_are_q(a, b @ b.T, c.T @ c)
            resid = np.linalg.norm(
                a.T @ p + p @ a - p @ b @ b.T @ p + c.T @ c, "fro")
            assert resid <= RESIDUAL_TOL * (1 + np.linalg.norm(p, "fro"))
            assert spectral_abscissa(a - b @ b.T @ p) < 0.0

    @pytest.mark.parametrize("n", [10, 33])
    def test_matches_scipy_care(self, n):
        rng = np.random.default_rng([n, 0])
        m = n // 3
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal((n, m))
        c = rng.standard_normal((m, n))
        p = solve_are_q(a, b @ b.T, c.T @ c)
        expected = sla.solve_continuous_are(a, b, c.T @ c, np.eye(m))
        assert (np.linalg.norm(p - expected, "fro")
                <= 1e-8 * np.linalg.norm(expected, "fro"))
        assert spectral_abscissa(a - b @ b.T @ p) < 0.0

    @pytest.mark.parametrize("n", [40, 60])
    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_refused_as_such(self, n, seed):
        # stabilizable and detectable, but ||P+|| is 1e8 to 1e14: the
        # refusal must name the conditioning, not deny that P+ exists
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal((n, 2))
        c = rng.standard_normal((2, n))
        with pytest.raises(NumericalError, match=r"cond\(X11\)") as info:
            solve_are_q(a, b @ b.T, c.T @ c)
        assert "no stabilizing solution" not in str(info.value)

    def test_imaginary_axis_detected(self):
        # undamped oscillator with no control authority and no weight
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(AssumptionViolation):
            solve_are_q(a, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_no_stabilizing_solution(self):
        # unstable mode invisible to both B and C
        with pytest.raises(AssumptionViolation):
            solve_are_q(np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))


class TestRankAndSpectra:
    def test_rank_examples(self):
        assert rank_svd(np.eye(3)) == 3
        assert rank_svd(np.zeros((2, 3))) == 0
        assert rank_svd(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1

    def test_rank_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 5))
            r = rank_svd(m)
            perm = rng.permutation(4)
            assert rank_svd(m[perm]) == r
            q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            assert rank_svd(q1 @ m @ q2) == r

    def test_spectral_abscissa(self):
        assert spectral_abscissa(np.diag([2.0, -1.0])) == pytest.approx(2.0)
        # the closed-loop eigenvalue -2 is defective, so sqrt(eps) accuracy
        # is all the eigensolver can promise there
        assert spectral_abscissa(A_PLUS_ABC) == pytest.approx(-2.0, abs=1e-6)
        assert spectral_abscissa([[-SQRT2]]) == pytest.approx(-SQRT2)

    def test_min_eig_sym(self):
        assert min_eig_sym(np.eye(2)) == pytest.approx(1.0)
        assert min_eig_sym(np.diag([3.0, -0.5])) == pytest.approx(-0.5)
        expected = (77.0 - 5.0 * np.sqrt(145.0)) / 18.0
        assert min_eig_sym(P_PLUS_ABC) == pytest.approx(expected, abs=1e-12)

    def test_min_eig_sym_asymmetric(self):
        with pytest.raises(DimensionError):
            min_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTolerances:
    def test_defaults(self):
        assert RESIDUAL_TOL == 1e-8 and PSD_SLACK == 1e-9
        eps = np.finfo(float).eps
        assert rank_cut((5, 3)) == pytest.approx(5 * eps)
