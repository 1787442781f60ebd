import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import lqturnpike as lt
from lqturnpike.errors import SingularBracketError
from lqturnpike.linalg import PSD_SLACK

from conftest import (P_PLUS_ABC, SQRT2, gdre_fd_residual, integrate, min_eig_sym,
                      riccati_field)

TAU_GRID = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])


def _p_interp(plant, t1, grid=2001):
    dre = lt.solve_gdre(plant, t1, grid)
    field = riccati_field(plant)
    slopes = np.array([field(t, p) for t, p in zip(dre.grid, dre.P)])
    return dre, CubicHermiteSpline(dre.grid, dre.P.reshape(grid, -1),
                                   slopes.reshape(grid, -1))


class TestStabilizingSolution:
    def test_bundle(self, abc_fperp, are_abc):
        assert np.abs(are_abc.P_plus - P_PLUS_ABC).max() < 1e-12
        assert are_abc.lambda_bar == pytest.approx(-2.0, abs=1e-6)
        assert are_abc.residual <= 1e-12


def test_kept_former_names_are_the_canonical_functions(ref_dae, gare_ref):
    # the benchmark's workloads still call these former names
    from lqturnpike import dae_lqr, riccati
    assert lt.stabilizing_solution is riccati.stabilizing_solution
    assert lt.stabilizing_solution is lt.solve_gare
    assert lt.dae_optimal_trajectory is lt.optimal_trajectory
    assert lt.dae_steady_state is dae_lqr.dae_steady_state
    st, canonical = (lt.dae_steady_state(gare_ref, [1.0]),
                     lt.steady_state(ref_dae, gare_ref, [1.0]))
    assert np.array_equal(st.x_s, canonical.x_s)
    assert np.array_equal(st.u_s, canonical.u_s)
    assert gare_ref.lam == gare_ref.lambda_bar
    assert not hasattr(lt, "solve_dre") and not hasattr(riccati, "solve_dre")


class TestSolveDre:
    def test_equilibrium(self, abc_fperp, are_abc):
        # terminal weight equal to the stabilizing solution freezes the flow
        f_eq = np.linalg.cholesky(are_abc.P_plus).T
        plant = lt.LtiPlant(A=abc_fperp.A, B=abc_fperp.B, C=abc_fperp.C, F=f_eq)
        dre = lt.solve_gdre(plant, 10.0)
        assert np.abs(dre.P - are_abc.P_plus).max() < 1e-8

    def test_figure_norms(self, abc_fperp, abc_fc):
        dre = lt.solve_gdre(abc_fperp, 10.0)
        norms = np.linalg.norm(dre.P, axis=(1, 2))
        assert norms[0] == pytest.approx(7.6795, abs=1e-3)
        dre_fc = lt.solve_gdre(abc_fc, 10.0)
        norms_fc = np.linalg.norm(dre_fc.P, axis=(1, 2))
        assert norms_fc[0] == pytest.approx(1.0, abs=1e-6)

    def test_terminal_and_symmetry(self, abc_fperp):
        dre = lt.solve_gdre(abc_fperp, 10.0)
        assert np.array_equal(dre.P[-1], abc_fperp.terminal_weight)
        asym = np.abs(dre.P - np.transpose(dre.P, (0, 2, 1))).max()
        assert asym < 1e-10

    def test_fd_residual_within_bound(self, abc_fperp):
        for grid in (101, 401):
            dre = lt.solve_gdre(abc_fperp, 10.0, grid)
            resid, bound = gdre_fd_residual(dre, abc_fperp)
            assert resid <= bound

    def test_nonconvergent_limit(self, abc_fc, are_abc):
        # with the terminal weight along the output, the backward flow
        # settles at the non-stabilizing root diag(0, 1)
        dre = lt.solve_gdre(abc_fc, 10.0)
        assert np.linalg.norm(dre.P[0] - are_abc.P_plus, "fro") > 0.5
        assert np.abs(dre.P[0] - np.diag([0.0, 1.0])).max() < 1e-6
        cl = abc_fc.A - abc_fc.B @ abc_fc.B.T @ dre.P[0]
        eigs = np.sort(np.linalg.eigvals(cl).real)
        assert np.abs(eigs - [-2.0, 2.0]).max() < 1e-6


class TestGramians:
    def test_t_zero_and_asymptote(self, gram_abc):
        assert np.abs(gram_abc.at(0.0)).max() < 1e-15
        assert np.abs(gram_abc.at(20.0) - gram_abc.W).max() < 1e-12

    def test_uniform_norm_bound(self, gram_abc):
        wnorm = np.linalg.norm(gram_abc.W, 2)
        for tau in TAU_GRID:
            assert np.linalg.norm(gram_abc.at(tau), 2) <= wnorm + 1e-12

    def test_scalar_closed_form(self):
        plant = lt.LtiPlant(A=[[1.0]], B=[[1.0]], C=[[1.0]], F=[[0.0]])
        are = lt.solve_gare(plant)
        gram = lt.gramians(are, plant.B)
        assert gram.W[0, 0] == pytest.approx(1.0 / (2.0 * SQRT2), abs=1e-12)
        for tau in (0.3, 1.0, 4.0):
            expect = (1.0 - np.exp(-2.0 * SQRT2 * tau)) / (2.0 * SQRT2)
            assert gram.at(tau)[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_against_quadrature(self, abc_fperp, are_abc, gram_abc):
        # independent check of W(tau) by composite-trapezoid quadrature of
        # the defining integral
        bbt = abc_fperp.B @ abc_fperp.B.T
        for tau in (0.5, 2.0):
            ss = np.linspace(0.0, tau, 4001)
            vals = np.array([lt.expm(s * are_abc.A_plus) @ bbt
                             @ lt.expm(s * are_abc.A_plus).T for s in ss])
            quad = np.trapezoid(vals, ss, axis=0)
            assert np.abs(quad - gram_abc.at(tau)).max() < 1e-6


class TestSlidingTerminal:
    def test_at_zero(self, abc_fperp, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        assert np.abs(st.at(0.0) - (abc_fperp.terminal_weight
                                    - are_abc.P_plus)).max() < 1e-14

    def test_equilibrium_zero(self, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, are_abc.P_plus, gram_abc)
        for tau in TAU_GRID:
            assert np.abs(st.at(tau)).max() == 0.0

    def test_scalar_closed_form(self):
        plant = lt.LtiPlant(A=[[1.0]], B=[[1.0]], C=[[1.0]], F=[[0.0]])
        are = lt.solve_gare(plant)
        gram = lt.gramians(are, plant.B)
        st = lt.StructuredDelta(are, np.zeros((1, 1)), gram)
        # S - P+ = -(1 + sqrt 2); at tau -> infinity the value is -2 sqrt 2
        for tau in (0.0, 0.5, 2.0, 8.0):
            w = (1.0 - np.exp(-2.0 * SQRT2 * tau)) / (2.0 * SQRT2)
            expect = -(1.0 + SQRT2) / (1.0 - w * (1.0 + SQRT2))
            assert st.at(tau)[0, 0] == pytest.approx(expect, rel=1e-10)

    def test_loewner_decreasing(self, abc_fperp, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        vals = [st.at(tau) for tau in TAU_GRID]
        for older, newer in zip(vals, vals[1:]):
            assert min_eig_sym(older - newer) >= -PSD_SLACK

    def test_k_sup(self, abc_fperp, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        d = abc_fperp.terminal_weight - are_abc.P_plus
        s_inf = d @ np.linalg.inv(np.eye(2) + gram_abc.W @ d)
        expect = max(np.linalg.norm(d, 2), np.linalg.norm(s_inf, 2))
        assert st.K_sup == pytest.approx(expect, rel=1e-12)

    def test_singular_bracket_raises(self, abc_fc, are_abc, gram_abc):
        st = lt.StructuredDelta(are_abc, abc_fc.terminal_weight, gram_abc)
        with pytest.raises(SingularBracketError):
            st.K_sup  # the infinite-horizon bracket is exactly singular


class TestConvergenceCondition:
    def test_dichotomy(self, abc_fperp, abc_fc, are_abc, gram_abc):
        assert lt.check_convergence_condition(
            abc_fperp.terminal_weight, are_abc, gram_abc)
        assert not lt.check_convergence_condition(
            abc_fc.terminal_weight, are_abc, gram_abc)
        assert lt.check_convergence_condition(
            are_abc.P_plus, are_abc, gram_abc)


class TestDeltaFormula:
    def test_terminal_value(self, abc_fperp, are_abc, gram_abc):
        s = abc_fperp.terminal_weight
        got = lt.StructuredDelta(are_abc, s, gram_abc).delta1(10.0, 10.0)
        assert np.abs(got - (s - are_abc.P_plus)).max() < 1e-12

    def test_equilibrium_zero(self, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, are_abc.P_plus, gram_abc)
        got = delta.delta1(3.0, 10.0)
        assert np.abs(got).max() == 0.0

    def test_matches_integrated_dre(self, abc_fperp, are_abc, gram_abc):
        s = abc_fperp.terminal_weight
        dre = lt.solve_gdre(abc_fperp, 10.0)
        delta = lt.StructuredDelta(are_abc, s, gram_abc)
        err = max(
            np.abs(are_abc.P_plus + delta.delta1(t, 10.0) - p).max()
            for t, p in zip(dre.grid, dre.P))
        assert err < 1e-6


class TestFundamentalSolution:
    def test_identity_at_terminal(self, abc_fperp, are_abc, gram_abc):
        got = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight,
                                 gram_abc).U(10.0, 10.0)
        assert np.abs(got - np.eye(2)).max() < 1e-14

    def test_equilibrium_reduces_to_exponential(self, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, are_abc.P_plus, gram_abc)
        got = delta.U(4.0, 10.0)
        assert np.abs(got - lt.expm(-6.0 * are_abc.A_plus)).max() < 1e-12

    def test_against_integration(self, abc_fperp, are_abc, gram_abc):
        s = abc_fperp.terminal_weight
        _, pin = _p_interp(abc_fperp, 10.0)

        def field(t, u):
            p = pin(t).reshape(2, 2)
            return (abc_fperp.A - abc_fperp.B @ abc_fperp.B.T @ p) @ u

        ts, us = integrate(field, np.eye(2), 10.0, 0.0, grid=21)
        delta = lt.StructuredDelta(are_abc, s, gram_abc)
        err = max(
            np.abs(delta.U(t, 10.0) - u).max() / (1.0 + np.abs(u).max())
            for t, u in zip(ts, us))
        assert err < 1e-6

    def test_against_integration_separated_spectrum(self):
        # closed-loop eigenvalues from -7.9 to -0.09, so U(0) spreads its
        # columns by about e^78 at t1 = 10
        rng = np.random.default_rng(0)
        plant = lt.LtiPlant(A=rng.standard_normal((8, 8)) / np.sqrt(8),
                            B=rng.standard_normal((8, 2)),
                            C=rng.standard_normal((2, 8)),
                            F=rng.standard_normal((1, 8)))
        are = lt.solve_gare(plant)
        delta = lt.structured_delta(are, plant.terminal_weight)
        ts, us = integrate(lambda t, u: delta.A1_hat(t, 10.0) @ u, np.eye(8),
                           10.0, 0.0, grid=5)
        err = max(
            np.abs(delta.U(t, 10.0) - u).max() / (1.0 + np.abs(u).max())
            for t, u in zip(ts, us))
        assert err < 1e-6


class TestTransitionMaps:
    def test_identity_at_equal_times(self, abc_fperp, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        assert np.abs(delta.forward(4.0, 4.0, 10.0) - np.eye(2)).max() < 1e-12
        assert np.abs(delta.backward(4.0, 4.0, 10.0) - np.eye(2)).max() < 1e-12

    def test_composition(self, abc_fperp, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        rng = np.random.default_rng(17)
        for _ in range(6):
            r, mid, t = np.sort(rng.uniform(0.0, 10.0, 3))
            f_ts = delta.forward(t, mid, 10.0)
            f_sr = delta.forward(mid, r, 10.0)
            f_tr = delta.forward(t, r, 10.0)
            err = np.abs(f_ts @ f_sr - f_tr).max() / (1.0 + np.abs(f_tr).max())
            assert err < 1e-8

    def test_adjoint_consistency(self, abc_fperp, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        fwd = delta.forward(7.0, 3.0, 10.0)
        bwd = delta.backward(3.0, 7.0, 10.0)
        assert np.abs(bwd - fwd.T).max() < 1e-10 * (1.0 + np.abs(bwd).max())

    def test_equilibrium_reductions(self, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, are_abc.P_plus, gram_abc)
        fwd = delta.forward(5.0, 2.0, 10.0)
        assert np.abs(fwd - lt.expm(3.0 * are_abc.A_plus)).max() < 1e-12
        bwd = delta.backward(5.0, 2.0, 10.0)
        assert np.abs(bwd - lt.expm(-3.0 * are_abc.A_plus.T)).max() < 1e-12

    def test_reversed_order_is_inverse(self, abc_fperp, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        fwd = delta.forward(6.0, 3.0, 10.0)
        rev = delta.forward(3.0, 6.0, 10.0)
        prod = fwd @ rev
        assert np.abs(prod - np.eye(2)).max() < 1e-9 * (1 + np.abs(fwd).max())

    def test_backward_against_integration(self, abc_fperp, are_abc, gram_abc):
        delta = lt.StructuredDelta(are_abc, abc_fperp.terminal_weight, gram_abc)
        _, pin = _p_interp(abc_fperp, 10.0)
        a, b = abc_fperp.A, abc_fperp.B

        def field(t, y):
            p = pin(t).reshape(2, 2)
            return -((a.T - p @ b @ b.T) @ y)

        cols = []
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            _, ys = integrate(field, e, 7.0, 3.0, grid=11)
            cols.append(ys[-1])
        prop = np.column_stack(cols)
        bwd = delta.backward(3.0, 7.0, 10.0)
        assert np.abs(prop - bwd).max() < 1e-6
