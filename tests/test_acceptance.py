"""Acceptance suite: one test per verification criterion, each printing a
PASS line with the measured quantities (run with ``pytest -s`` to see them).

Heavy solves (the N = 2000 transcriptions) are shared through module-scoped
fixtures so the whole suite stays inside the runtime budget.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import lqturnpike as lt
from lqturnpike.cli import main as cli_main
from lqturnpike.linalg import spectral_abscissa
from lqturnpike.plants import check_impulse_controllable, check_impulse_free

from conftest import (P_PLUS_ABC, SQRT2, U_S_ABC, X_S_ABC, integrate,
                      riccati_field)

T1 = 10.0
X0_ODE = [1.0, 1.0]
X0_DAE = [1.0, 0.0]


def _ok(label, detail=""):
    print(f"[PASS] {label}" + (f"  ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def dre_fperp(abc_fperp):
    return lt.solve_gdre(abc_fperp, T1)


@pytest.fixture(scope="module")
def dre_fc(abc_fc):
    return lt.solve_gdre(abc_fc, T1)


@pytest.fixture(scope="module")
def traj_fperp(abc_fperp):
    return lt.optimal_trajectory(abc_fperp, X0_ODE, [0.0], [1.0], T1)


@pytest.fixture(scope="module")
def traj_fc(abc_fc):
    return lt.optimal_trajectory(abc_fc, X0_ODE, [0.0], [1.0], T1)


@pytest.fixture(scope="module")
def oracle_runs(abc_fperp, ref_dae):
    """Transcriptions at N = 500/1000/2000 plus matched Riccati references."""
    runs = {}
    for N in (500, 1000, 2000):
        sol = lt.transcribe_and_solve(abc_fperp, X0_ODE, [0.0], [1.0], T1, N)
        ric = lt.optimal_trajectory(abc_fperp, X0_ODE, [0.0], [1.0], T1,
                                    grid=N + 1)
        runs[("ode", N)] = (sol, ric)
        sol = lt.transcribe_and_solve(ref_dae, X0_DAE, [1.0], [0.0], T1, N)
        ricd = lt.optimal_trajectory(ref_dae, X0_DAE, [1.0], [0.0], T1,
                                     grid=N + 1)
        runs[("dae", N)] = (sol, ricd)
    return runs


def test_criterion_1_figure_dre_reproduction(tmp_path):
    assert cli_main(["figure1", "--out", str(tmp_path)]) == 0
    values = {}
    for tag in ("fperp", "fc"):
        rows = (tmp_path / f"figure1_dre_{tag}.csv").read_text().splitlines()
        assert rows[0] == "t,normP_fro"
        values[tag] = float(rows[1].split(",")[1])
    assert values["fperp"] == pytest.approx(7.6795, abs=1e-3)
    assert values["fc"] == pytest.approx(1.0, abs=1e-6)
    _ok("criterion 1: figure DRE norms",
        f"|P(0)|_F = {values['fperp']:.6f} and {values['fc']:.9f}")


def test_criterion_2_stabilizing_are_and_nonstabilizing_limit(
        abc_fperp, abc_fc, are_abc, dre_fc):
    assert np.abs(are_abc.P_plus - P_PLUS_ABC).max() < 1e-10
    assert are_abc.residual <= 1e-10
    eigs = np.sort(np.linalg.eigvals(are_abc.A_plus).real)
    assert np.abs(eigs - [-2.0, -2.0]).max() < 1e-6
    limit = dre_fc.P[0]
    assert np.abs(limit - np.diag([0.0, 1.0])).max() < 1e-6
    cl_eigs = np.sort(np.linalg.eigvals(
        abc_fc.A - abc_fc.B @ abc_fc.B.T @ limit).real)
    assert np.abs(cl_eigs - [-2.0, 2.0]).max() < 1e-6
    assert spectral_abscissa(
        abc_fc.A - abc_fc.B @ abc_fc.B.T @ limit) > 0.0   # not stabilizing
    _ok("criterion 2: stabilizing ARE and non-stabilizing limit",
        f"residual {are_abc.residual:.2e}, limit closed loop {cl_eigs}")


def test_criterion_3_convergence_dichotomy(abc_fperp, abc_fc, are_abc,
                                           gram_abc, dre_fperp, dre_fc):
    conv_perp = lt.check_convergence_condition(
        abc_fperp.terminal_weight, are_abc, gram_abc)
    conv_fc = lt.check_convergence_condition(
        abc_fc.terminal_weight, are_abc, gram_abc)
    assert conv_perp and not conv_fc
    # consistency with the observed backward flow
    assert np.linalg.norm(dre_fperp.P[0] - are_abc.P_plus, "fro") < 1e-6
    assert np.linalg.norm(dre_fc.P[0] - are_abc.P_plus, "fro") > 0.5
    _ok("criterion 3: convergence dichotomy",
        f"bracket invertible: {conv_perp} / {conv_fc}")


def test_criterion_4_affine_steady_state(abc_fperp, are_abc):
    steady = lt.steady_state(abc_fperp, are_abc, [1.0])
    assert np.abs(steady.x_s - X_S_ABC).max() < 1e-10
    assert np.abs(steady.u_s - U_S_ABC).max() < 1e-10
    assert steady.kkt_residual <= 1e-10
    _ok("criterion 4: affine steady state",
        f"KKT residual {steady.kkt_residual:.2e}")


def test_criterion_5_ode_turnpike(abc_fperp, abc_fc, are_abc, traj_fperp,
                                  traj_fc):
    steady = lt.steady_state(abc_fperp, are_abc, [0.0])
    # The reference plot traces per-component magnitudes (its t = 0 value is
    # 1.0, not the Euclidean norm sqrt(2)), so the dip criterion reads on the
    # component magnitudes across the mid-horizon window.
    middle = (traj_fperp.grid > T1 / 4.0) & (traj_fperp.grid < 3.0 * T1 / 4.0)
    comp_dip = np.abs(traj_fperp.x[middle]).min()
    eucl_dip = np.linalg.norm(traj_fperp.x[middle], axis=1).min()
    assert comp_dip <= 1e-4
    rep = lt.turnpike_report(traj_fperp, steady, lam=are_abc.lambda_bar)
    assert -2.2 <= rep.lambda_hat <= -1.8
    assert rep.envelope_holds
    rep_fc = lt.turnpike_report(traj_fc, steady, lam=are_abc.lambda_bar)
    assert not rep_fc.envelope_holds
    for lam in (-2.0, -1.0, -0.25):
        assert not lt.turnpike_report(traj_fc, steady, lam=lam).envelope_holds
    _ok("criterion 5: turnpike dichotomy",
        f"component dip {comp_dip:.2e} (norm dip {eucl_dip:.2e}), "
        f"lambda_hat {rep.lambda_hat:.3f}, envelopes {rep.envelope_holds}/"
        f"{rep_fc.envelope_holds}")


def test_criterion_6_explicit_formula_equivalence(abc_fperp, are_abc,
                                                  gram_abc):
    s = abc_fperp.terminal_weight
    a, b = abc_fperp.A, abc_fperp.B
    delta = lt.StructuredDelta(are_abc, s, gram_abc)

    dre = lt.solve_gdre(abc_fperp, T1, 2001)
    field = riccati_field(abc_fperp)
    slopes = np.array([field(t, p) for t, p in zip(dre.grid, dre.P)])
    pin = CubicHermiteSpline(dre.grid, dre.P.reshape(2001, -1),
                             slopes.reshape(2001, -1))

    # fundamental solution against backward integration
    def u_field(t, u):
        return (a - b @ b.T @ pin(t).reshape(2, 2)) @ u

    ts, us = integrate(u_field, np.eye(2), T1, 0.0, grid=21)
    err_u = max(
        np.abs(delta.U(t, T1) - u).max() / (1.0 + np.abs(u).max())
        for t, u in zip(ts, us))
    assert err_u < 1e-6

    # forward transition map against integrated propagation from s0 = 2
    def x_prop(col):
        _, ys = integrate(u_field, col, 2.0, 8.0, grid=13)
        return ys[-1]

    prop = np.column_stack([x_prop(e) for e in np.eye(2)])
    fwd = delta.forward(8.0, 2.0, T1)
    err_fwd = np.abs(prop - fwd).max() / (1.0 + np.abs(fwd).max())
    assert err_fwd < 1e-6

    # backward transition map against the integrated adjoint
    def y_field(t, y):
        return -((a.T - pin(t).reshape(2, 2) @ b @ b.T) @ y)

    cols = []
    for e in np.eye(2):
        _, ys = integrate(y_field, e, 8.0, 2.0, grid=13)
        cols.append(ys[-1])
    bwd = delta.backward(2.0, 8.0, T1)
    err_bwd = np.abs(np.column_stack(cols) - bwd).max() / (1.0 + np.abs(bwd).max())
    assert err_bwd < 1e-6

    # feedforward closed forms against backward integration
    err_ff = max(
        lt.feedforward(delta, [y_c], [y_e], T1).max_discrepancy
        for y_c, y_e in ([0.0, 1.0], [1.0, 1.0], [1.0, 0.0]))
    assert err_ff < 1e-6

    # delta formula against the integrated Riccati flow
    coarse = lt.solve_gdre(abc_fperp, T1)
    err_delta = max(
        np.abs(are_abc.P_plus + delta.delta1(t, T1) - p).max()
        for t, p in zip(coarse.grid, coarse.P))
    assert err_delta < 1e-6
    _ok("criterion 6: explicit formulas vs integration",
        f"U {err_u:.1e}, fwd {err_fwd:.1e}, bwd {err_bwd:.1e}, "
        f"w {err_ff:.1e}, delta {err_delta:.1e}")


def test_criterion_7_reference_dae_chain(ref_dae, gare_ref):
    assert np.abs(gare_ref.P_plus - np.diag([1.0 + SQRT2, 0.0])).max() < 1e-9

    gdre = lt.solve_gdre(ref_dae, T1)
    tau = T1 - gdre.grid
    decay = np.exp(-2.0 * SQRT2 * tau)
    closed = 1.0 + SQRT2 - 2.0 * SQRT2 * decay / (1.0 + decay)
    err_gdre = np.abs(gdre.P1[:, 0, 0] - closed).max()
    assert err_gdre < 1e-7

    delta = lt.structured_delta(gare_ref, gare_ref.partition.S1)
    bracket = 1.0 + delta.gram_bar.W[0, 0] * (1.0 - (1.0 + SQRT2))
    assert bracket == pytest.approx(0.5, abs=1e-12)

    steady = lt.steady_state(gare_ref.plant, gare_ref, [1.0])
    assert np.abs(steady.x_s - [0.5, -0.5]).max() < 1e-9
    assert abs(steady.u_s[0] + 0.5) < 1e-9

    traj = lt.optimal_trajectory(ref_dae, X0_DAE, [1.0], [0.0], T1)
    rep = lt.turnpike_report(traj, steady, lam=gare_ref.lambda_bar)
    assert -1.6 <= rep.lambda_hat <= -1.2
    _ok("criterion 7: reference descriptor chain",
        f"gDRE closed-form error {err_gdre:.1e}, bracket {bracket:.3f}, "
        f"lambda_hat {rep.lambda_hat:.3f}")


def test_criterion_8_oracle_equivalence(oracle_runs):
    errs = {}
    sol, ric = oracle_runs[("ode", 2000)]
    err_ode = np.abs(ric.x - sol.x).max()
    cost_ode = abs(sol.cost - ric.cost) / (1.0 + abs(ric.cost))
    assert err_ode <= 1e-3 and cost_ode <= 1e-3

    sol, ricd = oracle_runs[("dae", 2000)]
    err_dae = max(np.abs(ricd.x - sol.x).max(), np.abs(ricd.u - sol.u).max())
    cost_dae = abs(sol.cost - ricd.cost) / (1.0 + abs(ricd.cost))
    assert err_dae <= 1e-3 and cost_dae <= 1e-3
    # interior transcription nodes approach the analytic turnpike; the
    # differential state is pinned at 1e-3, the layers leave ~1e-3 on x2/u
    mid = len(sol.grid) // 2
    assert abs(sol.x[mid, 0] - 0.5) < 1e-3
    assert abs(sol.x[mid, 1] + 0.5) < 2e-3
    assert abs(sol.u[mid, 0] + 0.5) < 2e-3

    for kind in ("ode", "dae"):
        for N in (500, 1000):
            sol, ref = oracle_runs[(kind, N)]
            e = np.abs(ref.x - sol.x).max()
            if kind == "dae":
                e = max(e, np.abs(ref.u - sol.u).max())
            errs[(kind, N)] = e
    factor_ode = errs[("ode", 500)] / errs[("ode", 1000)]
    factor_dae = errs[("dae", 500)] / errs[("dae", 1000)]
    assert factor_ode >= 3.5
    assert factor_dae >= 1.8
    _ok("criterion 8: transcription oracle",
        f"N=2000 errors {err_ode:.1e}/{err_dae:.1e}, cost gaps "
        f"{cost_ode:.1e}/{cost_dae:.1e}, refinement x{factor_ode:.2f}/"
        f"x{factor_dae:.2f}")


def test_criterion_9_structural_suite(abc_fperp, ref_dae, gare_ref):
    # identity descriptor: every check trivially true
    rng = np.random.default_rng(77)
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        assert check_impulse_controllable(np.eye(3), a, b)
        assert check_impulse_free(np.eye(3), a)
    # impulse-free implies impulse controllable on random pencils
    hits = 0
    for _ in range(40):
        e = np.zeros((4, 4))
        e[:2, :2] = np.eye(2)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        if check_impulse_free(e, a):
            hits += 1
            assert check_impulse_controllable(e, a, b)
    assert hits >= 10

    # structured invariants of the generalized Riccati trajectory
    gdre = lt.solve_gdre(ref_dae, T1)
    bbt = ref_dae.B @ ref_dae.B.T
    coupling = -np.linalg.solve(gare_ref.A_p2.T, gare_ref.A_p12.T)
    worst_sym = worst_col = worst_coupling = worst_block = 0.0
    for i in range(len(gdre.grid)):
        p = gdre.P[i]
        ep = ref_dae.E.T @ p
        worst_sym = max(worst_sym, np.abs(ep - ep.T).max())
        p_delta = p - gare_ref.P_plus
        worst_col = max(worst_col, np.abs(p_delta[:, 1:]).max())
        worst_coupling = max(worst_coupling, np.abs(
            p_delta[1:, :1] - coupling @ p_delta[:1, :1]).max())
        cl = ref_dae.A - bbt @ p
        worst_block = max(worst_block,
                          np.abs(cl[1:, 1:] - gare_ref.A_p2).max())
    assert worst_sym <= 1e-10
    assert worst_col <= 1e-10
    assert worst_coupling <= 1e-10
    assert worst_block <= 1e-10
    _ok("criterion 9: structural suite",
        f"E*P sym {worst_sym:.1e}, second column {worst_col:.1e}, coupling "
        f"{worst_coupling:.1e}, fast block {worst_block:.1e}")
