import json
import re

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import lqturnpike as lt
from lqturnpike.cli import (build_parser, load_scenario, main, normalized_json,
                            ScenarioError)

from conftest import integrate, riccati_field

ODE_SCENARIO = {
    "kind": "ode",
    "A": [[2.0, 0.0], [0.0, -1.0]],
    "B": [[1.0], [1.0]],
    "C": [[0.0, 1.7320508075688772]],
    "F": [[1.7320508075688772, 0.0]],
    "x0": [1.0, 1.0],
    "y_c": [0.0],
    "y_e": [1.0],
    "t1": 10.0,
}

DAE_SCENARIO = {
    "kind": "dae",
    "E": [[1.0, 0.0], [0.0, 0.0]],
    "A": [[1.0, 0.0], [0.0, -1.0]],
    "B": [[1.0], [1.0]],
    "C": [[1.0, 0.0]],
    "F": [[1.0, 0.0]],
    "x0": [1.0, 0.0],
    "y_c": [1.0],
    "y_e": [0.0],
    "t1": 10.0,
}

# the slow mode at +0.5 cannot be stabilized: there is no stabilizing
# Riccati solution, while the finite-horizon problem is well posed
UNSTABILIZABLE_SCENARIO = {
    "kind": "dae",
    "E": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    "A": [[0.5, 0.0, 0.0], [0.0, -1.0, 0.3], [0.0, 0.2, -1.0]],
    "B": [[0.0], [1.0], [1.0]],
    "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.1]],
    "F": [[1.0, 0.5, 0.0]],
    "x0": [1.0, 1.0, 0.0],
    "y_c": [0.3, -0.2],
    "y_e": [0.5],
    "t1": 5.0,
}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestScenarioParsing:
    def test_missing_field(self, tmp_path):
        data = dict(ODE_SCENARIO)
        del data["B"]
        path = _write(tmp_path, "s.json", data)
        with pytest.raises(ScenarioError, match="missing required field 'B'"):
            load_scenario(path)

    def test_ragged_matrix(self, tmp_path):
        data = dict(ODE_SCENARIO)
        data["A"] = [[1.0, 2.0], [3.0]]
        path = _write(tmp_path, "s.json", data)
        with pytest.raises(ScenarioError, match=r"A\[1\]"):
            load_scenario(path)

    def test_bad_vector_length(self, tmp_path):
        data = dict(ODE_SCENARIO)
        data["x0"] = [1.0]
        path = _write(tmp_path, "s.json", data)
        with pytest.raises(ScenarioError, match="x0"):
            load_scenario(path)

    @pytest.mark.parametrize("key", ["ode_rel", "residul", "residual"])
    def test_unknown_tolerance(self, key, tmp_path):
        # a removed or misspelled tolerance is refused, not silently ignored
        data = dict(ODE_SCENARIO, tolerances={key: 1e-6})
        path = _write(tmp_path, "s.json", data)
        with pytest.raises(ScenarioError, match=f"tolerances.{key}"):
            load_scenario(path)

    def test_seed_refused(self, tmp_path, capsys):
        # the regularity probe's seed is fixed, so setting one is refused
        path = _write(tmp_path, "s.json", dict(ODE_SCENARIO, seed=3))
        with pytest.raises(ScenarioError, match=r"s\.json\.seed"):
            load_scenario(path)
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize("key, value", [
        ("y_C", [5.0]), ("E", [[1.0, 0.0], [0.0, 1.0]])], ids=["y_C", "ode-E"])
    def test_unknown_field_refused(self, key, value, tmp_path, capsys):
        # a misspelled key or an E on a standard plant would otherwise be
        # dropped without a word
        path = _write(tmp_path, "s.json", dict(ODE_SCENARIO, **{key: value}))
        with pytest.raises(ScenarioError, match=rf"s\.json\.{key}: unknown field"):
            load_scenario(path)
        assert main(["simulate", str(path)]) == 1
        assert f"error: s.json.{key}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, where", [
        ("t1", float("nan"), "t1"),
        ("t1", float("inf"), "t1"),
        ("x0", [float("nan"), 1.0], r"x0\[0\]"),
        ("y_c", [float("inf")], r"y_c\[0\]"),
        ("A", [[2.0, float("nan")], [0.0, -1.0]], r"A\[0\]\[1\]"),
    ], ids=["t1-nan", "t1-inf", "x0-nan", "y_c-inf", "A-nan"])
    def test_non_finite_number(self, key, value, where, tmp_path, capsys):
        # json reads NaN and Infinity literals; they are parse errors
        path = _write(tmp_path, "s.json", dict(ODE_SCENARIO, **{key: value}))
        with pytest.raises(ScenarioError, match=rf"s\.json\.{where}:"):
            load_scenario(path)
        assert main(["simulate", str(path)]) == 1

    @pytest.mark.parametrize("data, args, where", [
        (dict(ODE_SCENARIO, A=5), [], r"s\.json\.A: expected a non-empty"),
        (dict(ODE_SCENARIO, x0="abc"), [], r"s\.json\.x0: expected a flat"),
        ([ODE_SCENARIO], [], r"s\.json: top level must be a JSON object"),
        (dict(ODE_SCENARIO, kind="sde"), [], r"s\.json\.kind: must be"),
        (dict(ODE_SCENARIO, B=[[1.0]] * 3), [], r"s\.json: B has 3 rows"),
        (dict(ODE_SCENARIO, grid=1), [], r"s\.json\.grid: expected an"),
        (dict(ODE_SCENARIO, grid=2.5), [], r"s\.json\.grid: expected an"),
        (None, [], r"s\.json: cannot read scenario file"),
        (ODE_SCENARIO, ["--grid", "1"], r"--grid must be >= 2"),
    ], ids=["A-scalar", "x0-string", "top-level-list", "kind", "B-rows",
            "grid-one", "grid-float", "missing-file", "grid-option"])
    def test_refusal_names_file_and_field(self, data, args, where, tmp_path,
                                          capsys):
        path = tmp_path / "s.json"
        if data is not None:
            path.write_text(json.dumps(data))
        assert main(["simulate", str(path), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(where, err)

    def test_omitted_vectors_default_to_zeros(self, tmp_path):
        data = {key: val for key, val in ODE_SCENARIO.items()
                if key not in ("x0", "y_c", "y_e")}
        sc = load_scenario(_write(tmp_path, "s.json", data))
        for vec, size in ((sc.x0, 2), (sc.y_c, 1), (sc.y_e, 1)):
            assert np.array_equal(vec, np.zeros(size))

    def test_json_error_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "ode",\n  "A": [[1, 2]\n}')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(path)

    def test_roundtrip_normalized(self, tmp_path):
        path = _write(tmp_path, "s.json", DAE_SCENARIO)
        sc = load_scenario(path)
        dumped = tmp_path / "normalized.json"
        dumped.write_text(normalized_json(sc))
        sc2 = load_scenario(dumped)
        assert np.array_equal(sc.plant.A, sc2.plant.A)
        assert np.array_equal(sc.plant.E, sc2.plant.E)
        assert np.array_equal(sc.plant.F, sc2.plant.F)
        assert sc.t1 == sc2.t1 and sc.grid == sc2.grid


class TestCommands:
    def test_check_exit_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "regular: True" in out
        assert "impulse_controllable: True" in out

    def test_check_unstable_zero_input(self, tmp_path, capsys):
        # the mode at 1.43 has no input: not stabilizable
        data = dict(ODE_SCENARIO, A=[[1.2, 1.3, -1.3], [0.5, -1.2, -1.0],
                                     [0.0, 0.1, -0.1]],
                    B=[[0.0], [0.0], [0.0]], C=[[1.0, 0.0, 0.0]],
                    F=[[1.0, 0.0, 0.0]], x0=[1.0, 0.0, 0.0])
        path = _write(tmp_path, "unstable.json", data)
        assert main(["check", str(path)]) == 0
        assert "finite_dynamics_stable: False" in capsys.readouterr().out

    def test_simulate_mixed_zero_input_fast_block(self, tmp_path, capsys):
        # B2 = 0 and A22 = diag(1, -2): the cost is the eliminated plant's
        data = dict(DAE_SCENARIO, E=np.diag([1.0, 0.0, 0.0]).tolist(),
                    A=[[-1.0, 0.5, 0.2], [0.3, 1.0, 0.0], [0.1, 0.0, -2.0]],
                    B=[[1.0], [0.0], [0.0]], C=[[1.0, 1.0, 1.0]],
                    F=[[1.0, 0.0, 0.0]], x0=[1.0, 0.0, 0.0])
        path = _write(tmp_path, "mixed.json", data)
        assert main(["simulate", str(path)]) == 0
        cost = float(capsys.readouterr().out.split("cost:")[1].split()[0])
        # x2 = -0.3 x1 and x3 = 0.05 x1
        std = lt.LtiPlant(A=[[-1.14]], B=[[1.0]], C=[[0.75]], F=[[1.0]])
        ref = lt.optimal_trajectory(std, [1.0], data["y_c"], data["y_e"],
                                    data["t1"])
        assert cost == pytest.approx(ref.cost, rel=1e-10)

    def test_are_report(self, tmp_path, capsys):
        path = _write(tmp_path, "ode.json", ODE_SCENARIO)
        assert main(["are", str(path)]) == 0
        out = capsys.readouterr().out
        assert "convergence_condition: True" in out
        assert "7.679538" in out

    def test_dre_csv_deterministic(self, tmp_path, capsys):
        path = _write(tmp_path, "ode.json", ODE_SCENARIO)
        csv_path = tmp_path / "ode_dre.csv"
        assert main(["dre", str(path)]) == 0
        first = csv_path.read_bytes()
        assert main(["dre", str(path)]) == 0
        assert csv_path.read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[0] == "t,normP_fro"
        assert b"\r" not in first

    def test_simulate_headers(self, tmp_path, capsys):
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        assert main(["simulate", str(path), "--grid", "33"]) == 0
        header = (tmp_path / "dae_trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x_1,x_2,u_1,y_1"

    def test_simulate_csv_round_trips(self, tmp_path, capsys):
        # 17 significant digits read back to the very same doubles
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        assert main(["simulate", str(path), "--grid", "33"]) == 0
        rows = np.loadtxt(tmp_path / "dae_trajectory.csv", delimiter=",",
                          skiprows=1)
        sc = load_scenario(path)
        traj = lt.optimal_trajectory(sc.plant, sc.x0, sc.y_c, sc.y_e, sc.t1,
                                     33)
        assert np.array_equal(
            rows, np.column_stack([traj.grid, traj.x, traj.u, traj.y]))

    def test_turnpike_csv(self, tmp_path, capsys):
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        assert main(["turnpike", str(path)]) == 0
        out = capsys.readouterr().out
        assert "envelope_holds: True" in out
        header = (tmp_path / "dae_turnpike.csv").read_text().splitlines()[0]
        assert header == "t,dist_x,dist_u,envelope"

    def test_oracle_command(self, tmp_path, capsys):
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        assert main(["oracle", str(path), "--steps", "120"]) == 0
        out = capsys.readouterr().out
        assert "max_state_error" in out

    def test_oracle_reports_kkt_size(self, tmp_path, capsys):
        for name, data in (("ode.json", ODE_SCENARIO), ("dae.json", DAE_SCENARIO)):
            path = _write(tmp_path, name, data)
            assert main(["oracle", str(path), "--steps", "60"]) == 0
            out = dict(line.split(": ", 1)
                       for line in capsys.readouterr().out.splitlines())
            assert int(out["kkt_dim"]) > 0 and int(out["kkt_nnz"]) > 0
            if data["kind"] == "ode":
                assert out["boundary_u_shift"] == "n/a"
            else:
                assert float(out["boundary_u_shift"]) >= 0.0

    def test_dump_normalized_skips_run(self, tmp_path, capsys):
        path = _write(tmp_path, "ode.json", ODE_SCENARIO)
        assert main(["dre", str(path), "--dump-normalized"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["kind"] == "ode"
        assert not (tmp_path / "ode_dre.csv").exists()

    def test_figure1(self, tmp_path, capsys):
        assert main(["figure1", "--out", str(tmp_path / "fig")]) == 0
        for tag in ("dre_fc", "dre_fperp", "state_fc", "state_fperp"):
            assert (tmp_path / "fig" / f"figure1_{tag}.csv").exists()
        header = (tmp_path / "fig" / "figure1_state_fc.csv"
                  ).read_text().splitlines()[0]
        assert header == "t,abs_x1,abs_x2,norm_x,abs_Fx,abs_Cx"

    def test_are_on_descriptor(self, tmp_path, capsys):
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        assert main(["are", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lambda_bar: -1.414" in out
        assert "convergence_condition: True" in out

    def test_turnpike_failure_path(self, tmp_path, capsys):
        data = dict(ODE_SCENARIO)
        data["F"] = data["C"]   # terminal weight along the output
        path = _write(tmp_path, "fc.json", data)
        assert main(["turnpike", str(path)]) == 0
        out = capsys.readouterr().out
        assert "convergence_condition: False" in out
        assert "envelope_holds: False" in out

    def test_turnpike_prints_notes(self, tmp_path, capsys):
        data = dict(ODE_SCENARIO, F=ODE_SCENARIO["C"], t1=40.0)
        path = _write(tmp_path, "fc40.json", data)
        assert main(["turnpike", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "lambda_hat: nan" in lines
        notes = [line for line in lines if line.startswith("note: ")]
        assert any("state distance" in n and "degeneracy floor" in n
                   for n in notes)

    @pytest.mark.parametrize("cmd", ["simulate", "turnpike", "oracle"])
    def test_solving_commands_print_the_trajectory_notes(self, cmd, tmp_path,
                                                         capsys):
        # an algebraic x0 that breaks the consistency relation is recomputed
        path = _write(tmp_path, "dae.json", dict(DAE_SCENARIO, x0=[1.0, 0.5]))
        assert main([cmd, str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("note: algebraic initial values recomputed from the "
                "consistency relation") in lines
        assert lines[-1].startswith("csv: ")

    def test_dre_prints_the_gdre_notes(self, tmp_path, capsys):
        # F = [1e-10, sqrt 3] barely sees the unstable mode
        data = dict(ODE_SCENARIO, F=[[1e-10, 1.7320508075688772]])
        path = _write(tmp_path, "gap.json", data)
        assert main(["dre", str(path)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("note: ")]
        assert len(notes) == 1 and "rank gap 2.9e-11" in notes[0]

    def test_turnpike_without_input_holds(self, tmp_path, capsys):
        data = {"kind": "ode", "A": [[-1.0, 0.0], [0.0, -2.0]],
                "B": [[], []], "C": [[1.0, 0.0]], "F": [[1.0, 0.0]],
                "x0": [1.0, 1.0], "t1": 5.0}
        path = _write(tmp_path, "no_input.json", data)
        assert main(["turnpike", str(path)]) == 0
        assert "envelope_holds: True" in capsys.readouterr().out.splitlines()

    def test_turnpike_csv_deterministic(self, tmp_path, capsys):
        path = _write(tmp_path, "dae.json", DAE_SCENARIO)
        csv_path = tmp_path / "dae_turnpike.csv"
        assert main(["turnpike", str(path)]) == 0
        first = csv_path.read_bytes()
        assert main(["turnpike", str(path)]) == 0
        assert csv_path.read_bytes() == first


class TestExitCodes:
    def test_parse_error_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 1

    def test_usage_error_is_one(self, capsys):
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("args, grid", [
        (["oracle", "--steps", "10"], None),
        (["oracle", "--steps", "0"], None),
        (["turnpike", "--grid", "10"], None),
        (["turnpike"], 10),
    ], ids=["steps-below-50", "steps-zero", "turnpike-grid-option",
            "turnpike-grid-scenario"])
    def test_bad_option_is_usage_error(self, args, grid, tmp_path, capsys):
        data = dict(ODE_SCENARIO) if grid is None else dict(ODE_SCENARIO,
                                                            grid=grid)
        path = _write(tmp_path, "ode.json", data)
        assert main([args[0], str(path), *args[1:]]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["oracle", "--grid", "33"], ["check", "--steps", "5"],
        ["check", "--grid", "1"], ["are", "--seed", "1"],
    ], ids=["oracle-grid", "check-steps", "check-grid", "are-seed"])
    def test_inert_flag_is_usage_error(self, args, tmp_path, capsys):
        # each subcommand takes only the flags it reads
        path = _write(tmp_path, "ode.json", ODE_SCENARIO)
        assert main([args[0], str(path), *args[1:]]) == 1
        assert main(["check", str(path), "--out", str(tmp_path)]) == 0

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_shared_parser_usable(self, tmp_path,
                                                         capsys):
        path = _write(tmp_path, "ode.json", ODE_SCENARIO)
        assert main(["oracle", str(path), "--steps", "10"]) == 1
        assert main(["dre", str(path), "--grid", "x"]) == 1   # argparse's own
        assert main(["oracle", str(path), "--steps", "60"]) == 0
        assert main(["dre", str(path)]) == 0

    def test_assumption_violation_is_two(self, tmp_path, capsys):
        data = dict(DAE_SCENARIO)
        data["F"] = [[0.0, 1.0]]   # weight on the algebraic variable
        path = _write(tmp_path, "bad_dae.json", data)
        assert main(["are", str(path)]) == 2
        err = capsys.readouterr().err
        assert "terminal-compatibility" in err

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        data = dict(DAE_SCENARIO)
        data["A"] = [[0.0, 1.0], [1.0, 0.0]]
        data["B"] = [[0.0], [0.0]]
        data["F"] = [[0.0, 0.0]]
        path = _write(tmp_path, "sing.json", data)
        assert main(["oracle", str(path), "--steps", "60"]) == 3

    def test_turnpike_split_matches_homogeneous_solve(self, tmp_path, capsys):
        # a random standard plant whose U(0) is singular at t1 = 40: the
        # split no longer inverts U(0), so it is defined and matches an
        # independent forward sweep over the backward Riccati solve
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4)) / 2.0
        b, c, f = (m / np.linalg.norm(m, 2) for m in (
            rng.standard_normal((4, 1)), rng.standard_normal((1, 4)),
            rng.standard_normal((1, 4))))
        data = {"kind": "ode", "A": a.tolist(), "B": b.tolist(),
                "C": c.tolist(), "F": f.tolist(), "x0": [1.0] * 4,
                "y_c": [0.5], "y_e": [0.0], "t1": 40.0}
        path = _write(tmp_path, "rand.json", data)
        assert main(["turnpike", str(path)]) == 0

        sc = load_scenario(path)
        are = lt.solve_gare(sc.plant)
        traj = lt.optimal_trajectory(sc.plant, sc.x0, sc.y_c, sc.y_e, sc.t1)
        steady = lt.steady_state(sc.plant, are, sc.y_c)
        dec = lt.decompose_state(traj, are, steady)
        dre = lt.solve_gdre(sc.plant, sc.t1, 4001)
        field = riccati_field(sc.plant)
        slopes = np.array([field(t, p) for t, p in zip(dre.grid, dre.P)])
        p_of = CubicHermiteSpline(dre.grid, dre.P.reshape(len(dre.grid), -1),
                                  slopes.reshape(len(dre.grid), -1))
        _, x_h = integrate(
            lambda t, x: (a - b @ b.T @ p_of(t).reshape(4, 4)) @ x,
            sc.x0, 0.0, sc.t1, grid=len(traj.grid))
        assert np.abs(dec.x_h - x_h).max() < 1e-8 * np.abs(x_h).max()

    def test_turnpike_without_stabilizing_solution_is_two(self, tmp_path,
                                                          capsys):
        # the finite-horizon problem is solvable, but there is no stable
        # closed loop, so the turnpike it is measured against is undefined
        path = _write(tmp_path, "unstab.json", UNSTABILIZABLE_SCENARIO)
        assert main(["simulate", str(path)]) == 0
        assert main(["turnpike", str(path)]) == 2
        assert "stabilizing-solution" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [UNSTABILIZABLE_SCENARIO, {
        "kind": "ode", "A": [[0.5, 0.0], [0.0, -1.0]], "B": [[0.0], [1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]], "F": [[1.0, 0.0], [0.0, 1.0]],
        "x0": [1.0, 1.0], "y_c": [0.3, -0.2], "y_e": [0.5, 0.0], "t1": 5.0,
    }], ids=["dae", "ode"])
    def test_dre_without_stabilizing_solution(self, data, tmp_path, capsys):
        path = _write(tmp_path, "unstab.json", data)
        assert main(["dre", str(path)]) == 0
        out = dict(line.split(": ", 1)
                   for line in capsys.readouterr().out.splitlines())
        sc = load_scenario(path)
        traj = lt.optimal_trajectory(sc.plant, sc.x0, sc.y_c, sc.y_e, sc.t1)
        assert float(out["normP_at_0"]) == pytest.approx(
            np.linalg.norm(traj.P[0], "fro"), rel=1e-8)
