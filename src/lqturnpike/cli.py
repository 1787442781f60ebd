"""Scenario-driven command line front end.

Scenarios are JSON files with matrices as nested row-major arrays::

    {"kind": "ode", "A": [[2,0],[0,-1]], "B": [[1],[1]], "C": [[0,1.7320508]],
     "F": [[1.7320508,0]], "x0": [1,1], "y_c": [0], "y_e": [1], "t1": 10}

A "dae" scenario adds E; x0, y_c and y_e default to zeros and grid to 101.
Any other field is refused.

Exit codes: 0 ok, 1 usage/parse error, 2 a named solvability assumption
fails (printed), 3 numerical failure.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dae_riccati, lqr, oracle, plants
from .errors import AssumptionViolation, DimensionError, NumericalError

_EXAMPLE_ABC = {
    "A": [[2.0, 0.0], [0.0, -1.0]],
    "B": [[1.0], [1.0]],
    "C": [[0.0, np.sqrt(3.0)]],
}


class ScenarioError(Exception):
    """Parse/validation failure with a JSON-path-precise message."""


@dataclass
class Scenario:
    kind: str
    plant: object
    x0: np.ndarray
    y_c: np.ndarray
    y_e: np.ndarray
    t1: float
    grid: int
    path: Path


def _expect(data, key, path):
    if key not in data:
        raise ScenarioError(f"{path}: missing required field '{key}'")
    return data[key]


def _is_number(val):
    """A finite JSON number: not a bool, NaN, Infinity or an integer beyond
    the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _as_matrix_field(obj, key, path):
    val = _expect(obj, key, path)
    if not isinstance(val, list) or not val or not all(
            isinstance(r, list) for r in val):
        raise ScenarioError(f"{path}.{key}: expected a non-empty nested array")
    width = len(val[0])
    for i, row in enumerate(val):
        if len(row) != width:
            raise ScenarioError(
                f"{path}.{key}[{i}]: has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if not _is_number(entry):
                raise ScenarioError(
                    f"{path}.{key}[{i}][{j}]: expected a finite number, got "
                    f"{entry!r}")
    return np.asarray(val, dtype=float)


def _as_vector_field(obj, key, path, size):
    """The flat numeric array of the given size under key; zeros if absent."""
    if key not in obj:
        return np.zeros(size)
    val = obj[key]
    if not isinstance(val, list):
        raise ScenarioError(f"{path}.{key}: expected a flat numeric array")
    for i, entry in enumerate(val):
        if not _is_number(entry):
            raise ScenarioError(
                f"{path}.{key}[{i}]: expected a finite number, got {entry!r}")
    v = np.asarray(val, dtype=float)
    if v.size != size:
        raise ScenarioError(
            f"{path}.{key}: has {v.size} entries, expected {size}")
    return v


def load_scenario(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc})")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}")
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")

    where = path.name
    kind = _expect(data, "kind", where)
    if kind not in ("ode", "dae"):
        raise ScenarioError(f"{where}.kind: must be 'ode' or 'dae', got {kind!r}")
    mats = {key: _as_matrix_field(data, key, where) for key in ("A", "B", "C", "F")}
    try:
        if kind == "dae":
            plant = plants.DescriptorPlant(
                E=_as_matrix_field(data, "E", where), **mats)
        else:
            plant = plants.LtiPlant(**mats)
    except DimensionError as exc:
        raise ScenarioError(f"{where}: {exc}")

    x0 = _as_vector_field(data, "x0", where, plant.n)
    y_c = _as_vector_field(data, "y_c", where, plant.k)
    y_e = _as_vector_field(data, "y_e", where, plant.F.shape[0])
    t1 = _expect(data, "t1", where)
    if not _is_number(t1) or t1 <= 0:
        raise ScenarioError(f"{where}.t1: expected a finite positive number, "
                            f"got {t1!r}")
    grid = data.get("grid", 101)
    if not isinstance(grid, int) or grid < 2:
        raise ScenarioError(f"{where}.grid: expected an integer >= 2")
    # the numerical policy and the regularity probe are fixed, so a scenario
    # that sets them is refused rather than run at other values
    if "seed" in data:
        raise ScenarioError(f"{where}.seed: the regularity probe's seed is "
                            "fixed; remove this field")
    if "tolerances" in data:
        tols = data["tolerances"]
        field = f"{where}.tolerances"
        if isinstance(tols, dict) and tols:
            field += f".{next(iter(tols))}"
        raise ScenarioError(f"{field}: the numerical tolerances are fixed; "
                            "remove this field")
    known = {"kind", "A", "B", "C", "F", "x0", "y_c", "y_e", "t1", "grid"}
    if kind == "dae":
        known.add("E")
    for key in data:
        if key not in known:
            raise ScenarioError(f"{where}.{key}: unknown field")

    return Scenario(kind=kind, plant=plant, x0=x0, y_c=y_c, y_e=y_e,
                    t1=float(t1), grid=grid, path=path)


def normalized_json(sc):
    """Canonical scenario serialization; re-parses to an identical plant."""
    out = {"kind": sc.kind}
    if sc.kind == "dae":
        out["E"] = sc.plant.E.tolist()
    for key in ("A", "B", "C", "F"):
        out[key] = getattr(sc.plant, key).tolist()
    out["x0"] = sc.x0.tolist()
    out["y_c"] = sc.y_c.tolist()
    out["y_e"] = sc.y_e.tolist()
    out["t1"] = sc.t1
    out["grid"] = sc.grid
    return json.dumps(out, indent=2, sort_keys=False)


def _fmt(x):
    return format(float(x), ".17g")


def _csv(args, sc, kind, header, rows):
    """Write the command's CSV ``<stem>_<kind>.csv`` to --out, or else next
    to the scenario (``figure1`` in the working directory without one): one
    header line and a row of 17-digit numbers, the digits of ``_fmt``, per
    row of the 2-D array rows.  Returns the command's report line."""
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        out_dir = Path.cwd() if sc is None else sc.path.parent
    path = out_dir / f"{'figure1' if sc is None else sc.path.stem}_{kind}.csv"
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    return "csv", path


def _notes(*note_lists):
    return [("note", note) for notes in note_lists for note in notes]


def cmd_check(sc, args):
    rep = plants.structural_report(sc.plant)
    flags = ("regular", "impulse_controllable", "impulse_free",
             "finite_dynamics_stable", "f_compatible")
    return [(flag, getattr(rep, flag)) for flag in flags] + _notes(rep.notes)


def _solve_are(sc):
    """The stabilizing (g)ARE solution, and whether the backward Riccati flow
    converges to it from the plant's terminal weight."""
    gare = dae_riccati.solve_gare(sc.plant)
    gram = dae_riccati.gramians(gare, gare.B_bar)
    conv = dae_riccati.check_convergence_condition(gare.partition.S1, gare,
                                                   gram)
    return gare, conv


def cmd_are(sc, args):
    gare, conv = _solve_are(sc)
    return [
        ("norm_P_plus_fro", _fmt(np.linalg.norm(gare.P_plus, "fro"))),
        ("norm_P1_fro", _fmt(np.linalg.norm(gare.P1, "fro"))),
        ("spectral_abscissa", _fmt(gare.lambda_bar)),
        ("lambda_bar", _fmt(gare.lambda_bar)),
        ("residual", _fmt(gare.residual)),
        ("convergence_condition", conv),
    ]


def cmd_dre(sc, args):
    dre = lqr.solve_gdre(sc.plant, sc.t1, sc.grid)
    norms = np.linalg.norm(dre.P, axis=(1, 2))
    return [("normP_at_0", _fmt(norms[0])), ("normP_at_t1", _fmt(norms[-1])),
            *_notes(dre.notes),
            _csv(args, sc, "dre", ["t", "normP_fro"],
                 np.column_stack([dre.grid, norms]))]


def _solve_trajectory(sc, grid):
    return lqr.optimal_trajectory(sc.plant, sc.x0, sc.y_c, sc.y_e, sc.t1, grid)


def cmd_simulate(sc, args):
    traj = _solve_trajectory(sc, sc.grid)
    blocks = {"x": traj.x, "u": traj.u, "y": traj.y}
    header = ["t", *(f"{name}_{i + 1}" for name, block in blocks.items()
                     for i in range(block.shape[1]))]
    return [("cost", _fmt(traj.cost)), *_notes(traj.notes),
            _csv(args, sc, "trajectory", header,
                 np.column_stack([traj.grid, *blocks.values()]))]


def cmd_turnpike(sc, args):
    if sc.grid < lqr._MIN_TURNPIKE_GRID:
        raise ScenarioError(f"turnpike needs a grid of at least "
                            f"{lqr._MIN_TURNPIKE_GRID} nodes, got {sc.grid}")
    gare, conv = _solve_are(sc)
    steady = lqr.steady_state(sc.plant, gare, sc.y_c)
    traj = _solve_trajectory(sc, sc.grid)
    report = lqr.turnpike_report(traj, steady, lam=gare.lambda_bar)
    return [
        ("convergence_condition", conv),
        ("lambda_theory", _fmt(gare.lambda_bar)),
        ("lambda_hat", _fmt(report.lambda_hat)),
        ("C_hat", _fmt(report.C_hat)),
        ("envelope_holds", report.envelope_holds),
        ("max_violation", _fmt(report.max_violation)),
        *_notes(report.notes, traj.notes),
        _csv(args, sc, "turnpike", ["t", "dist_x", "dist_u", "envelope"],
             np.column_stack([traj.grid, report.dist_x, report.dist_u,
                              report.envelope])),
    ]


def cmd_oracle(sc, args):
    steps = 500 if args.steps is None else args.steps
    if steps < oracle._MIN_STEPS:
        raise ScenarioError(f"--steps must be >= {oracle._MIN_STEPS}")
    sol = oracle.transcribe_and_solve(sc.plant, sc.x0, sc.y_c, sc.y_e, sc.t1,
                                      steps)
    traj = _solve_trajectory(sc, steps + 1)
    ts, xs, cost = traj.grid, traj.x, traj.cost
    err_x = np.linalg.norm(xs - sol.x, axis=1)
    n = xs.shape[1]
    header = ["t", *(f"x_{src}_{i + 1}" for src in ("ric", "orc")
                     for i in range(n)), "err_x"]
    rel_cost = abs(sol.cost - cost) / (1.0 + abs(cost))
    return [
        ("steps", steps),
        ("max_state_error", _fmt(float(np.max(err_x)))),
        ("riccati_cost", _fmt(cost)),
        ("oracle_cost", _fmt(sol.cost)),
        ("relative_cost_gap", _fmt(rel_cost)),
        ("kkt_residual", _fmt(sol.kkt_residual)),
        ("kkt_dim", sol.kkt_dim),
        ("kkt_nnz", sol.kkt_nnz),
        ("boundary_u_shift", "n/a" if sol.boundary_u_shift is None
         else _fmt(sol.boundary_u_shift)),
        *_notes(traj.notes),
        _csv(args, sc, "oracle", header,
             np.column_stack([ts, xs, sol.x, err_x])),
    ]


def _figure1_plants():
    a = np.asarray(_EXAMPLE_ABC["A"])
    b = np.asarray(_EXAMPLE_ABC["B"])
    c = np.asarray(_EXAMPLE_ABC["C"])
    f_equal = c.copy()                       # terminal weight along the output
    f_perp = np.array([[np.sqrt(3.0), 0.0]])  # complementary terminal weight
    return (plants.LtiPlant(A=a, B=b, C=c, F=f_equal),
            plants.LtiPlant(A=a, B=b, C=c, F=f_perp))


def cmd_figure1(sc, args):
    t1, grid = 10.0, 101
    x0, y_c, y_e = np.ones(2), np.zeros(1), np.ones(1)
    plant_fc, plant_fperp = _figure1_plants()
    lines = []
    for tag, plant in (("fc", plant_fc), ("fperp", plant_fperp)):
        # P does not depend on x0, y_c or y_e: the DRE trace is traj's
        traj = lqr.optimal_trajectory(plant, x0, y_c, y_e, t1, grid)
        lines.append(_csv(args, sc, f"dre_{tag}", ["t", "normP_fro"],
                          np.column_stack([traj.grid, np.linalg.norm(
                              traj.P, axis=(1, 2))])))
        xs = traj.x
        # the norm as one dot product per row, the digits of norm(x)
        rows = np.column_stack([traj.grid, np.abs(xs),
                                np.sqrt(np.vecdot(xs, xs)),
                                np.abs(xs @ plant.F[0]),
                                np.abs(xs @ plant.C[0])])
        lines.append(_csv(args, sc, f"state_{tag}",
                          ["t", "abs_x1", "abs_x2", "norm_x", "abs_Fx",
                           "abs_Cx"], rows))
    return lines


_GRID = ("--grid", "override the output grid size")
# name -> (runner, help, integer options); every command but figure1 reads a
# scenario file
_COMMANDS = {
    "check": (cmd_check, "structural checks only", ()),
    "are": (cmd_are, "stabilizing algebraic Riccati solve", ()),
    "dre": (cmd_dre, "backward differential Riccati solve, CSV of norm "
            "trace", (_GRID,)),
    "simulate": (cmd_simulate, "optimal trajectory, CSV of "
                 "state/input/output", (_GRID,)),
    "turnpike": (cmd_turnpike, "turnpike fit and envelope check, CSV of "
                 "distances", (_GRID,)),
    "oracle": (cmd_oracle, "compare against the direct-transcription oracle",
               (("--steps", "transcription steps"),)),
    "figure1": (cmd_figure1, "reproduce the built-in two-panel reference "
                "data", ()),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process for every ``main`` call:
    a subcommand per ``_COMMANDS`` entry with --out and only the options it
    reads."""
    parser = argparse.ArgumentParser(
        prog="lqturnpike",
        description="Finite-horizon LQR and turnpike diagnostics for "
                    "state-space and descriptor plants")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "figure1":
            p.add_argument("scenario", help="path to a JSON scenario file")
            p.add_argument("--dump-normalized", action="store_true",
                           help="print the normalized scenario JSON and exit")
        p.add_argument("--out", default=None, help="output directory for CSV")
        for flag, help_option in options:
            p.add_argument(flag, type=int, default=None, help=help_option)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        path = getattr(args, "scenario", None)
        sc = None if path is None else load_scenario(path)
        grid = getattr(args, "grid", None)
        if grid is not None and grid < 2:
            raise ScenarioError("--grid must be >= 2")
        if sc is not None and args.dump_normalized:
            print(normalized_json(sc))
            return 0
        if grid is not None:
            sc = replace(sc, grid=grid)
        for key, val in _COMMANDS[args.command][0](sc, args):
            print(f"{key}: {val}")
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssumptionViolation as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DimensionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
