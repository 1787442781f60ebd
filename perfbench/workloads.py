"""The benchmark's three workloads: their inputs, one operation each, and the
checks of every operation's outputs against ``reference``.

Each workload is a closed loop with one caller.  A round runs every input of
the workload once, in a fixed order; a run repeats whole rounds.  Inputs
come from the seed alone; the program receives only the generated plants
(as matrices or as scenario files).
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import reference as ref

# Output bounds.  The package integrates at rtol 1e-8; on the long horizon
# of the F = C plant its forward pass is off by up to 5e-6 of a column's
# peak, so trajectories and costs get 1e-4.  DRE norm traces stay within
# 3e-7 on every seed tried and get 1e-6.  Algebraic outputs are direct solves
# and are held to 1e-8.
TRAJ_TOL = 1e-4
FLOW_TOL = 1e-6
ALG_TOL = 1e-8
# acceptance criterion 8 of the package's test suite
ORACLE_TOL = 1e-3
ORACLE_ORDER = {"ode": 3.5, "dae": 1.8}

SQRT3 = np.sqrt(3.0)
# the fully coupled descriptor plant of the package's test suite
COUPLED = (  # A, B, C, F
    [[-0.5, 0.3, 0.2, -0.1], [0.1, -0.8, 0.4, 0.3],
     [0.1, 0.2, -1.2, 0.2], [-0.3, 0.1, 0.1, -0.9]],
    [[1.0, 0.0], [0.5, 1.0], [0.3, 0.1], [0.2, 0.4]],
    [[1.0, 0.5, 0.1, 0.05], [0.0, 1.0, 0.02, 0.1]],
    [[0.8, 0.2, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0]])


class OpFailed(Exception):
    """The program refused or failed an operation."""


def _plant(a, b, c, f, d=None):
    a, b, c, f = (np.asarray(m, dtype=float) for m in (a, b, c, f))
    return ref.Plant(A=a, B=b, C=c, F=f, d=a.shape[0] if d is None else d)


def _unit(m):
    return m / np.linalg.norm(m, 2)


def random_plant(rng, n, descriptor, p_max=1e4):
    """A = randn/sqrt(n); B with n/4 inputs and C with n/4 outputs, both of
    unit 2-norm.  A descriptor plant has E = diag(I_d, 0) with n2 = n/4,
    A22 = -I plus a small random block, C2 scaled by 0.1 and F on x1 only.

    Draws whose reference solution is badly conditioned (||P+|| > p_max,
    closed-loop abscissa above -0.05, or an undecidable convergence
    bracket) are redrawn; they belong to a conditioning study, not to a
    throughput benchmark.
    """
    q = max(1, n // 4)
    d = n - q if descriptor else n
    while True:
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        b = _unit(rng.standard_normal((n, q)))
        c = _unit(rng.standard_normal((q, n)))
        f = np.zeros((q, n))
        f[:, :d] = _unit(rng.standard_normal((q, d)))
        if descriptor:
            a[d:, d:] = -np.eye(q) + 0.1 * rng.standard_normal((q, q)) / np.sqrt(q)
            c[:, d:] *= 0.1
        plant = _plant(a, b, c, f, d)
        try:
            alg = ref.algebraic(plant)
        except (ref.ReferenceError, np.linalg.LinAlgError, ValueError):
            continue
        if np.linalg.norm(alg.P_plus, 2) <= p_max and alg.lam <= -0.05:
            return plant, alg


def to_program(lt, plant):
    if plant.kind == "ode":
        return lt.LtiPlant(A=plant.A, B=plant.B, C=plant.C, F=plant.F)
    return lt.DescriptorPlant(E=plant.E, A=plant.A, B=plant.B, C=plant.C,
                              F=plant.F)


def _rel(a, b):
    """max |a - b| / max(1, max |b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    return float(np.max(np.abs(a - b), initial=0.0) / max(1.0, np.max(np.abs(b), initial=0.0)))


def _col_rel(a, b):
    """Largest error per column relative to that column's peak (at least 1),
    so a growing mode does not mask errors in the others."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    scale = np.maximum(1.0, np.max(np.abs(b), axis=0))
    return float(np.max(np.abs(a - b) / scale, initial=0.0))


def _bound(problems, label, value, bound):
    if not value <= bound:
        problems.append(f"{label}: {value:.3e} > {bound:.0e}")


def _equal(problems, label, value, expected):
    if value != expected:
        problems.append(f"{label}: {value!r}, expected {expected!r}")


# ---------------------------------------------------------------- certify


class TurnpikeCertify:
    """One operation runs ``check``, ``are``, ``dre``, ``simulate`` and
    ``turnpike`` through ``lqturnpike.cli.main`` on one scenario file."""

    name = "turnpike_certify"
    COMMANDS = ("check", "are", "dre", "simulate", "turnpike")
    HORIZONS = (10.0, 40.0)
    # The steady-state residual test of ``turnpike`` does not scale with
    # ||P+||: it refuses some draws with ||P+|| above 3e3, and stays within
    # 7% of its limit up to 1e3; see CHANGES.md.
    P_MAX = 1e3

    def __init__(self, seed, scratch):
        self.scratch = Path(scratch)
        rng = np.random.default_rng([seed, 1])
        b, c = [[1.0], [1.0]], [[0.0, SQRT3]]
        # (name, plant, x0, y_c, y_e, mpmath digits, fixed verdicts)
        cases = [
            ("fperp", _plant(np.diag([2.0, -1.0]), b, c, [[SQRT3, 0.0]]),
             [1.0, 1.0], [0.0], [1.0], None,
             {"envelope_holds": "True", "lambda_hat": (-2.2, -1.8)}),
            ("fc", _plant(np.diag([2.0, -1.0]), b, c, [[0.0, SQRT3]]),
             [1.0, 1.0], [0.0], [1.0], 100, {"envelope_holds": "False"}),
            ("dae_ref", _plant(np.diag([1.0, -1.0]), b, [[1.0, 0.0]],
                               [[1.0, 0.0]], 1),
             [1.0, 0.0], [1.0], [0.0], None, {"lambda_hat": (-1.6, -1.2)}),
            ("dae_coupled", _plant(*COUPLED, d=2),
             [1.0, -0.5, 0.0, 0.0], [0.7, -0.3], [0.2, 0.4], None, {}),
        ]
        for n, descriptor in ((4, False), (8, False), (4, True), (8, True)):
            plant, _ = random_plant(rng, n, descriptor, self.P_MAX)
            x0 = rng.standard_normal(n)
            x0[plant.d:] = 0.0
            k = plant.C.shape[0]
            cases.append((f"{plant.kind}{n}_rand", plant, x0,
                          rng.standard_normal(k), rng.standard_normal(k),
                          None, {}))
        self.cases = [(name, plant, np.asarray(x0, dtype=float),
                       np.asarray(y_c, dtype=float), np.asarray(y_e, dtype=float),
                       digits, verdicts)
                      for name, plant, x0, y_c, y_e, digits, verdicts in cases]
        self.ops = [(i, t1) for i, case in enumerate(self.cases)
                    for t1 in self.horizons(case)]
        self.refs = {}

    def horizons(self, case):
        """Random standard plants run at the short horizon only.  At t1 = 40
        the ``turnpike`` command inverts U(0) = e^{-t1 A+}(I + W(t1)(S - P+)),
        whose condition number reaches 1e15-1e20 on about a third of these
        draws, and on some seeds the solve raises; see CHANGES.md."""
        name, plant = case[:2]
        if name.endswith("_rand") and plant.kind == "ode":
            return self.HORIZONS[:1]
        return self.HORIZONS

    def describe(self):
        return [f"{self.cases[i][0]} n={self.cases[i][1].n} t1={t1:g}"
                for i, t1 in self.ops]

    def _path(self, op):
        i, t1 = op
        return self.scratch / f"{self.cases[i][0]}_t{int(t1)}.json"

    def build(self, lt):
        """Write the scenario files the program reads."""
        self.cli = lt.cli
        for op in self.ops:
            name, plant, x0, y_c, y_e, _, _ = self.cases[op[0]]
            scenario = {"kind": plant.kind}
            if plant.kind == "dae":
                scenario["E"] = plant.E.tolist()
            scenario.update(A=plant.A.tolist(), B=plant.B.tolist(),
                            C=plant.C.tolist(), F=plant.F.tolist(),
                            x0=x0.tolist(), y_c=y_c.tolist(), y_e=y_e.tolist(),
                            t1=op[1])
            self._path(op).write_text(json.dumps(scenario))

    def warmup(self):
        self.run(self.ops[0])

    def prepare(self):
        for i, case in enumerate(self.cases):
            name, plant, x0, y_c, y_e, digits, _ = case
            alg = ref.algebraic(plant)
            steady = ref.steady_state(plant, y_c)
            for t1 in self.horizons(case):
                self.refs[(i, t1)] = (alg, steady, ref.structural_flags(plant),
                                      ref.sweep(plant, x0, y_c, y_e, t1, 101, digits))

    def run(self, op):
        path = self._path(op)
        out = {}
        for cmd in self.COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([cmd, str(path), "--out", str(self.scratch)])
            if code != 0:
                raise OpFailed(f"{cmd} {path.name} exited {code}: "
                               f"{stderr.getvalue().strip()}")
            out[cmd] = dict(line.split(": ", 1)
                            for line in stdout.getvalue().splitlines()
                            if ": " in line and not line.startswith("note:"))
        return out

    def csv_files(self, op):
        stem = self._path(op).stem
        return [self.scratch / f"{stem}_{kind}.csv"
                for kind in ("dre", "trajectory", "turnpike")]

    def check(self, op, out):
        i, t1 = op
        name, plant, _, _, _, _, verdicts = self.cases[i]
        alg, (x_s, u_s), flags, traj = self.refs[op]
        problems = []
        for flag, expected in flags.items():
            _equal(problems, f"check.{flag}", out["check"].get(flag), str(expected))

        are = out["are"]
        p_norm = np.linalg.norm(alg.P_plus, "fro")
        _bound(problems, "are.norm_P_plus_fro",
               abs(float(are["norm_P_plus_fro"]) - p_norm) / p_norm, ALG_TOL)
        _bound(problems, "are.residual", float(are["residual"]), ALG_TOL * (1 + p_norm))
        _equal(problems, "are.convergence_condition", are["convergence_condition"],
               str(alg.converges))
        lam_key = "spectral_abscissa" if plant.kind == "ode" else "lambda_bar"
        # a defective closed loop (the 2x2 plants) leaves sqrt(eps) in eigenvalues
        _bound(problems, f"are.{lam_key}", abs(float(are[lam_key]) - alg.lam), 1e-6)
        if plant.kind == "dae":
            p1 = np.linalg.norm(alg.P1, "fro")
            _bound(problems, "are.norm_P1_fro",
                   abs(float(are["norm_P1_fro"]) - p1) / p1, ALG_TOL)

        files = self.csv_files(op)
        dre = _read_csv(files[0])
        _bound(problems, "dre.t", _rel(dre[:, 0], traj.grid), 1e-12)
        _bound(problems, "dre.normP_fro", _rel(dre[:, 1], traj.norm_P), FLOW_TOL)

        sim = _read_csv(files[1])
        n, m = traj.x.shape[1], traj.u.shape[1]
        _bound(problems, "simulate.t", _rel(sim[:, 0], traj.grid), 1e-12)
        _bound(problems, "simulate.x", _col_rel(sim[:, 1:1 + n], traj.x), TRAJ_TOL)
        _bound(problems, "simulate.u", _col_rel(sim[:, 1 + n:1 + n + m], traj.u), TRAJ_TOL)
        _bound(problems, "simulate.y", _col_rel(sim[:, 1 + n + m:], traj.x @ plant.C.T),
               TRAJ_TOL)
        _bound(problems, "simulate.cost",
               abs(float(out["simulate"]["cost"]) - traj.cost) / (1 + abs(traj.cost)),
               TRAJ_TOL)

        tp = out["turnpike"]
        _equal(problems, "turnpike.convergence_condition",
               tp["convergence_condition"], str(alg.converges))
        _bound(problems, "turnpike.lambda_theory",
               abs(float(tp["lambda_theory"]) - alg.lam), 1e-6)
        dist = _read_csv(files[2])
        _bound(problems, "turnpike.t", _rel(dist[:, 0], traj.grid), 1e-12)
        _bound(problems, "turnpike.dist_x",
               _col_rel(dist[:, 1:2], np.linalg.norm(traj.x - x_s, axis=1)[:, None]),
               TRAJ_TOL)
        _bound(problems, "turnpike.dist_u",
               _col_rel(dist[:, 2:3], np.linalg.norm(traj.u - u_s, axis=1)[:, None]),
               TRAJ_TOL)
        if "envelope_holds" in verdicts:
            _equal(problems, "turnpike.envelope_holds", tp["envelope_holds"],
                   verdicts["envelope_holds"])
        if "lambda_hat" in verdicts:
            low, high = verdicts["lambda_hat"]
            if not low <= float(tp["lambda_hat"]) <= high:
                problems.append(f"turnpike.lambda_hat {tp['lambda_hat']} "
                                f"outside [{low}, {high}]")
        return [f"{name} t1={t1:g}: {p}" for p in problems]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


# --------------------------------------------------------------- algebraic


class AlgebraicFamily:
    """One operation is the algebraic layer on one random plant: ODE plants
    at n = 33, descriptor plants at n = 42 (d = 32).  The two kinds cost the
    same, 0.11-0.13 s, so the round is one cost class and the median does
    not fall in a gap between two clusters, as it did with 32 and 44."""

    name = "algebraic_family"
    PLANTS = 8          # of each kind per round
    N_ODE, N_DAE = 33, 42

    def __init__(self, seed, scratch):
        rng = np.random.default_rng([seed, 2])
        self.inputs = []
        for k in range(2 * self.PLANTS):
            descriptor = k % 2 == 1
            plant, alg = random_plant(rng, self.N_DAE if descriptor else self.N_ODE,
                                      descriptor)
            self.inputs.append((plant, rng.standard_normal(plant.C.shape[0]), alg))
        self.ops = list(range(len(self.inputs)))
        self.refs = {}

    def describe(self):
        return [f"{p.kind} n={p.n} d={p.d}" for p, _, _ in self.inputs]

    def build(self, lt):
        self.lt = lt
        self.program_plants = [to_program(lt, p) for p, _, _ in self.inputs]

    def warmup(self):
        self.run(0)

    def prepare(self):
        for i, (plant, y_c, alg) in enumerate(self.inputs):
            self.refs[i] = (alg, ref.steady_state(plant, y_c))

    def run(self, i):
        lt, p = self.lt, self.program_plants[i]
        y_c = self.inputs[i][1]
        if isinstance(p, lt.LtiPlant):
            are = lt.stabilizing_solution(p)
            gram = lt.gramians(are, p.B)
            steady = lt.steady_state(p, are, y_c)
            conv = lt.check_convergence_condition(p.terminal_weight, are, gram)
            return dict(P=are.P_plus, A_cl=are.A_plus, lam=are.lam, W=gram.W,
                        x_s=steady.x_s, u_s=steady.u_s, converges=conv)
        report = lt.structural_report(p)
        gare = lt.solve_gare(p)
        delta = lt.structured_delta(gare, gare.partition.S1)
        steady = lt.dae_steady_state(gare, y_c)
        return dict(P=gare.P_plus, P1=gare.P1, lam=gare.lambda_bar,
                    W=delta.gram_bar.W, x_s=steady.x_s, u_s=steady.u_s,
                    flags={k: getattr(report, k) for k in
                           ("regular", "impulse_controllable", "impulse_free",
                            "finite_dynamics_stable", "f_compatible")})

    def check(self, i, out):
        plant, _, _ = self.inputs[i]
        alg, (x_s, u_s) = self.refs[i]
        problems = []
        _bound(problems, "lam", abs(out["lam"] - alg.lam), 1e-6)
        _bound(problems, "W", _rel(out["W"], alg.W), ALG_TOL)
        _bound(problems, "x_s", _rel(out["x_s"], x_s), ALG_TOL)
        _bound(problems, "u_s", _rel(out["u_s"], u_s), ALG_TOL)
        if plant.kind == "ode":
            _bound(problems, "P+", _rel(out["P"], alg.P_plus), ALG_TOL)
            _bound(problems, "closed-loop abscissa", np.max(
                np.linalg.eigvals(out["A_cl"]).real), -1e-9)
            _equal(problems, "convergence", out["converges"], alg.converges)
        else:
            p = out["P"]
            _bound(problems, "P1", _rel(out["P1"], alg.P1), ALG_TOL)
            _bound(problems, "GARE residual", ref.gare_residual(plant, p), ALG_TOL)
            ep = plant.E.T @ p
            _bound(problems, "E*P symmetry",
                   np.abs(ep - ep.T).max() / (1 + np.abs(p).max()), 1e-10)
            _bound(problems, "finite closed-loop abscissa",
                   ref.finite_closed_loop_abscissa(plant, p), -1e-9)
            for flag, expected in ref.structural_flags(plant).items():
                _equal(problems, flag, out["flags"][flag], expected)
        return [f"plant {i} ({plant.kind} n={plant.n}): {p}" for p in problems]


# ------------------------------------------------------------------ oracle


class OracleVerify:
    """One operation is the refinement ladder N = 500, 1000, 2000 on one of
    the two reference plants of acceptance criterion 8: at each level
    ``transcribe_and_solve`` and the matched Riccati trajectory on grid
    N + 1, the work of ``lqturnpike oracle --steps N``.

    The plants and their data are the acceptance fixture, so the seed does
    not change them.
    """

    name = "oracle_verify"
    LADDER = (500, 1000, 2000)
    T1 = 10.0

    def __init__(self, seed, scratch):
        b = [[1.0], [1.0]]
        self.cases = [
            ("fperp", _plant(np.diag([2.0, -1.0]), b, [[0.0, SQRT3]], [[SQRT3, 0.0]]),
             np.array([1.0, 1.0]), np.array([0.0]), np.array([1.0])),
            ("dae_ref", _plant(np.diag([1.0, -1.0]), b, [[1.0, 0.0]], [[1.0, 0.0]], 1),
             np.array([1.0, 0.0]), np.array([1.0]), np.array([0.0])),
        ]
        self.ops = [(i, self.LADDER) for i in range(len(self.cases))]
        self.refs = {}

    def describe(self):
        return [f"{self.cases[i][0]} N={ladder}" for i, ladder in self.ops]

    def build(self, lt):
        self.lt = lt
        self.program_plants = [to_program(lt, c[1]) for c in self.cases]

    def warmup(self):
        """The first rung of the ladder on both plants."""
        for i in range(len(self.cases)):
            self.run((i, self.LADDER[:1]))

    def prepare(self):
        for i, (_, plant, x0, y_c, y_e) in enumerate(self.cases):
            for n_steps in self.LADDER:
                self.refs[(i, n_steps)] = ref.sweep(plant, x0, y_c, y_e, self.T1,
                                                    n_steps + 1)

    def run(self, op):
        i, ladder = op
        lt, p = self.lt, self.program_plants[i]
        _, _, x0, y_c, y_e = self.cases[i]
        levels = {}
        for n_steps in ladder:
            sol = lt.transcribe_and_solve(p, x0, y_c, y_e, self.T1, n_steps)
            if isinstance(p, lt.LtiPlant):
                ric = lt.optimal_trajectory(p, x0, y_c, y_e, self.T1, grid=n_steps + 1)
            else:
                ric = lt.dae_optimal_trajectory(p, x0, y_c, y_e, self.T1,
                                                grid=n_steps + 1)
            levels[n_steps] = dict(x=sol.x, u=sol.u, cost=sol.cost,
                                   kkt=sol.kkt_residual, ric_x=ric.x,
                                   ric_u=ric.u, ric_cost=ric.cost)
        return levels

    def check(self, op, levels):
        i, _ = op
        name, plant = self.cases[i][:2]
        problems, errors = [], {}
        for n_steps, out in levels.items():
            traj = self.refs[(i, n_steps)]
            tag = f"N={n_steps}"
            _bound(problems, f"{tag} kkt residual", out["kkt"], 1e-9)
            _bound(problems, f"{tag} riccati x", _col_rel(out["ric_x"], traj.x), TRAJ_TOL)
            _bound(problems, f"{tag} riccati u", _col_rel(out["ric_u"], traj.u), TRAJ_TOL)
            _bound(problems, f"{tag} riccati cost",
                   abs(out["ric_cost"] - traj.cost) / (1 + abs(traj.cost)), TRAJ_TOL)
            # midpoint controls (ODE scheme) have no node reference
            err = _rel(out["x"], traj.x)
            if plant.kind == "dae":
                err = max(err, _rel(out["u"], traj.u))
            errors[n_steps] = err
        top = max(levels)
        if top == self.LADDER[-1]:
            traj = self.refs[(i, top)]
            _bound(problems, f"N={top} oracle error", errors[top], ORACLE_TOL)
            _bound(problems, f"N={top} oracle cost",
                   abs(levels[top]["cost"] - traj.cost) / (1 + abs(traj.cost)),
                   ORACLE_TOL)
            order = errors[self.LADDER[0]] / errors[self.LADDER[1]]
            if not order >= ORACLE_ORDER[plant.kind]:
                problems.append(f"refinement factor {order:.2f} < "
                                f"{ORACLE_ORDER[plant.kind]}")
        return [f"{name}: {p}" for p in problems]


WORKLOADS = {w.name: w for w in (TurnpikeCertify, AlgebraicFamily, OracleVerify)}
