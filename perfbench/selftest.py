"""Self-test of the benchmark's output checks, run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs one real operation, confirms that its checks pass,
then perturbs one output at a time and confirms that the check of that
output reports it.  Exit code 0 when every perturbation is caught.
"""

import copy
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import lqturnpike  # noqa: E402
import lqturnpike.cli  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def scaled(value):
    return str(float(value) * 1.01 + 1e-3)


def flipped(value):
    return "False" if value == "True" else "True"


class CsvColumn:
    """Perturb one column of a CSV file the CLI wrote, restoring it after."""

    def __init__(self, path, column):
        self.path, self.column = path, column

    def __enter__(self):
        self.text = self.path.read_text()
        lines = self.text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[self.column] = repr(float(row[self.column]) * 1.01 + 1e-3)
        self.path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")

    def __exit__(self, *exc):
        self.path.write_text(self.text)


def certify_cases(work):
    """(case index, [(label, printed value change or (CSV file, column))])."""
    common = [
        ("check.impulse_free", flipped),
        ("are.residual", lambda v: "1.0"),
        ("are.norm_P_plus_fro", scaled),
        ("are.convergence_condition", flipped),
        ("dre.t", (0, 0)),
        ("dre.normP_fro", (0, 1)),
        ("simulate.t", (1, 0)),
        ("simulate.x", (1, 1)),
        ("simulate.cost", scaled),
        ("turnpike.convergence_condition", flipped),
        ("turnpike.lambda_theory", scaled),
        ("turnpike.t", (2, 0)),
        ("turnpike.dist_x", (2, 1)),
        ("turnpike.dist_u", (2, 2)),
    ]
    fperp = common + [
        ("are.spectral_abscissa", scaled),
        ("simulate.u", (1, 3)),
        ("simulate.y", (1, 4)),
        ("turnpike.envelope_holds", flipped),
        ("turnpike.lambda_hat", lambda v: "-1.5"),
    ]
    dae = common + [("are.lambda_bar", scaled), ("are.norm_P1_fro", scaled)]
    names = [case[0] for case in work.cases]
    return [(names.index("fperp"), fperp), (names.index("dae_coupled"), dae)]


def test_certify(scratch):
    work = workloads.TurnpikeCertify(0, scratch)
    work.build(lqturnpike)
    work.prepare()
    missed = []
    for case, mutations in certify_cases(work):
        op = (case, work.HORIZONS[0])
        out = work.run(op)
        assert not work.check(op, out), work.check(op, out)
        files = work.csv_files(op)
        for label, change in mutations:
            changed = copy.deepcopy(out)
            if callable(change):
                cmd, key = label.split(".")
                changed[cmd][key] = change(changed[cmd][key])
                problems = work.check(op, changed)
            else:
                with CsvColumn(files[change[0]], change[1]):
                    problems = work.check(op, changed)
            if not any(p.split(": ", 1)[1].startswith(label) for p in problems):
                missed.append(f"{work.cases[case][0]}: {label}")
    return missed


def test_algebraic(scratch):
    work = workloads.AlgebraicFamily(0, scratch)
    work.build(lqturnpike)
    work.prepare()
    missed = []
    for i in (0, 1):  # one standard, one descriptor plant
        plant, _, alg = work.inputs[i]
        out = work.run(i)
        assert not work.check(i, out), work.check(i, out)
        mutations = [(key, key) for key in ("lam", "W", "x_s", "u_s")]
        if plant.kind == "ode":
            mutations += [("P", "P+"), ("A_cl", "closed-loop abscissa"),
                          ("converges", "convergence")]
        else:
            mutations += [("P1", "P1"), ("P", "GARE residual"),
                          ("asym", "E*P symmetry"), ("anti", "finite closed-loop abscissa"),
                          ("flags", "impulse_free")]
        for key, label in mutations:
            changed = copy.deepcopy(out)
            if key == "converges":
                changed[key] = not changed[key]
            elif key == "A_cl":
                changed[key] = changed[key] + (1.0 - alg.lam) * np.eye(plant.n)
            elif key == "flags":
                changed[key]["impulse_free"] = False
            elif key == "asym":
                changed["P"][0, plant.n - 1] += 1e-3
            elif key == "anti":
                # the anti-stabilizing GARE solution: small residual, symmetric
                # E*P, but unstable finite closed-loop dynamics
                hr = ref.reduced_system(plant, np.zeros(plant.C.shape[0]))[0]
                changed["P"] = ref.assemble_descriptor(
                    plant, ref.stable_subspace_solution(-hr))
            elif key == "lam":
                changed[key] = changed[key] * 1.01 + 1e-3
            else:
                changed[key] = changed[key] * 1.001 + 1e-6
            problems = work.check(i, changed)
            if not any(p.split(": ", 1)[1].startswith(label) for p in problems):
                missed.append(f"{plant.kind}: {label}")
    return missed


def test_oracle(scratch):
    work = workloads.OracleVerify(0, scratch)
    work.build(lqturnpike)
    work.prepare()
    op = work.ops[0]
    levels = work.run(op)
    assert not work.check(op, levels), work.check(op, levels)
    low, mid, top = work.LADDER
    missed = []
    mutations = [
        (f"N={top} kkt residual", lambda lv: lv[top].update(kkt=1e-6)),
        (f"N={top} riccati x", lambda lv: lv[top].update(ric_x=lv[top]["ric_x"] * 1.01)),
        (f"N={top} riccati u", lambda lv: lv[top].update(ric_u=lv[top]["ric_u"] * 1.01)),
        (f"N={top} riccati cost", lambda lv: lv[top].update(ric_cost=lv[top]["ric_cost"] * 1.01)),
        (f"N={top} oracle error", lambda lv: lv[top].update(x=lv[top]["x"] + 2e-3)),
        (f"N={top} oracle cost", lambda lv: lv[top].update(cost=lv[top]["cost"] * 1.01)),
        # the middle rung as far off as the first: refinement factor 1
        ("refinement factor", lambda lv: lv[mid].update(
            x=work.refs[(0, mid)].x + np.abs(
                lv[low]["x"] - work.refs[(0, low)].x).max())),
    ]
    for label, mutate in mutations:
        changed = copy.deepcopy(levels)
        mutate(changed)
        problems = work.check(op, changed)
        if not any(p.split(": ", 1)[1].startswith(label) for p in problems):
            missed.append(label)
    return missed


def main():
    (HERE / ".work").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=HERE / ".work")
    try:
        missed = []
        for test in (test_algebraic, test_certify, test_oracle):
            found = test(scratch)
            print(f"{test.__name__}: {'ok' if not found else 'MISSED ' + ', '.join(found)}")
            missed += found
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
