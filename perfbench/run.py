"""Benchmark of lqturnpike, run from the repository root:

    python3 perfbench/run.py --workload turnpike_certify --seed 1 \\
        --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout it sits in, builds the
workload's inputs from the seed, runs whole rounds of operations in one
process for at least ``--seconds`` and checks every output against
``reference``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record of the run, spans included, goes to ``perfbench/results/``.
See perfbench/README.md.
"""

import os

# One BLAS thread, fixed before numpy loads: no more than nproc, and steadier
# than two on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "lqturnpike"
# set-up is timed this many times per run and reported as the median
SETUP_REPS = 5


def import_package():
    """Fresh import of the package, as a new user process would pay it."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return package


def measure(workload, seconds, tracer=None):
    """Whole rounds of the workload's operations until ``seconds`` have
    passed.  With a tracer every round runs twice, untraced then traced, so
    both latencies come from the same process."""
    latencies = {False: [], True: []}
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                for op in workload.ops:
                    attempted += 1
                    if traced:
                        tracer.begin(op)
                    t0 = time.perf_counter()
                    try:
                        out = workload.run(op)
                    except Exception:  # a refused or crashed operation counts as failed
                        failed += 1
                        print(traceback.format_exc(limit=2), file=sys.stderr)
                        continue
                    latencies[traced].append(time.perf_counter() - t0)
                    if traced and hasattr(workload, "csv_files"):
                        tracer.count("cli.csv_bytes", sum(
                            p.stat().st_size for p in workload.csv_files(op)))
                    problems += workload.check(op, out)
            finally:
                if traced:
                    tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return latencies, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads  # loads numpy and scipy before any timing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = HERE / ".work"
    work_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            package = import_package()
            workload.build(package)
            workload.warmup()
            setup.append(time.perf_counter() - t0)
        if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: {PACKAGE} imported from {package.__file__}", file=sys.stderr)
            return 2
        workload.prepare()
        tracer = tracing.Tracer(package) if args.trace else None
        latencies, attempted, failed, problems = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = latencies[False]
    if not plain:
        print("error: no operation completed", file=sys.stderr)
        return 1
    p50_ms = 1000.0 * statistics.median(plain)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "blas_threads": int(BLAS_THREADS), "inputs": workload.describe(),
        "setup_s": setup, "op_s": plain, "op_samples": len(plain),
        "problems": problems,
    }
    if tracer:
        traced_ms = [1000.0 * t for t in latencies[True]]
        metrics = tracer.per_layer(statistics.median(traced_ms) - p50_ms)
        record.update(traced_op_s=latencies[True],
                      shares=tracer.shares(sum(traced_ms)),
                      span_totals=tracer.summary(), spans=tracer.spans)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    record["metrics"] = metrics
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out_file = results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {attempted} operations attempted, {failed} failed, "
          f"op_p50_ms over {len(plain)} samples; record in {out_file}",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
