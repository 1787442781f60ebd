"""Span recorder for the traced run.

It wraps the public functions of the package's layers under every module
attribute that callers look up (``lqr.integrate_ode`` and
``riccati.solve_lyapunov`` as well as ``integrate.integrate_ode``), so the
package itself stays unchanged.  Spans and counts stay in memory until the
run ends.  A span is [operation, name, parent span, start ns, end ns]; a
layer's self time is its span minus its direct child spans.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("linalg", "integrate", "plants", "riccati", "lqr", "dae_riccati",
          "dae_lqr", "oracle", "cli")
# traced beyond the package's exported names
EXTRA = {"linalg": ("solve_are_q",), "oracle": ("discretize",), "cli": ("main",)}

# per-layer metric -> (span name, statistic); statistics are per operation
SPAN_METRICS = {
    "integrate.ms": ("integrate.integrate_ode", "ms"),
    "integrate.calls": ("integrate.integrate_ode", "calls"),
    "lqr.optimal_trajectory.self_ms": ("lqr.optimal_trajectory", "self_ms"),
    "dae_lqr.dae_optimal_trajectory.self_ms": ("dae_lqr.dae_optimal_trajectory", "self_ms"),
    "riccati.solve_dre.self_ms": ("riccati.solve_dre", "self_ms"),
    "dae_riccati.solve_gdre.self_ms": ("dae_riccati.solve_gdre", "self_ms"),
    "lqr.steady_state.ms": ("lqr.steady_state", "ms"),
    "lqr.decompose_state.ms": ("lqr.decompose_state", "ms"),
    "lqr.turnpike_report.ms": ("lqr.turnpike_report", "ms"),
    "dae_lqr.dae_steady_state.ms": ("dae_lqr.dae_steady_state", "ms"),
    "linalg.expm.ms": ("linalg.expm", "ms"),
    "linalg.expm.calls": ("linalg.expm", "calls"),
    "linalg.solve_lyapunov.ms": ("linalg.solve_lyapunov", "ms"),
    "linalg.solve_lyapunov.calls": ("linalg.solve_lyapunov", "calls"),
    "linalg.solve_are_q.self_ms": ("linalg.solve_are_q", "self_ms"),
    "linalg.solve_are_q.calls": ("linalg.solve_are_q", "calls"),
    "riccati.stabilizing_solution.self_ms": ("riccati.stabilizing_solution", "self_ms"),
    "riccati.gramians.self_ms": ("riccati.gramians", "self_ms"),
    "dae_riccati.solve_gare.self_ms": ("dae_riccati.solve_gare", "self_ms"),
    "dae_riccati.solve_fast_block.ms": ("dae_riccati.solve_fast_block", "ms"),
    "dae_riccati.structured_delta.ms": ("dae_riccati.structured_delta", "ms"),
    "plants.structural_report.ms": ("plants.structural_report", "ms"),
    "oracle.discretize.ms": ("oracle.discretize", "ms"),
    # everything transcribe_and_solve does besides assembling the QP:
    # the KKT block, its LU solve and the residual check
    "oracle.kkt_solve.ms": ("oracle.transcribe_and_solve", "self_ms"),
    "cli.self_ms": ("cli.main", "self_ms"),
}
# counts recorded at the layer boundaries: summed per operation, or the
# largest value seen
SUM_COUNTS = ("integrate.rhs_evals", "cli.csv_bytes")
MAX_COUNTS = ("linalg.solve_lyapunov.max_n", "oracle.kkt_dim", "oracle.kkt_nnz")
UNITS = {"ms": "ms", "self_ms": "ms", "overhead_ms": "ms", "csv_bytes": "B"}


def unit(metric):
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


class Tracer:
    """Spans and counts of the operations run between ``install`` and
    ``uninstall``; ``begin`` starts the next operation."""

    def __init__(self, package):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None
        self.ops = []
        self._patches = []
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (name in package.__all__ or name in EXTRA.get(layer, ()))):
                    wrapper = self._wrap(f"{layer}.{name}", fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._patches.append((m, attr, fn, wrapper))

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn, _ in self._patches:
            setattr(m, attr, fn)

    def begin(self, op):
        self.op = len(self.ops)
        self.ops.append(op)

    def count(self, key, value, largest=False):
        slot = self.counts.setdefault(self.op, {})
        slot[key] = max(slot.get(key, 0), value) if largest else slot.get(key, 0) + value

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook(self, args)
            index = len(self.spans)
            self.spans.append([self.op, name, self.stack[-1] if self.stack else -1,
                               time.perf_counter_ns(), 0])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][4] = time.perf_counter_ns()
            if name == "oracle.discretize":
                kkt_nnz = np.count_nonzero(result.H) + 2 * np.count_nonzero(result.G)
                self.count("oracle.kkt_dim", result.H.shape[0] + result.G.shape[0], True)
                self.count("oracle.kkt_nnz", int(kkt_nnz), True)
            return result

        return wrapper

    def summary(self):
        """Per-span-name totals over all traced operations."""
        child = [0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (op, name, parent, start, end), inner in zip(self.spans, child):
            t = totals.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            t["ms"] += (end - start) / 1e6
            t["self_ms"] += (end - start - inner) / 1e6
            t["calls"] += 1
        return totals

    def per_layer(self, overhead_ms):
        ops = max(1, len(self.ops))
        totals = self.summary()
        metrics = {}
        values = {metric: totals.get(span, {}).get(stat, 0) / ops
                  for metric, (span, stat) in SPAN_METRICS.items()}
        for key in SUM_COUNTS:
            values[key] = sum(c.get(key, 0) for c in self.counts.values()) / ops
        for key in MAX_COUNTS:
            values[key] = max((c.get(key, 0) for c in self.counts.values()), default=0)
        values["trace.overhead_ms"] = overhead_ms
        return {metric: {"value": value, "unit": unit(metric)}
                for metric, value in values.items()}

    def covered_ms(self, names):
        """Time inside spans named in ``names``, counting nested ones once."""
        total = 0
        for _, name, parent, start, end in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][1] not in names:
                parent = self.spans[parent][2]
            if parent < 0:
                total += end - start
        return total / 1e6

    def shares(self, op_ms_total):
        """Share of traced operation time per layer (self time), and the
        time inside the spans each workload was chosen for."""
        totals = self.summary()
        out = {}
        for layer in LAYERS:
            self_ms = sum(t["self_ms"] for name, t in totals.items()
                          if name.startswith(layer + "."))
            out[f"{layer}.self"] = self_ms / op_ms_total
        out["integrate.integrate_ode"] = self.covered_ms(
            {"integrate.integrate_ode"}) / op_ms_total
        out["linalg.solve_lyapunov+solve_are_q"] = self.covered_ms(
            {"linalg.solve_lyapunov", "linalg.solve_are_q"}) / op_ms_total
        out["oracle"] = self.covered_ms(
            {name for name in totals if name.startswith("oracle.")}) / op_ms_total
        return out


def _count_rhs(tracer, args):
    field = args[0]

    def counted(t, y):
        tracer.count("integrate.rhs_evals", 1)
        return field(t, y)

    return (counted,) + tuple(args[1:])


def _lyapunov_size(tracer, args):
    tracer.count("linalg.solve_lyapunov.max_n", np.shape(args[0])[0], True)
    return args


_HOOKS = {"integrate.integrate_ode": _count_rhs,
          "linalg.solve_lyapunov": _lyapunov_size}
