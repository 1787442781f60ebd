"""Adaptive Dormand-Prince 5(4) integration with output on a uniform grid
and Shampine's fourth-order continuous extension between the nodes (Math.
Comp. 46, 1986), which costs no further field evaluations.

The marcher clips its adaptive steps so that every requested output node is
hit exactly.  Backward problems (``t1 < t0``) are handled by the time
substitution ``tau = t0 - t`` and marched forward in ``tau``.  It is not
scipy's ``solve_ivp``: that import also loads scipy's optimizers, some
22 MB of resident memory in every process that solves a trajectory.
"""

import numpy as np

from .errors import NumericalError
from .linalg import DEFAULT_TOL

# Butcher tableau of the Dormand-Prince 5(4) pair (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4
# Continuous extension: y(t + s h) = y + h K* _P [s, s^2, s^3, s^4] over a
# step from t with stages K.  It is the cubic Hermite interpolant of
# (y, k1) at s = 0 and (y_new, k7) at s = 1 plus h K* _D s^2 (1 - s)^2;
# _E1 and _E7 pick the stages k1 and k7.
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])
_E1, _E7 = np.eye(7)[[0, 6]]
_P = np.column_stack([_E1, 3 * _B5 - 2 * _E1 - _E7 + _D,
                      _E1 + _E7 - 2 * _B5 - 2 * _D, _D])

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9


class Flow:
    """Solution of ``integrate_ode``: output nodes ``grid`` with samples
    ``y``, and ``flow(t)``, the continuous extension anywhere on the span,
    equal to ``y[j]`` at ``grid[j]``.  Unpacks as ``ts, ys = flow``."""

    def __init__(self, grid, y, sign, starts, steps, coef):
        self.grid, self.y = grid, y
        # starts are sign * t, ascending, and bitwise the node times where
        # a step starts on a node
        self._sign, self._starts, self._steps, self._coef = (
            sign, starts, steps, coef)

    def __iter__(self):
        return iter((self.grid, self.y))

    def __call__(self, t):
        starts = self._starts
        key = min(max(self._sign * t, starts[0]), starts[-1])
        i = int(np.searchsorted(starts, key, side="right")) - 1
        s = (key - starts[i]) / self._steps[i]
        powers = np.array([1.0, s, s * s, s ** 3, s ** 4])
        return (self._coef[i] @ powers).reshape(self.y.shape[1:])


def integrate_ode(field, y0, t0, t1, tol=DEFAULT_TOL, grid=101):
    """Integrate ``dy/dt = field(t, y)`` from t0 to t1.

    Parameters
    ----------
    field : callable(t, y) -> array matching ``y``'s shape
    y0 : array-like, any shape (matrices are handled transparently)
    grid : number of output nodes; output times are uniform from t0 to t1

    Returns
    -------
    A ``Flow`` that unpacks as ``ts, ys``: the (grid,) output times from t0
    to t1 inclusive (in integration direction) and the (grid, *shape(y0))
    samples; ``flow(t)`` evaluates the solution between the nodes.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 nodes")
    if t1 == t0:
        raise ValueError("integration span is empty (t0 == t1)")

    y0 = np.asarray(y0, dtype=float)
    shape = y0.shape
    # tau = sign (t - t0), z(tau) = y(t0 + sign tau), marched forward in tau
    sign = 1.0 if t1 > t0 else -1.0

    def f(tau, z):
        return sign * np.asarray(field(t0 + sign * tau, z.reshape(shape)),
                                 dtype=float).ravel()

    taus, zs, starts, hs, coef = _march(f, y0.ravel(), abs(t1 - t0), tol, grid)
    return Flow(t0 + sign * taus, zs.reshape((grid,) + shape), sign,
                sign * (t0 + sign * starts), hs, coef)


def _march(f, y0, span, tol, grid):
    """Forward march over [0, span], landing exactly on the uniform grid.

    Returns the nodes, the node samples and, per accepted step, its start,
    its length and its continuous extension's coefficients of powers of
    s = (tau - start) / length; a last entry holds the end value."""
    rtol, atol = tol.ode_rel, tol.ode_abs
    nodes = np.linspace(0.0, span, grid)
    out = np.empty((grid, y0.size))
    out[0] = y0
    steps = []

    t = 0.0
    y = y0.copy()
    k1 = f(t, y)
    if not np.all(np.isfinite(k1)):
        raise NumericalError("vector field non-finite at the initial point")
    scale0 = atol + rtol * np.linalg.norm(y, np.inf)
    h = min(span / (grid - 1),
            0.1 * scale0 / max(np.linalg.norm(k1, np.inf), 1e-12), span)
    h = max(h, 1e3 * np.finfo(float).eps * span)

    hmin_floor = 16.0 * np.finfo(float).eps
    for j in range(1, grid):
        target = nodes[j]
        while target - t > hmin_floor * max(abs(target), 1.0):
            h = min(h, target - t)
            if h < hmin_floor * max(abs(t), 1.0):
                raise NumericalError(f"step size underflow at t={t:.9g}")
            k = np.empty((7, y.size))
            k[0] = k1
            for i in range(1, 7):
                yi = y + h * (_A[i] @ k[:i])
                k[i] = f(t + _C[i] * h, yi)
            y_new = y + h * (_B5 @ k)
            err_vec = h * (_E @ k)
            if not np.all(np.isfinite(y_new)):
                raise NumericalError(f"solution became non-finite near t={t:.9g}")
            sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(np.mean((err_vec / sc) ** 2))
            if err <= 1.0:
                steps.append((t, h, np.column_stack([y, h * (k.T @ _P)])))
                k1 = k[6]  # FSAL
                t, y = t + h, y_new
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** -0.2
            h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        t = target
        out[j] = y
    steps.append((span, 1.0, np.column_stack([y, np.zeros((y.size, 4))])))
    return (nodes, out) + tuple(np.array(v) for v in zip(*steps))
