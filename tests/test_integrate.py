import numpy as np
import pytest

import lqturnpike as lt
from lqturnpike.errors import NumericalError

from conftest import A_PLUS_ABC


def test_scalar_decay():
    ts, ys = lt.integrate_ode(lambda t, y: -y, np.array([1.0]), 0.0, 1.0)
    assert abs(ys[-1, 0] - np.exp(-1.0)) < 1e-8


def test_diagonal_flow():
    a = np.diag([2.0, -1.0])
    ts, ys = lt.integrate_ode(lambda t, y: a @ y, np.array([1.0, 1.0]), 0.0, 1.0)
    assert np.abs(ys[-1] - [np.e ** 2, np.e ** -1]).max() < 1e-7


def test_matrix_flow_vs_expm():
    ts, ys = lt.integrate_ode(lambda t, y: A_PLUS_ABC @ y, np.eye(2), 0.0, 1.0)
    assert np.abs(ys[-1] - lt.expm(A_PLUS_ABC)).max() < 1e-7


def test_random_linear_fields_vs_expm():
    rng = np.random.default_rng(19)
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        y0 = rng.standard_normal(3)
        _, ys = lt.integrate_ode(lambda t, y: a @ y, y0, 0.0, 1.0)
        exact = lt.expm(a) @ y0
        assert np.abs(ys[-1] - exact).max() < 1e-6 * (1.0 + np.abs(exact).max())


def test_backward_direction():
    # integrate ydot = y backward from y(1) = e to recover y(0) = 1
    ts, ys = lt.integrate_ode(lambda t, y: y, np.array([np.e]), 1.0, 0.0)
    assert ts[0] == 1.0 and ts[-1] == 0.0
    assert abs(ys[-1, 0] - 1.0) < 1e-8


def test_grid_and_shape():
    ts, ys = lt.integrate_ode(lambda t, y: 0.0 * y, np.ones((2, 3)), 0.0, 2.0,
                              grid=7)
    assert ts.shape == (7,) and ys.shape == (7, 2, 3)
    assert np.allclose(ts, np.linspace(0.0, 2.0, 7))


def test_finite_time_escape():
    # ydot = y^2 from y(0)=1 blows up at t = 1
    with pytest.raises(NumericalError):
        lt.integrate_ode(lambda t, y: y ** 2, np.array([1.0]), 0.0, 2.0)


def test_empty_span_rejected():
    with pytest.raises(ValueError):
        lt.integrate_ode(lambda t, y: y, np.array([1.0]), 1.0, 1.0)


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0), (3.0, 0.0)],
                         ids=["forward", "backward"])
def test_flow_between_nodes_vs_expm(t0, t1):
    # the continuous extension of Y' = A Y (a 4x2 matrix state) against
    # e^{(t - t0) A} Y0, at points off the output grid, and exactly the node
    # samples on it
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    y0 = rng.standard_normal((4, 2))
    flow = lt.integrate_ode(lambda t, y: a @ y, y0, t0, t1, grid=11)
    ts, ys = flow
    assert ts is flow.grid and ys is flow.y
    for t in np.linspace(0.0, 3.0, 97):
        exact = lt.expm((t - t0) * a) @ y0
        assert np.abs(flow(t) - exact).max() < 1e-8 * np.abs(exact).max()
    for t, y in zip(ts, ys):
        assert np.array_equal(flow(t), y)
