import subprocess
import sys

import numpy as np
import pytest

import lqturnpike as lt
from lqturnpike.errors import NumericalError
from lqturnpike.linalg import rank_svd
from lqturnpike.oracle import discretize


class TestDiscretization:
    def test_minimum_steps(self, abc_fperp):
        with pytest.raises(ValueError):
            lt.transcribe_and_solve(abc_fperp, [0.0, 0.0], [0.0], [0.0],
                                    1.0, 10)

    def test_non_plant_rejected(self):
        with pytest.raises(TypeError, match=r"^unsupported plant type dict$"):
            lt.transcribe_and_solve({}, [0.0], [0.0], [0.0], 1.0, 50)

    def test_constraint_row_rank(self, abc_fperp, ref_dae):
        for plant, x0 in ((abc_fperp, [1.0, 1.0]), (ref_dae, [1.0, 0.0])):
            disc = discretize(plant, x0, [0.0], [0.0], 1.0, 60)
            assert rank_svd(disc.G) == disc.G.shape[0]

    def test_rank_deficiency_detected(self):
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]), F=np.zeros((1, 2)))
        with pytest.raises(NumericalError):
            lt.transcribe_and_solve(plant, [1.0, 0.0], [0.0], [0.0], 1.0, 60)


class TestZeroData:
    def test_ode(self, abc_fperp):
        sol = lt.transcribe_and_solve(abc_fperp, [0.0, 0.0], [0.0], [0.0],
                                      2.0, 60)
        assert np.abs(sol.x).max() < 1e-12
        assert np.abs(sol.u).max() < 1e-12
        assert abs(sol.cost) < 1e-15

    def test_dae(self, ref_dae):
        sol = lt.transcribe_and_solve(ref_dae, [0.0, 0.0], [0.0], [0.0],
                                      2.0, 60)
        assert np.abs(sol.x).max() < 1e-12
        assert abs(sol.cost) < 1e-15


class TestAgreement:
    def test_ode_small(self, abc_fperp):
        sol = lt.transcribe_and_solve(abc_fperp, [1.0, 1.0], [0.0], [1.0],
                                      10.0, 200)
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0],
                                     10.0, grid=201)
        assert np.abs(traj.x - sol.x).max() < 2e-3
        assert sol.kkt_residual <= 1e-9
        assert sol.u_times.shape == (200,)
        assert sol.u_times[0] == pytest.approx(0.025)

    def test_dae_small(self, ref_dae):
        sol = lt.transcribe_and_solve(ref_dae, [1.0, 0.0], [1.0], [0.0],
                                      10.0, 200)
        traj = lt.optimal_trajectory(ref_dae, [1.0, 0.0], [1.0], [0.0],
                                     10.0, grid=201)
        assert np.abs(traj.x - sol.x).max() < 3e-3
        assert np.abs(traj.u - sol.u).max() < 3e-3

    def test_dae_algebraic_rows_exact(self, ref_dae):
        sol = lt.transcribe_and_solve(ref_dae, [1.0, 0.0], [1.0], [1.0],
                                      5.0, 80)
        part = ref_dae.partition()
        resid = (sol.x[1:, :1] @ part.A21.T + sol.x[1:, 1:] @ part.A22.T
                 + sol.u[1:] @ part.B2.T)
        assert np.abs(resid).max() < 1e-11

    def test_singular_fast_block_keeps_raw_boundary(self):
        # A22 = 0: the boundary extrapolation cannot recover x2 at nodes 0
        # and N, which keep the raw QP values (first order in h, 4.4e-3 off
        # here against 1.0e-4 in the interior), and the shift reads NaN
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[-1.0, 1.0], [1.0, 0.0]]),
            B=np.array([[1.0], [1.0]]), C=np.array([[1.0, 1.0]]),
            F=np.array([[1.0, 0.0]]))
        sol = lt.transcribe_and_solve(plant, [1.0, 0.0], [0.5], [0.0], 2.0, 100)
        traj = lt.optimal_trajectory(plant, [1.0, 0.0], [0.5], [0.0], 2.0,
                                     grid=101)
        assert np.isnan(sol.boundary_u_shift)
        assert np.abs(traj.x[1:-1] - sol.x[1:-1]).max() < 2e-4

    def test_riccati_cost_not_smaller_than_oracle(self, abc_fperp):
        # the discrete feasible set is a strict subset up to O(h^2), so the
        # continuous optimum can undercut the oracle only marginally
        sol = lt.transcribe_and_solve(abc_fperp, [1.0, 1.0], [0.0], [1.0],
                                      10.0, 400)
        traj = lt.optimal_trajectory(abc_fperp, [1.0, 1.0], [0.0], [1.0],
                                     10.0, grid=401)
        assert traj.cost <= sol.cost + 1e-3 * (1.0 + abs(sol.cost))

    @pytest.mark.parametrize("kind", ["ode", "dae"])
    def test_no_input(self, kind):
        # m = 0: u has one empty row per control stage (midpoints or
        # nodes), and x is the free response, second order in h
        a = np.diag([-1.0, -2.0]) if kind == "ode" else np.array([[-1.0, 0.5], [0.3, 1.0]])
        e = np.diag([1.0, 1.0 if kind == "ode" else 0.0])
        plant = lt.DescriptorPlant(E=e, A=a, B=np.zeros((2, 0)),
                                   C=np.array([[1.0, 0.0]]),
                                   F=np.array([[1.0, 0.0]]))
        errs = []
        for n_steps in (500, 1000, 2000):
            sol = lt.transcribe_and_solve(plant, [1.0, 1.0], [0.0], [0.0],
                                          5.0, n_steps)
            traj = lt.optimal_trajectory(plant, [1.0, 1.0], [0.0], [0.0],
                                         5.0, grid=n_steps + 1)
            assert sol.u.shape == (n_steps + (kind == "dae"), 0)
            assert sol.kkt_residual <= 1e-14
            errs.append(np.abs(sol.x - traj.x).max())
        assert errs[-1] < 2e-6
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


class TestRandomizedAgreement:
    def test_random_ode_plants(self):
        # general-shape consistency of the Riccati path against the
        # transcription on short horizons
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(6):
            n, m, k = 3, 2, 2
            a = rng.standard_normal((n, n))
            plant = lt.LtiPlant(A=a, B=rng.standard_normal((n, m)),
                                C=rng.standard_normal((k, n)),
                                F=0.5 * rng.standard_normal((k, n)))
            x0 = rng.standard_normal(n)
            y_c = rng.standard_normal(k)
            y_e = rng.standard_normal(k)
            sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, 3.0, 120)
            traj = lt.optimal_trajectory(plant, x0, y_c, y_e, 3.0, grid=121)
            scale = 1.0 + np.abs(traj.x).max()
            assert np.abs(traj.x - sol.x).max() < 5e-3 * scale
            rel = abs(traj.cost - sol.cost) / (1.0 + abs(traj.cost))
            assert rel < 5e-3   # second-order quadrature at h = 0.025
            checked += 1
        assert checked == 6


class TestCostMonotonicity:
    @pytest.mark.parametrize("kind", ["ode", "dae"])
    def test_reference_scenarios(self, kind, abc_fperp, ref_dae):
        if kind == "ode":
            plant, x0, y_c, y_e = abc_fperp, [1.0, 1.0], [0.0], [1.0]
        else:
            plant, x0, y_c, y_e = ref_dae, [1.0, 0.0], [1.0], [0.0]
        costs = [lt.transcribe_and_solve(plant, x0, y_c, y_e, 10.0, N).cost
                 for N in (100, 200, 400)]
        for coarse, fine in zip(costs, costs[1:]):
            assert fine <= coarse + 1e-6 * (1.0 + abs(coarse))


class TestSparsePath:
    def test_rank_deficiency_past_audit(self):
        # the plant of test_rank_deficiency_detected at an N the SVD rank
        # audit skips: the band LU itself must refuse (an exactly zero pivot)
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]), F=np.zeros((1, 2)))
        with pytest.raises(NumericalError):
            lt.transcribe_and_solve(plant, [1.0, 0.0], [0.0], [0.0], 1.0, 300)

    @pytest.mark.parametrize("kind", ["ode", "dae"])
    def test_matches_dense_kkt(self, kind, abc_fperp, ref_dae):
        if kind == "ode":
            plant, x0, y_c, y_e = abc_fperp, [1.0, 1.0], [0.0], [1.0]
        else:
            plant, x0, y_c, y_e = ref_dae, [1.0, 0.0], [1.0], [0.0]
        disc = discretize(plant, x0, y_c, y_e, 10.0, 200)
        nz, nc = disc.H.shape[0], disc.G.shape[0]
        kkt = np.block([[disc.H, disc.G.T], [disc.G, np.zeros((nc, nc))]])
        z = np.linalg.solve(kkt, np.concatenate([disc.f, disc.b]))[:nz]
        nx = disc.n * 201
        x_ref = z[:nx].reshape(201, disc.n)
        u_ref = z[nx:].reshape(-1, disc.m)
        cost_ref = 0.5 * z @ disc.H @ z - disc.f @ z + disc.const

        sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, 10.0, 200)
        assert sol.kkt_dim == nz + nc
        assert sol.kkt_nnz == np.count_nonzero(kkt)
        assert abs(sol.cost - cost_ref) <= 1e-12 * (1.0 + abs(cost_ref))
        if kind == "ode":
            assert sol.boundary_u_shift is None
            assert np.abs(sol.x - x_ref).max() <= 1e-12
            assert np.abs(sol.u - u_ref).max() <= 1e-12
        else:
            # nodes 0 and N carry the boundary extrapolation
            assert np.abs(sol.x[1:-1] - x_ref[1:-1]).max() <= 1e-12
            assert np.abs(sol.u[1:-1] - u_ref[1:-1]).max() <= 1e-12
            assert np.abs(sol.x[[0, -1], :1] - x_ref[[0, -1], :1]).max() <= 1e-12
            shift = np.abs(sol.u[[0, -1]] - u_ref[[0, -1]]).max()
            assert sol.boundary_u_shift == pytest.approx(shift, abs=1e-12)

    def test_import_leaves_scipy_sparse_unloaded(self):
        # the trajectory and Riccati passes step exact flow maps with
        # scipy.linalg.expm and integrate no ODE: scipy.integrate would load
        # scipy.optimize too, and with it some 22 MB of resident memory
        code = ("import sys, lqturnpike as lt, lqturnpike.cli; "
                "p = lt.DescriptorPlant(E=[[1, 0], [0, 0]], A=[[1, 0], [0, -1]], "
                "B=[[1], [1]], C=[[1, 0]], F=[[1, 0]]); "
                "lt.optimal_trajectory(p, [1, 0], [1], [0], 2.0, 11); "
                "lt.solve_gdre(p, 2.0, 11); "
                "print([m for m in ('scipy.sparse', 'scipy.integrate', "
                "'scipy.interpolate', 'scipy.optimize') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


def _random_plant(rng, descriptor):
    """A random plant with n <= 5 and m <= 3 inputs; a descriptor one has
    n - d <= 3 algebraic variables and at least one differential one."""
    n = int(rng.integers(2 if descriptor else 1, 6))
    m = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    b, c, f = (rng.standard_normal(shape) for shape in ((n, m), (k, n), (k, n)))
    if not descriptor:
        return lt.LtiPlant(A=a, B=b, C=c, F=f)
    d = n - int(rng.integers(1, min(3, n - 1) + 1))
    return lt.DescriptorPlant(E=np.diag([1.0] * d + [0.0] * (n - d)),
                              A=a, B=b, C=c, F=f)


class TestStageOrder:
    def test_general_shapes_match_dense_kkt(self):
        # the band LU of the stage-ordered KKT matrix against a dense solve
        # of the same matrix on 12 random shapes, at N = 210, just past the
        # rank audit.  Budget: about 3 s on one core, nearly all of it the
        # dense solves of KKT matrices up to order 2,743
        rng = np.random.default_rng(20)
        N = 210
        for trial in range(12):
            plant = _random_plant(rng, descriptor=trial % 2 == 1)
            x0 = rng.standard_normal(plant.n)
            y_c, y_e = rng.standard_normal((2, plant.k))
            disc = discretize(plant, x0, y_c, y_e, 2.0, N)
            nz, nc = disc.H.shape[0], disc.G.shape[0]
            kkt = np.block([[disc.H, disc.G.T],
                            [disc.G, np.zeros((nc, nc))]])
            z = np.linalg.solve(kkt, np.concatenate([disc.f, disc.b]))[:nz]
            nx = plant.n * (N + 1)
            x_ref = z[:nx].reshape(N + 1, plant.n)
            u_ref = z[nx:].reshape(-1, plant.m)

            sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, 2.0, N)
            assert sol.kkt_dim == nz + nc
            assert sol.kkt_nnz == np.count_nonzero(kkt)
            assert max(sol.kkt_bandwidth) <= 2 * plant.n + plant.m
            inner = slice(None) if disc.kind == "ode" else slice(1, -1)
            for got, ref in ((sol.x, x_ref), (sol.u, u_ref)):
                err = np.abs(got[inner] - ref[inner]).max()
                assert err <= 1e-10 * np.abs(ref[inner]).max(), (trial, err)

    @pytest.mark.parametrize("kind", ["ode", "dae"])
    def test_bandwidth_on_acceptance_plants(self, kind, abc_fperp, ref_dae):
        # stage order keeps every coupling within one stage and its
        # neighbour: at most 2n + m off the diagonal, whatever N
        if kind == "ode":
            plant, x0, y_c, y_e = abc_fperp, [1.0, 1.0], [0.0], [1.0]
        else:
            plant, x0, y_c, y_e = ref_dae, [1.0, 0.0], [1.0], [0.0]
        sol = lt.transcribe_and_solve(plant, x0, y_c, y_e, 10.0, 2000)
        kl, ku = sol.kkt_bandwidth
        assert 0 < kl <= 2 * plant.n + plant.m
        assert 0 < ku <= 2 * plant.n + plant.m

    def test_solve_leaves_scipy_sparse_unloaded(self):
        code = ("import sys, lqturnpike as lt; "
                "p = lt.LtiPlant(A=[[2, 0], [0, -1]], B=[[1], [1]], "
                "C=[[0, 1]], F=[[1, 0]]); "
                "lt.transcribe_and_solve(p, [1, 1], [0], [1], 10.0, 200); "
                "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
