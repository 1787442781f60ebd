import numpy as np
import pytest
import scipy.linalg as sla

import lqturnpike as lt
from lqturnpike.errors import DimensionError
from lqturnpike.linalg import EIG_RANK_CUT, spectral_abscissa
from lqturnpike.plants import (check_F_compatible, check_impulse_controllable,
                               check_impulse_free, check_pencil_regular)

from conftest import all_ok


def _random_semi_explicit(rng, d, n2, m):
    n = d + n2
    e = np.zeros((n, n))
    e[:d, :d] = np.eye(d)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    return e, a, b


class TestPlantConstruction:
    def test_lti_dimension_checks(self):
        with pytest.raises(DimensionError):
            lt.LtiPlant(A=np.zeros((2, 3)), B=np.zeros((2, 1)),
                        C=np.zeros((1, 2)), F=np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            lt.LtiPlant(A=np.eye(2), B=np.zeros((3, 1)),
                        C=np.zeros((1, 2)), F=np.zeros((1, 2)))

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(DimensionError):
            lt.LtiPlant(A=a, B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                        F=np.zeros((1, 2)))

    def test_standard_plant_is_identity_descriptor(self, abc_fperp):
        assert isinstance(abc_fperp, lt.DescriptorPlant)
        assert np.array_equal(abc_fperp.E, np.eye(2))
        assert abc_fperp.d == abc_fperp.n == 2
        assert abc_fperp.partition().A22.shape == (0, 0)

    @pytest.mark.parametrize("bad, name", [
        ({"B": np.zeros((3, 1))}, "B"), ({"E": np.eye(3)}, "E"),
        ({"C": np.zeros((1, 3))}, "C"), ({"F": np.zeros((1, 3))}, "F")],
        ids=["B_rows", "E_shape", "C_columns", "F_columns"])
    def test_descriptor_dimension_names_matrix(self, bad, name):
        mats = dict(E=np.diag([1.0, 0.0]), A=np.eye(2), B=np.zeros((2, 1)),
                    C=np.zeros((1, 2)), F=np.zeros((1, 2)))
        mats.update(bad)
        with pytest.raises(DimensionError, match=rf"^{name} has"):
            lt.DescriptorPlant(**mats)

    def test_semi_explicit_enforced(self):
        bad_e = np.diag([1.0, 0.5])
        with pytest.raises(DimensionError):
            lt.DescriptorPlant(E=bad_e, A=np.eye(2), B=np.zeros((2, 1)),
                               C=np.zeros((1, 2)), F=np.zeros((1, 2)))

    def test_partition_reassembles(self, ref_dae):
        part = ref_dae.partition()
        d = part.d
        a = np.block([[part.A11, part.A12], [part.A21, part.A22]])
        assert np.array_equal(a, ref_dae.A)
        assert np.array_equal(np.vstack([part.B1, part.B2]), ref_dae.B)
        assert np.array_equal(np.hstack([part.C1, part.C2]), ref_dae.C)
        s = ref_dae.F.T @ ref_dae.F
        assert np.array_equal(part.S1, s[:d, :d])


class TestPencilChecks:
    def test_regular_standard(self):
        rng = np.random.default_rng(0)
        assert check_pencil_regular(np.eye(2), rng.standard_normal((2, 2)))

    def test_regular_reference(self):
        assert check_pencil_regular(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))

    def test_singular_pencil(self):
        assert not check_pencil_regular(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_pencil_shapes_must_agree(self):
        with pytest.raises(DimensionError,
                           match=r"^E, A must be square of equal size$"):
            check_pencil_regular(np.eye(2), np.eye(3))

    def test_impulse_controllable_examples(self):
        e = np.diag([1.0, 0.0])
        assert check_impulse_controllable(
            e, np.diag([1.0, -1.0]), np.array([[1.0], [1.0]]))
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not check_impulse_controllable(e, a, np.zeros((2, 1)))

    def test_impulse_free_examples(self):
        e = np.diag([1.0, 0.0])
        assert check_impulse_free(e, np.diag([1.0, -1.0]))
        assert not check_impulse_free(e, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_identity_descriptor_trivial(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 2))
            assert check_impulse_controllable(np.eye(3), a, b)
            assert check_impulse_free(np.eye(3), a)

    def test_impulse_free_implies_controllable(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(40):
            e, a, b = _random_semi_explicit(rng, 2, 2, 1)
            if check_impulse_free(e, a):
                hits += 1
                assert check_impulse_controllable(e, a, b)
        assert hits > 10

    def test_agrees_with_block_definition(self):
        # seed 17, 300 semi-explicit triples, about 0.2 s: the block tests
        # rank [A22, B2] == n - d and rank A22 == n - d agree with the
        # definition rank [[E, 0, 0], [A, E, B]] == n + rank E, on a family
        # with singular A22, integer A, zero B2 and no input among them
        rng = np.random.default_rng(17)
        kinds = {"not_controllable": 0, "not_free": 0}
        for _ in range(300):
            d, n2 = rng.integers(0, 4), rng.integers(1, 4)
            m = rng.integers(0, 3)
            e, a, b = _random_semi_explicit(rng, d, n2, m)
            if rng.random() < 0.3:
                a = np.round(2.0 * a)
            if rng.random() < 0.4:   # rank-deficient A22
                a[d:, d] = a[d:, d + 1:] @ rng.integers(-1, 2, n2 - 1)
            if rng.random() < 0.4:
                b[d:] = 0.0
            n = d + n2

            def by_definition(bb):
                block = np.block([[e, np.zeros((n, n + bb.shape[1]))],
                                  [a, e, bb]])
                return (np.linalg.matrix_rank(block)
                        == n + np.linalg.matrix_rank(e))

            controllable = by_definition(b)
            free = by_definition(np.zeros((n, 0)))
            assert check_impulse_controllable(e, a, b) == controllable
            assert check_impulse_free(e, a) == free
            kinds["not_controllable"] += not controllable
            kinds["not_free"] += not free
        assert min(kinds.values()) >= 30, kinds

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(12)
        e, a, b = _random_semi_explicit(rng, 2, 2, 2)
        for _ in range(5):
            pd = rng.permutation(2)
            pa = 2 + rng.permutation(2)
            perm = np.concatenate([pd, pa])
            ap = a[np.ix_(perm, perm)]
            bp = b[perm]
            assert (check_impulse_free(e, a)
                    == check_impulse_free(e, ap))
            assert (check_impulse_controllable(e, a, b)
                    == check_impulse_controllable(e, ap, bp))


class TestFCompatibility:
    def test_examples(self):
        e = np.diag([1.0, 0.0])
        assert check_F_compatible(e, np.array([[np.sqrt(3.0), 0.0]]))
        assert not check_F_compatible(e, np.array([[0.0, np.sqrt(3.0)]]))
        assert check_F_compatible(e, np.zeros((1, 2)))


def _zero_input(a):
    n = a.shape[0]
    return lt.LtiPlant(A=a, B=np.zeros((n, 1)), C=np.zeros((1, n)),
                       F=np.zeros((1, n)))


class TestStructuralReport:
    def test_reference_all_true(self, ref_dae):
        rep = lt.structural_report(ref_dae)
        assert all_ok(rep)

    def test_zero_input_unstable_example(self):
        # an eigenvalue at 1.43 that no control can move
        a = np.array([[1.2, 1.3, -1.3], [0.5, -1.2, -1.0], [0.0, 0.1, -0.1]])
        assert not lt.structural_report(_zero_input(a)).finite_dynamics_stable

    def test_hautus_cut_margin(self):
        # A has eigenvalues 1037 and 84.7 +- 149i, and B is orthogonal to
        # the left eigenvector at 1037, so that mode alone is uncontrollable.
        # At the computed 1037, sigma_min [lam I - A, B] is 1.3 times the
        # machine cut eps * n * sigma_max: only the sqrt(eps) cut sees it
        a = np.array([
            [153.1751039131591, -746.7326878722035, -1.3589625728752384],
            [168.22242753867454, 649.0864490621291, -597.9507651727126],
            [-17.447412966505734, -575.5645372916177, 404.0970885398331]])
        w, vl = np.linalg.eig(a.T)
        v = vl[:, np.argmax(w.real)].real
        b = np.ones((3, 1)) - np.outer(v, v.sum()) / (v @ v)
        plant = lt.LtiPlant(A=a, B=b, C=np.zeros((1, 3)), F=np.zeros((1, 3)))
        assert not lt.structural_report(plant).finite_dynamics_stable

    def test_zero_input_unstable_family(self):
        # seed 3, 1000 unstable zero-input 2x2 and 3x3 plants with
        # one-decimal entries, under 1 s: an unstable mode with no input
        # is never stabilizable.  Eigenvalues found through an inverted
        # shifted pencil, with the machine cut, flagged 9% of them
        # stabilizable
        rng = np.random.default_rng(3)
        unstable = 0
        while unstable < 1000:
            n = rng.integers(2, 4)
            a = np.round(rng.uniform(-1.5, 1.5, (n, n)), 1)
            if spectral_abscissa(a) < 0.05:
                continue
            unstable += 1
            rep = lt.structural_report(_zero_input(a))
            assert not rep.finite_dynamics_stable, a

    def test_impulse_uncontrollable(self):
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            B=np.zeros((2, 1)), C=np.zeros((1, 2)), F=np.zeros((1, 2)))
        rep = lt.structural_report(plant)
        assert rep.regular
        assert not rep.impulse_controllable

    def test_terminal_weight_on_algebraic_variables(self):
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.diag([1.0, -1.0]),
            B=np.array([[1.0], [1.0]]), C=np.array([[1.0, 0.0]]),
            F=np.array([[0.0, 1.0]]))
        rep = lt.structural_report(plant)
        assert not rep.f_compatible
        assert ("terminal weight F acts on algebraic variables (range F* not "
                "within range E*)") in rep.notes

    @pytest.mark.parametrize("wrapped", [True, False],
                             ids=["identity_descriptor", "lti_plant"])
    def test_wrapped_standard_plant(self, abc_fperp, wrapped):
        plant = (lt.DescriptorPlant(E=np.eye(abc_fperp.n), A=abc_fperp.A,
                                    B=abc_fperp.B, C=abc_fperp.C,
                                    F=abc_fperp.F)
                 if wrapped else abc_fperp)
        rep = lt.structural_report(plant)
        assert rep.regular and rep.impulse_controllable and rep.impulse_free
        assert rep.finite_dynamics_stable and rep.f_compatible


def _hautus_stabilizable(e, a, b):
    """rank [lam E - A, B] == n at every finite eigenvalue with Re lam >= 0,
    tested at both members of each complex pair; the members must agree."""
    lam = sla.eigvals(a, e)
    lam = lam[np.isfinite(lam)]
    verdict = {}
    for mu in lam[lam.real >= 0.0]:
        sv = np.linalg.svd(np.hstack([mu * e - a, b]), compute_uv=False)
        verdict[mu] = bool(sv[-1] > EIG_RANK_CUT * max(1.0, sv[0]))
    for mu, ok in verdict.items():
        if mu.imag != 0.0:
            partner = min(verdict, key=lambda nu: abs(nu - np.conj(mu)))
            assert abs(partner - np.conj(mu)) <= 1e-12 * (1.0 + abs(mu))
            assert verdict[partner] == ok, (mu, partner)
    return all(verdict.values())


# the unstable pair 0.5 +- 2i lives on x1, x2, which x3 does not feed
A_PAIR = np.array([[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.3, 0.1, -1.0]])


def _with_algebraic_row(a, b):
    """The descriptor plant with one algebraic variable x4 = A21 x + B2 u
    and no coupling back into x: its finite dynamics are those of (A, B)."""
    n = a.shape[0]
    a4 = np.zeros((n + 1, n + 1))
    a4[:n, :n] = a
    a4[n, :n] = [0.4, -0.2, 0.7]
    a4[n, n] = -1.0
    b4 = np.vstack([b, [[0.5]]])
    e4 = np.diag([1.0] * n + [0.0])
    return lt.DescriptorPlant(E=e4, A=a4, B=b4, C=np.zeros((1, n + 1)),
                              F=np.zeros((1, n + 1)))


class TestConjugatePairHautus:
    @pytest.mark.parametrize("descriptor", [False, True],
                             ids=["standard", "descriptor"])
    @pytest.mark.parametrize("column, stabilizable", [(2, False), (0, True)],
                             ids=["uncontrollable_pair", "controllable_pair"])
    def test_fixed_unstable_pair(self, descriptor, column, stabilizable):
        b = np.zeros((3, 1))
        b[column] = 1.0
        plant = (_with_algebraic_row(A_PAIR, b) if descriptor else
                 lt.LtiPlant(A=A_PAIR, B=b, C=np.zeros((1, 3)),
                             F=np.zeros((1, 3))))
        assert plant.d == 3
        rep = lt.structural_report(plant)
        assert rep.regular and rep.impulse_controllable
        assert rep.finite_dynamics_stable is stabilizable
        assert _hautus_stabilizable(plant.E, plant.A, plant.B) is stabilizable

    def test_planted_pair_family(self):
        # seed 11, 120 plants with n = 4..8, d = n, n - 1 or n - 2 and a
        # planted unstable complex pair, rotated by orthogonal block
        # transforms that keep E = diag(I_d, 0); in every other plant
        # neither an input nor another state reaches the pair
        rng = np.random.default_rng(11)
        for k in range(120):
            n = int(rng.integers(4, 9))
            d = n - int(rng.integers(0, 3))
            m = int(rng.integers(1, 3))
            a = rng.standard_normal((n, n)) / np.sqrt(n)
            a[d:, d:] -= 2.0 * np.eye(n - d)
            b = rng.standard_normal((n, m))
            re, im = rng.uniform(0.1, 1.0), rng.uniform(0.5, 3.0)
            a[:2, :] = 0.0
            a[:2, :2] = [[re, im], [-im, re]]
            planted = k % 2 == 0
            if planted:
                b[:2] = 0.0
            else:
                a[:2, 2:] = rng.standard_normal((2, n - 2)) / np.sqrt(n)
            q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
            q2 = np.linalg.qr(rng.standard_normal((n - d, n - d)))[0]
            t = sla.block_diag(q1, q2)
            e = np.zeros((n, n))
            e[:d, :d] = np.eye(d)
            a, b = t.T @ a @ t, t.T @ b
            plant = lt.DescriptorPlant(E=e, A=a, B=b, C=np.zeros((1, n)),
                                       F=np.zeros((1, n)))
            rep = lt.structural_report(plant)
            assert rep.regular, k
            expected = _hautus_stabilizable(e, a, b)
            assert rep.finite_dynamics_stable == expected, k
            # a pair that an input or a coupled state reaches is controllable
            assert expected is not planted, k
