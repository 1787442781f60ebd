import numpy as np
import pytest

import lqturnpike as lt
from lqturnpike.errors import DimensionError


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
        ({"B": np.zeros((3, 1))}, "B"), ({"E": np.eye(3)}, "E")],
        ids=["B_rows", "E_shape"])
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
        assert lt.check_pencil_regular(np.eye(2), rng.standard_normal((2, 2)))

    def test_regular_reference(self):
        assert lt.check_pencil_regular(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))

    def test_singular_pencil(self):
        assert not lt.check_pencil_regular(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_impulse_controllable_examples(self):
        e = np.diag([1.0, 0.0])
        assert lt.check_impulse_controllable(
            e, np.diag([1.0, -1.0]), np.array([[1.0], [1.0]]))
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not lt.check_impulse_controllable(e, a, np.zeros((2, 1)))

    def test_impulse_free_examples(self):
        e = np.diag([1.0, 0.0])
        assert lt.check_impulse_free(e, np.diag([1.0, -1.0]))
        assert not lt.check_impulse_free(e, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_identity_descriptor_trivial(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 2))
            assert lt.check_impulse_controllable(np.eye(3), a, b)
            assert lt.check_impulse_free(np.eye(3), a)

    def test_impulse_free_implies_controllable(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(40):
            e, a, b = _random_semi_explicit(rng, 2, 2, 1)
            if lt.check_impulse_free(e, a):
                hits += 1
                assert lt.check_impulse_controllable(e, a, b)
        assert hits > 10

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(12)
        e, a, b = _random_semi_explicit(rng, 2, 2, 2)
        for _ in range(5):
            pd = rng.permutation(2)
            pa = 2 + rng.permutation(2)
            perm = np.concatenate([pd, pa])
            ap = a[np.ix_(perm, perm)]
            bp = b[perm]
            assert (lt.check_impulse_free(e, a)
                    == lt.check_impulse_free(e, ap))
            assert (lt.check_impulse_controllable(e, a, b)
                    == lt.check_impulse_controllable(e, ap, bp))


class TestFiniteDynamics:
    def test_closed_loop_reference(self):
        part = lt.SemiExplicitPartition(
            d=1, A11=np.array([[-np.sqrt(2.0)]]), A12=np.array([[0.0]]),
            A21=np.array([[-1.0 - np.sqrt(2.0)]]), A22=np.array([[-1.0]]),
            B1=np.array([[1.0]]), B2=np.array([[1.0]]),
            C1=np.array([[1.0]]), C2=np.array([[0.0]]),
            S1=np.array([[1.0]]), F1=np.array([[1.0]]))
        assert lt.check_finite_dynamics_stable(part)

    def test_unstable_slow_part(self):
        part = lt.SemiExplicitPartition(
            d=1, A11=np.array([[1.0]]), A12=np.array([[0.0]]),
            A21=np.array([[0.0]]), A22=np.array([[-1.0]]),
            B1=np.array([[1.0]]), B2=np.array([[0.0]]),
            C1=np.array([[1.0]]), C2=np.array([[0.0]]),
            S1=np.array([[0.0]]), F1=np.array([[0.0]]))
        assert not lt.check_finite_dynamics_stable(part)

    def test_full_differential_order(self):
        part = lt.SemiExplicitPartition(
            d=2, A11=-np.eye(2), A12=np.zeros((2, 0)),
            A21=np.zeros((0, 2)), A22=np.zeros((0, 0)),
            B1=np.ones((2, 1)), B2=np.zeros((0, 1)),
            C1=np.eye(2), C2=np.zeros((2, 0)),
            S1=np.zeros((2, 2)), F1=np.zeros((2, 2)))
        assert lt.check_finite_dynamics_stable(part)


class TestFCompatibility:
    def test_examples(self):
        e = np.diag([1.0, 0.0])
        assert lt.check_F_compatible(e, np.array([[np.sqrt(3.0), 0.0]]))
        assert not lt.check_F_compatible(e, np.array([[0.0, np.sqrt(3.0)]]))
        assert lt.check_F_compatible(e, np.zeros((1, 2)))


class TestStructuralReport:
    def test_reference_all_true(self, ref_dae):
        rep = lt.structural_report(ref_dae)
        assert rep.all_ok()

    def test_impulse_uncontrollable(self):
        plant = lt.DescriptorPlant(
            E=np.diag([1.0, 0.0]), A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            B=np.zeros((2, 1)), C=np.zeros((1, 2)), F=np.zeros((1, 2)))
        rep = lt.structural_report(plant)
        assert rep.regular
        assert not rep.impulse_controllable

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
