import numpy as np
import pytest

from pgquant import (PGElement, WeightSeq, adjoint_wrt_form, form, gram_matrix,
                     orthonormal_phi, preset_weights)
from pgquant.verify import random_element


W12 = WeightSeq(2, (1.0, 2.0))


class TestWeightSeq:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            WeightSeq(3, (1.0, 0.0, 2.0))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            WeightSeq(3, (1.0, 2.0))

    def test_presets(self):
        assert preset_weights("ones", 4).w == (1.0,) * 4
        assert preset_weights("factorial", 4).w == (1.0, 1.0, 2.0, 6.0)
        qf = preset_weights("qfactorial", 3, 0.5)
        assert qf.w[1] == pytest.approx(1.0)
        assert qf.w[2] == pytest.approx(1.5)

    def test_qfactorial_rejects_bad_q(self):
        with pytest.raises(ValueError):
            preset_weights("qfactorial", 3, 1j)
        with pytest.raises(ValueError):
            preset_weights("qfactorial", 3, -1.0)
        with pytest.raises(ValueError):
            preset_weights("qfactorial", 3, 1.0)


class TestGramMatrix:
    def test_l2_closed_form(self):
        G = gram_matrix(W12)
        want = np.array([[1, 0, 0, 2],
                         [0, 2, 0, 0],
                         [0, 0, 2, 0],
                         [2, 0, 0, 0]], dtype=float)
        assert np.array_equal(G, want)

    def test_isotropic_entry(self):
        # the (1,1),(1,1) entry vanishes: a nonzero element with zero pairing
        G = gram_matrix(W12)
        assert G[3, 3] == 0.0

    def test_corner_is_first_weight(self):
        for l in (2, 4):
            w = preset_weights("factorial", l)
            assert gram_matrix(w)[0, 0] == w.w[0]

    def test_symmetric_and_invertible(self):
        rng = np.random.default_rng(12)
        for l in (2, 3, 5):
            w = WeightSeq(l, tuple(rng.uniform(0.3, 3.0, l)))
            G = gram_matrix(w)
            assert np.array_equal(G, G.T)
            assert abs(np.linalg.det(G)) > 1e-12


class TestForm:
    def test_one_against_top(self):
        val = form(PGElement.one(2), PGElement.basis(2, 1, 1), W12)
        assert val == pytest.approx(2.0)
        val_d = form(PGElement.one(2), PGElement.basis(2, 1, 1), W12, "definitional")
        assert val_d == pytest.approx(2.0)

    def test_mismatched_degrees_vanish(self):
        for l in (2, 4):
            w = preset_weights("ones", l)
            assert form(PGElement.basis(l, 0, 1), PGElement.basis(l, 1, 0), w) == 0.0

    def test_holomorphic_diagonal(self):
        w = preset_weights("factorial", 4)
        for j in range(4):
            for k in range(4):
                val = form(PGElement.basis(4, j, 0), PGElement.basis(4, k, 0), w)
                assert val == pytest.approx(w.w[j] if j == k else 0.0)

    def test_negative_norm_witness(self):
        f = PGElement.basis(2, 1, 1) - PGElement.one(2)
        assert form(f, f, W12) == pytest.approx(-3.0)
        assert form(f, f, W12, "definitional") == pytest.approx(-3.0)

    def test_isotropic_witness(self):
        g = PGElement.basis(2, 1, 1)
        assert form(g, g, W12) == 0.0

    def test_sesquilinear_first_slot(self):
        rng = np.random.default_rng(4)
        w = WeightSeq(3, (1.0, 0.7, 2.2))
        f, g = random_element(rng, 3), random_element(rng, 3)
        a = 1.5 - 0.5j
        assert form(a * f, g, w) == pytest.approx(np.conj(a) * form(f, g, w))
        assert form(f, a * g, w) == pytest.approx(a * form(f, g, w))

    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_modes_agree(self, l):
        rng = np.random.default_rng(l)
        w = WeightSeq(l, tuple(rng.uniform(0.25, 4.0, l)))
        for _ in range(50):
            f, g = random_element(rng, l), random_element(rng, l)
            assert abs(form(f, g, w) - form(f, g, w, "definitional")) < 1e-12


class TestAdjoint:
    def test_identity_fixed(self):
        n = W12.l * W12.l
        assert np.allclose(adjoint_wrt_form(np.eye(n), W12), np.eye(n))

    def test_defining_property(self):
        rng = np.random.default_rng(21)
        for l in (2, 3, 4):
            w = WeightSeq(l, tuple(rng.uniform(0.4, 2.5, l)))
            n = l * l
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Astar = adjoint_wrt_form(A, w)
            for _ in range(100):
                f, g = random_element(rng, l), random_element(rng, l)
                lhs = form(PGElement.from_vector(l, A @ f.vector()), g, w)
                rhs = form(f, PGElement.from_vector(l, Astar @ g.vector()), w)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_involution(self):
        rng = np.random.default_rng(22)
        w = WeightSeq(3, (1.0, 3.0, 0.5))
        A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert np.allclose(adjoint_wrt_form(adjoint_wrt_form(A, w), w), A)


class TestOrthonormalPhi:
    def test_zeroth(self):
        phi = orthonormal_phi(0, WeightSeq(3, (4.0, 1.0, 1.0)))
        assert phi.coefficient(0, 0) == pytest.approx(0.5)

    def test_scaling(self):
        phi = orthonormal_phi(1, WeightSeq(2, (1.0, 4.0)))
        assert phi.coefficient(1, 0) == pytest.approx(0.5)

    def test_orthonormality(self):
        w = WeightSeq(4, (1.0, 2.0, 6.0, 24.0))
        for j in range(4):
            for k in range(4):
                val = form(orthonormal_phi(j, w), orthonormal_phi(k, w), w)
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            orthonormal_phi(2, W12)
