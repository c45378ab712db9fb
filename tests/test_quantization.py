import numpy as np
import pytest

from pgquant import (AlgebraCtx, MONOMIAL, ORTHONORMAL, OperatorBH, PGElement, WeightSeq,
                     adjoint_wrt_form, coherent_quantization,
                     conjugate, convert_basis, form, ladder_set, matrix_rank,
                     mult_operator, multiply, operator_norm_bh, pk_operator,
                     project_pk, toeplitz, toeplitz_adjoint, toeplitz_flat,
                     toeplitz_orthonormal, wick_rank_probe, z_map)
from pgquant.verify import random_element

W12 = WeightSeq(2, (1.0, 2.0))
CTX2 = AlgebraCtx(2, 1.0)
W112 = WeightSeq(3, (1.0, 1.0, 2.0))
CTX3 = AlgebraCtx(3, 1.0)


class TestProjection:
    def test_closed_form_example(self):
        out = project_pk(PGElement.basis(3, 2, 1), W112)
        assert out.coefficient(1, 0) == pytest.approx(2.0)

    def test_negative_exponent_guard(self):
        out = project_pk(PGElement.basis(3, 1, 2), W112)
        assert np.all(out.coeffs == 0)

    def test_identity_on_holomorphic(self):
        rng = np.random.default_rng(0)
        table = np.zeros((3, 3), complex)
        table[:, 0] = rng.standard_normal(3)
        f = PGElement(3, table)
        assert np.allclose(project_pk(f, W112).coeffs, f.coeffs)

    def test_modes_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_element(rng, 3)
            closed = project_pk(f, W112, "closed")
            kernel = project_pk(f, W112, "kernel")
            assert np.allclose(closed.coeffs, kernel.coeffs, atol=1e-12)

    def test_operator_column_example(self):
        P = pk_operator(W12)
        col = P[:, 1 * 2 + 1]  # the column of th*thb
        want = np.zeros(4, complex)
        want[0] = 2.0  # on the unit
        assert np.allclose(col, want)

    def test_idempotent_selfadjoint_rank(self):
        rng = np.random.default_rng(2)
        for l in (2, 3, 4):
            w = WeightSeq(l, tuple(rng.uniform(0.3, 3.0, l)))
            P = pk_operator(w)
            assert np.allclose(P @ P, P, atol=1e-12)
            assert np.allclose(adjoint_wrt_form(P, w), P, atol=1e-12)
            assert matrix_rank(P) == l


class TestMultOperator:
    def test_unit_symbol(self):
        for side in ("left", "right"):
            M = mult_operator(PGElement.one(3), side, CTX3)
            assert np.allclose(M, np.eye(9))

    def test_composition_law(self):
        rng = np.random.default_rng(3)
        ctx = AlgebraCtx(3, 0.5 + 0.2j)
        g1, g2 = random_element(rng, 3), random_element(rng, 3)
        lhs = mult_operator(g1, "right", ctx) @ mult_operator(g2, "right", ctx)
        rhs = mult_operator(multiply(g2, g1, ctx), "right", ctx)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_direct_multiplication(self):
        rng = np.random.default_rng(4)
        ctx = AlgebraCtx(3, np.exp(1j * np.pi / 5))
        g, f = random_element(rng, 3), random_element(rng, 3)
        for side, want in (("right", multiply(f, g, ctx)),
                           ("left", multiply(g, f, ctx))):
            got = mult_operator(g, side, ctx) @ f.vector()
            assert np.allclose(got, want.vector(), atol=1e-12)

    def test_q_commutation(self):
        for q in (1.0, -1.0, 2.0, 0.3 + 0.7j):
            ctx = AlgebraCtx(3, q)
            Mth = mult_operator(PGElement.basis(3, 1, 0), "right", ctx)
            Mthb = mult_operator(PGElement.basis(3, 0, 1), "right", ctx)
            assert np.allclose(Mthb @ Mth, q * Mth @ Mthb, atol=1e-12)


class TestToeplitz:
    def test_unit_symbol_is_identity(self):
        for l in (2, 3, 5):
            w = WeightSeq(l, tuple(range(1, l + 1)))
            T = toeplitz(PGElement.one(l), w, AlgebraCtx(l, 2.0))
            assert np.allclose(T.matrix, np.eye(l))

    def test_creation_example(self):
        T = toeplitz(PGElement.basis(2, 1, 0), W12, CTX2)
        assert np.allclose(T.matrix, [[0, 0], [1, 0]])

    def test_annihilation_example(self):
        T = toeplitz(PGElement.basis(2, 0, 1), W12, CTX2)
        assert np.allclose(T.matrix, [[0, 2], [0, 0]])

    def test_mixed_symbol_diagonal(self):
        T = toeplitz(PGElement.basis(2, 1, 1), W12, CTX2)
        assert np.allclose(T.matrix, np.diag([2.0, 0.0]))

    def test_modes_agree_on_random_symbols(self):
        rng = np.random.default_rng(5)
        for q in (1.0, -1.0, np.exp(1j * np.pi / 3)):
            ctx = AlgebraCtx(4, q)
            w = WeightSeq(4, tuple(rng.uniform(0.3, 3.0, 4)))
            for _ in range(25):
                g = random_element(rng, 4)
                closed = toeplitz(g, w, ctx, "closed").matrix
                proj = toeplitz(g, w, ctx, "projection").matrix
                assert np.allclose(closed, proj, atol=1e-10)

    def test_column_structure(self):
        rng = np.random.default_rng(6)
        l = 5
        w = WeightSeq(l, tuple(rng.uniform(0.5, 2.0, l)))
        ctx = AlgebraCtx(l, 2.0)
        for i in range(l):
            for j in range(l):
                M = toeplitz(PGElement.basis(l, i, j), w, ctx).matrix
                for a in range(l):
                    nz = np.flatnonzero(np.abs(M[:, a]) > 1e-14)
                    if i + a < l and 0 <= i + a - j < l:
                        assert list(nz) == [i + a - j]
                        assert M[i + a - j, a] == pytest.approx(w.w[i + a] / w.w[i + a - j])
                    else:
                        assert len(nz) == 0

    def test_vector_space_isomorphism(self):
        for l in (2, 3, 4):
            w = WeightSeq(l, tuple(float(k + 1) for k in range(l)))
            ctx = AlgebraCtx(l, -1.0)
            cols = [toeplitz(PGElement.basis(l, i, j), w, ctx).matrix.reshape(-1)
                    for i in range(l) for j in range(l)]
            assert matrix_rank(np.array(cols).T) == l * l


class TestBasisConversion:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        w = WeightSeq(3, (1.0, 2.5, 0.4))
        A = OperatorBH(3, rng.standard_normal((3, 3)), MONOMIAL)
        back = convert_basis(convert_basis(A, w, ORTHONORMAL), w, MONOMIAL)
        assert np.allclose(back.matrix, A.matrix)

    def test_unknown_target_tag(self):
        A = OperatorBH(2, np.eye(2), MONOMIAL)
        with pytest.raises(ValueError, match="^unknown basis tag 'bogus'$"):
            convert_basis(A, W12, "bogus")

    def test_orthonormal_entries(self):
        Ton = toeplitz_orthonormal(PGElement.basis(2, 1, 0), W12, CTX2)
        assert Ton.matrix[1, 0] == pytest.approx(np.sqrt(2.0))
        Tbn = toeplitz_orthonormal(PGElement.basis(2, 0, 1), W12, CTX2)
        assert Tbn.matrix[0, 1] == pytest.approx(np.sqrt(2.0))

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(8)
        l = 4
        w = WeightSeq(l, tuple(rng.uniform(0.5, 2.0, l)))
        ctx = AlgebraCtx(l, 1.0)
        for i in range(l):
            for j in range(l):
                M = toeplitz_orthonormal(PGElement.basis(l, i, j), w, ctx).matrix
                for a in range(l):
                    if i + a < l and 0 <= i + a - j < l:
                        want = w.w[i + a] / np.sqrt(w.w[a] * w.w[i + a - j])
                        assert M[i + a - j, a] == pytest.approx(want)


class TestToeplitzAdjoint:
    def test_creation_annihilation_pair(self):
        T = toeplitz(PGElement.basis(2, 1, 0), W12, CTX2)
        want = toeplitz(PGElement.basis(2, 0, 1), W12, CTX2)
        assert np.allclose(toeplitz_adjoint(T, W12).matrix, want.matrix)

    def test_identity(self):
        from pgquant import OperatorBH
        A = OperatorBH(2, np.eye(2), MONOMIAL)
        assert np.allclose(toeplitz_adjoint(A, W12).matrix, np.eye(2))

    def test_general_symbols(self):
        rng = np.random.default_rng(9)
        for q in (1.0, 0.5, np.exp(1j * np.pi / 7)):
            ctx = AlgebraCtx(3, q)
            w = WeightSeq(3, tuple(rng.uniform(0.4, 2.0, 3)))
            for _ in range(50):
                g = random_element(rng, 3)
                lhs = toeplitz_adjoint(toeplitz(g, w, ctx), w).matrix
                rhs = toeplitz(conjugate(g), w, ctx).matrix
                assert np.allclose(lhs, rhs, atol=1e-10)

    def test_self_adjointness_criterion(self):
        g_sa = (PGElement.basis(3, 1, 0) + PGElement.basis(3, 0, 1)
                + PGElement.basis(3, 1, 1))
        T = toeplitz(g_sa, W112, CTX3)
        assert np.allclose(toeplitz_adjoint(T, W112).matrix, T.matrix)
        T_nsa = toeplitz(PGElement.basis(3, 1, 0), W112, CTX3)
        assert not np.allclose(toeplitz_adjoint(T_nsa, W112).matrix, T_nsa.matrix)


class TestCoherentAndFlat:
    def test_theta_example(self):
        A = coherent_quantization(PGElement.basis(2, 1, 0), W12, CTX2)
        want = np.zeros((2, 2))
        want[0, 1] = np.sqrt(2.0)
        assert np.allclose(A, want)

    def test_unit_symbol(self):
        for l in (2, 4):
            w = WeightSeq(l, tuple(range(2, l + 2)))
            A = coherent_quantization(PGElement.one(l), w, AlgebraCtx(l, 2.0))
            assert np.allclose(A, np.eye(l))

    def test_modes_agree(self):
        rng = np.random.default_rng(10)
        for q in (1.0, -1.0, 0.5, np.exp(1j * np.pi / 3)):
            ctx = AlgebraCtx(3, q)
            w = WeightSeq(3, tuple(rng.uniform(0.4, 2.5, 3)))
            for _ in range(10):
                g = random_element(rng, 3)
                closed = coherent_quantization(g, w, ctx, "closed")
                berezin = coherent_quantization(g, w, ctx, "berezin")
                assert np.allclose(closed, berezin, atol=1e-10)

    def test_relates_to_toeplitz_through_z(self):
        rng = np.random.default_rng(11)
        for l in (2, 3, 4):
            ctx = AlgebraCtx(l, 0.5)
            w = WeightSeq(l, tuple(rng.uniform(0.4, 2.5, l)))
            for _ in range(20):
                g = random_element(rng, l)
                A = coherent_quantization(z_map(g), w, ctx)
                assert np.allclose(A, toeplitz_orthonormal(g, w, ctx).matrix,
                                   atol=1e-10)

    def test_flat_matches_coherent(self):
        rng = np.random.default_rng(12)
        for l in (2, 3):
            ctx = AlgebraCtx(l, np.exp(1j * np.pi / 3))
            w = WeightSeq(l, tuple(rng.uniform(0.4, 2.5, l)))
            for i in range(l):
                for j in range(l):
                    g = PGElement.basis(l, i, j)
                    assert np.allclose(toeplitz_flat(g, w, ctx),
                                       coherent_quantization(g, w, ctx), atol=1e-12)
            for _ in range(20):
                g = random_element(rng, l)
                assert np.allclose(toeplitz_flat(g, w, ctx),
                                   coherent_quantization(g, w, ctx), atol=1e-10)


class TestLadder:
    def test_spectrum(self):
        lad = ladder_set(W112, CTX3)
        assert sorted(np.real(np.diag(lad.number.matrix))) == pytest.approx([0.0, 1.0, 2.0])
        assert lad.deformed_ints == pytest.approx((0.0, 1.0, 2.0))
        assert lad.deformed_factorials == pytest.approx((1.0, 1.0, 2.0))

    def test_nilpotency_order(self):
        for l in (2, 3, 5):
            w = WeightSeq(l, tuple(range(1, l + 1)))
            lad = ladder_set(w, AlgebraCtx(l, 1.0))
            for op in (lad.creation.matrix, lad.annihilation.matrix):
                assert np.allclose(np.linalg.matrix_power(op, l), 0)
                assert np.max(np.abs(np.linalg.matrix_power(op, l - 1))) > 0

    def test_kernels(self):
        lad = ladder_set(W112, CTX3)
        assert np.allclose(lad.creation.matrix[:, 2], 0)  # kills the top monomial
        assert np.allclose(lad.annihilation.matrix[:, 0], 0)  # kills the unit
        assert matrix_rank(lad.creation.matrix) == 2
        assert matrix_rank(lad.annihilation.matrix) == 2

    def test_anti_wick_factorization(self):
        rng = np.random.default_rng(13)
        l = 4
        w = WeightSeq(l, tuple(rng.uniform(0.5, 2.0, l)))
        ctx = AlgebraCtx(l, 2.0)
        lad = ladder_set(w, ctx)
        for i in range(l):
            for j in range(l):
                direct = toeplitz(PGElement.basis(l, i, j), w, ctx).matrix
                factored = (np.linalg.matrix_power(lad.annihilation.matrix, j)
                            @ np.linalg.matrix_power(lad.creation.matrix, i))
                assert np.allclose(direct, factored, atol=1e-12)

    def test_dirichlet_identity(self):
        rng = np.random.default_rng(14)
        l = 4
        w = WeightSeq(l, tuple(rng.uniform(0.5, 2.0, l)))
        lad = ladder_set(w, AlgebraCtx(l, 1.0))
        D = np.array(w.w)
        for _ in range(20):
            f = rng.standard_normal(l) + 1j * rng.standard_normal(l)
            lhs = np.conj(f) @ (D * (lad.number.matrix @ f))
            af = lad.annihilation.matrix @ f
            rhs = np.conj(af) @ (D * af)
            assert lhs == pytest.approx(rhs)


class TestNormsAndRanks:
    def test_creation_norm(self):
        lad = ladder_set(W112, CTX3)
        assert operator_norm_bh(lad.creation, W112) == pytest.approx(np.sqrt(2.0))

    def test_identity_norm(self):
        A = OperatorBH(2, np.eye(2), MONOMIAL)
        assert operator_norm_bh(A, W12) == pytest.approx(1.0)

    def test_annihilation_norm(self):
        T = toeplitz(PGElement.basis(2, 0, 1), W12, CTX2)
        assert operator_norm_bh(T, W12) == pytest.approx(np.sqrt(2.0))

    def test_norm_lower_bound(self):
        rng = np.random.default_rng(15)
        for l in (2, 3, 5):
            w = WeightSeq(l, tuple(rng.uniform(0.3, 3.0, l)))
            T = toeplitz(PGElement.basis(l, 1, 0), w, AlgebraCtx(l, 1.0))
            bound = max(w.w[a + 1] / w.w[a] for a in range(l - 1))
            assert operator_norm_bh(T, w) ** 2 >= bound - 1e-9

    def test_anti_wick_operator_basis(self):
        for l in (2, 3, 4):
            w = WeightSeq(l, tuple(range(1, l + 1)))
            lad = ladder_set(w, AlgebraCtx(l, 1.0))
            cols = [(np.linalg.matrix_power(lad.annihilation.matrix, j)
                     @ np.linalg.matrix_power(lad.creation.matrix, i)).reshape(-1)
                    for i in range(l) for j in range(l)]
            assert matrix_rank(np.array(cols).T) == l * l

    def test_wick_probe_runs(self):
        rank = wick_rank_probe(W112, CTX3)
        assert 1 <= rank <= 9

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_a_matrix_that_is_not_finite_never_reaches_the_svd(self, monkeypatch, bad):
        # LAPACK would print to standard output and return NaN singular values
        def svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", svd)
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            matrix_rank(M)
        # the basis change turns inf into NaN, as it does for the callers,
        # which compute under np.errstate(all="ignore")
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                      match="SVD did not converge"):
            operator_norm_bh(OperatorBH(3, M, MONOMIAL), W112)


class TestCompressionIdentity:
    def test_form_compression(self):
        rng = np.random.default_rng(16)
        l = 3
        w = WeightSeq(l, tuple(rng.uniform(0.4, 2.5, l)))
        ctx = AlgebraCtx(l, np.exp(1j * np.pi / 3))
        for _ in range(20):
            g = random_element(rng, l)
            T = toeplitz(g, w, ctx).matrix
            Mg = mult_operator(g, "right", ctx)
            f1 = rng.standard_normal(l) + 1j * rng.standard_normal(l)
            f2 = rng.standard_normal(l) + 1j * rng.standard_normal(l)

            def embed(x):
                vec = np.zeros(l * l, complex)
                vec[[a * l for a in range(l)]] = x
                return PGElement.from_vector(l, vec)

            lhs = form(embed(f1), embed(T @ f2), w)
            rhs = form(embed(f1), PGElement.from_vector(l, Mg @ embed(f2).vector()), w)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
