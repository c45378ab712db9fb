import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgquant import (AlgebraCtx, Const, Gen, PGElement, Pow, Prod, QSym, Sum,
                     THETA, THETA_BAR, conjugate, from_free_expr, multiply,
                     normal_order, z_map)
from pgquant.verify import random_element


def brute_force_order(word, ctx):
    """Independent oracle: repeatedly apply the single two-letter rewrite
    thb*th -> q^{-1} th*thb until sorted, then drop nilpotent overflows."""
    coeff = 1.0 + 0.0j
    letters = list(word)
    while True:
        for k in range(len(letters) - 1):
            if letters[k] == THETA_BAR and letters[k + 1] == THETA:
                letters[k], letters[k + 1] = THETA, THETA_BAR
                coeff = coeff / ctx.q
                break
        else:
            break
    a, b = letters.count(THETA), letters.count(THETA_BAR)
    if a >= ctx.l or b >= ctx.l:
        return PGElement.zero(ctx.l)
    return PGElement.basis(ctx.l, a, b, coeff)


class TestNormalOrder:
    def test_single_swap(self):
        for l in (2, 3, 5):
            ctx = AlgebraCtx(l, 2.0)
            out = normal_order((THETA_BAR, THETA), ctx)
            assert out.coefficient(1, 1) == pytest.approx(0.5)

    def test_already_ordered(self):
        out = normal_order((THETA, THETA_BAR), AlgebraCtx(2, 3.0))
        assert out.coefficient(1, 1) == 1.0

    def test_nilpotent_collapse(self):
        out = normal_order((THETA_BAR, THETA, THETA_BAR), AlgebraCtx(2, 2.0))
        assert np.all(out.coeffs == 0)

    @pytest.mark.parametrize("l", [2, 3, 4])
    @pytest.mark.parametrize("q", [1.0, -1.0, 0.5, np.exp(1j * np.pi / 3)])
    def test_agrees_with_brute_force(self, l, q):
        ctx = AlgebraCtx(l, q)
        for length in range(7):
            for word in itertools.product((THETA, THETA_BAR), repeat=length):
                got = normal_order(word, ctx)
                want = brute_force_order(word, ctx)
                assert np.allclose(got.coeffs, want.coeffs, atol=1e-12)


class TestMultiply:
    def test_basis_rule(self):
        ctx = AlgebraCtx(3, 2.0)
        out = multiply(PGElement.basis(3, 1, 1), PGElement.basis(3, 1, 0), ctx)
        assert out.coefficient(2, 1) == pytest.approx(0.5)

    def test_square_of_mixed(self):
        ctx = AlgebraCtx(3, 2.0)
        m = PGElement.basis(3, 1, 1)
        out = multiply(m, m, ctx)
        assert out.coefficient(2, 2) == pytest.approx(0.5)
        # cross-check against normal ordering of the concatenated word
        word = (THETA, THETA_BAR, THETA, THETA_BAR)
        assert np.allclose(out.coeffs, normal_order(word, ctx).coeffs)

    def test_nilpotency(self):
        for l in (2, 3, 4):
            ctx = AlgebraCtx(l, 1.5)
            out = multiply(PGElement.basis(l, 1, 0), PGElement.basis(l, l - 1, 0), ctx)
            assert np.all(out.coeffs == 0)

    def test_defining_relation(self):
        for q in (1.0, -1.0, 2.0, 0.3 + 0.4j):
            ctx = AlgebraCtx(4, q)
            th, thb = PGElement.basis(4, 1, 0), PGElement.basis(4, 0, 1)
            res = multiply(th, thb, ctx) - q * multiply(thb, th, ctx)
            assert np.max(np.abs(res.coeffs)) < 1e-14

    @pytest.mark.parametrize("q", [1.0, 0.5, -1.0, np.exp(1j * np.pi / 3)])
    def test_associative(self, q):
        rng = np.random.default_rng(7)
        ctx = AlgebraCtx(4, q)
        for _ in range(20):
            f, g, h = (random_element(rng, 4) for _ in range(3))
            lhs = multiply(multiply(f, g, ctx), h, ctx)
            rhs = multiply(f, multiply(g, h, ctx), ctx)
            scale = max(1.0, np.max(np.abs(rhs.coeffs)))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-12

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiply(PGElement.zero(2), PGElement.zero(3), AlgebraCtx(2, 1.0))


class TestConjugation:
    def test_basis_rule_antilinear(self):
        out = conjugate(PGElement.basis(3, 2, 1, 2 + 1j))
        assert out.coefficient(1, 2) == 2 - 1j

    def test_fixed_point(self):
        f = PGElement.basis(2, 1, 1)
        assert np.allclose(conjugate(f).coeffs, f.coeffs)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for l in (2, 3, 5):
            f = random_element(rng, l)
            assert np.allclose(conjugate(conjugate(f)).coeffs, f.coeffs)

    def test_star_rule_real_q_only(self):
        rng = np.random.default_rng(11)
        for q, should_hold in ((2.0, True), (1j, False)):
            ctx = AlgebraCtx(3, q)
            f = PGElement.basis(3, 0, 1)  # thb
            g = PGElement.basis(3, 1, 0)  # th
            lhs = conjugate(multiply(f, g, ctx))
            rhs = multiply(conjugate(g), conjugate(f), ctx)
            agree = np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
            assert agree == should_hold

    def test_holomorphic_product_rule(self):
        rng = np.random.default_rng(5)
        ctx = AlgebraCtx(4, 0.3 + 0.9j)
        for _ in range(10):
            table = np.zeros((4, 4), complex)
            table[:, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f = PGElement(4, table)
            table2 = np.zeros((4, 4), complex)
            table2[:, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = PGElement(4, table2)
            lhs = conjugate(multiply(f, g, ctx))
            rhs = multiply(conjugate(f), conjugate(g), ctx)
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


class TestZMap:
    def test_transposes_without_conjugating(self):
        out = z_map(PGElement.basis(3, 2, 1, 2 + 1j))
        assert out.coefficient(1, 2) == 2 + 1j

    def test_swaps_generators(self):
        out = z_map(PGElement.basis(2, 0, 1))
        assert out.coefficient(1, 0) == 1.0

    def test_involution(self):
        rng = np.random.default_rng(9)
        f = random_element(rng, 4)
        assert np.allclose(z_map(z_map(f)).coeffs, f.coeffs)


class TestMultiplyAtQOne:
    """At q = 1 the product is the anti-Wick product, a truncated convolution."""

    def test_no_q_factor(self):
        m = PGElement.basis(3, 1, 1)
        out = multiply(m, m, AlgebraCtx(3))
        assert out.coefficient(2, 2) == pytest.approx(1.0)

    def test_simple(self):
        out = multiply(PGElement.basis(2, 1, 0), PGElement.basis(2, 0, 1), AlgebraCtx(2))
        assert out.coefficient(1, 1) == pytest.approx(1.0)

    def test_overflow_is_zero(self):
        for l in (2, 3):
            out = multiply(PGElement.basis(l, 1, 0), PGElement.basis(l, l - 1, 0), AlgebraCtx(l))
            assert np.all(out.coeffs == 0)


class TestFreeExpr:
    def test_defining_relation_evaluates_to_zero(self):
        e = Sum((Prod((Gen(THETA), Gen(THETA_BAR))),
                 Prod((Const(-1.0), QSym(), Gen(THETA_BAR), Gen(THETA)))))
        for q in (1.0, -2.0, 0.5 + 0.5j):
            out = from_free_expr(e, AlgebraCtx(3, q))
            assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_square_expansion(self):
        e = Pow(Sum((Gen(THETA), Gen(THETA_BAR))), 2)
        out = from_free_expr(e, AlgebraCtx(3, 2.0))
        want = np.zeros((3, 3), complex)
        want[2, 0] = 1.0
        want[1, 1] = 1.5
        want[0, 2] = 1.0
        assert np.allclose(out.coeffs, want)

    def test_nilpotent_power(self):
        out = from_free_expr(Pow(Gen(THETA), 3), AlgebraCtx(3, 1.0))
        assert np.all(out.coeffs == 0)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_monomial_words(self, i, j):
        # th^i thb^j evaluates to the basis element or zero past nilpotency
        ctx = AlgebraCtx(3, 1.7)
        e = Prod((Pow(Gen(THETA), i), Pow(Gen(THETA_BAR), j)))
        out = from_free_expr(e, ctx)
        if i < 3 and j < 3:
            assert out.coefficient(i, j) == pytest.approx(1.0)
        else:
            assert np.all(out.coeffs == 0)

    def test_linearity(self):
        ctx = AlgebraCtx(3, 0.5)
        e1 = Prod((Gen(THETA), Gen(THETA_BAR)))
        e2 = Pow(Gen(THETA_BAR), 2)
        a, b = 2.0 - 1j, 0.25
        combined = Sum((Prod((Const(a), e1)), Prod((Const(b), e2))))
        lhs = from_free_expr(combined, ctx)
        rhs = a * from_free_expr(e1, ctx) + b * from_free_expr(e2, ctx)
        assert np.allclose(lhs.coeffs, rhs.coeffs)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Pow(Gen(THETA), -1)


class TestCtxValidation:
    def test_order_too_small(self):
        with pytest.raises(ValueError):
            AlgebraCtx(1, 1.0)

    def test_zero_q(self):
        with pytest.raises(ValueError):
            AlgebraCtx(3, 0.0)
