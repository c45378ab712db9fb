"""Each table-driven kernel pinned to its definition, beyond the grid sizes.

The fast kernels (multiply, mult_operator, the closed Toeplitz map, the berezin
route, the closed form, the Gram matrix, the anti-Wick product, the kernel
projections and P_K, the closed coherent map, the definitional form) gather
and scatter over per-order index tables; these tests compare them with their
definitions, written as plain loops or as an independent route, also at orders
the verify grid does not reach.  Where the loop is the route the table
replaced, the comparison is exact: the table sums each output in the loop's
order, so not a bit may move.
"""
import itertools
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import pgquant
from pgquant import (AlgebraCtx, Const, Gen, PGElement, Pow, Sum, THETA,
                     THETA_BAR, WeightSeq, anti_wick_product, aw_index,
                     coherent_quantization, conjugate, form, from_free_expr,
                     gram_matrix, mult_operator, multiply, normal_order,
                     pk_operator, project_pk, project_pk_bar, toeplitz)
from pgquant.verify import GRID_QS

GRID_Q_VALUES = [q for _, q in GRID_QS]


def rand_element(rng, l):
    return PGElement(l, rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))


def rand_weights(rng, l):
    return WeightSeq(l, tuple(rng.uniform(0.25, 4.0, l)))


def rand_sparse_element(rng, l):
    """A dense random element with about a third of its coefficients exactly
    zero (some as -0.0): the loops below skip zero coefficients, the tables
    do not, and that must not move a bit."""
    table = rand_element(rng, l).coeffs.copy()
    zero = rng.random((l, l)) < 0.35
    table[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return PGElement(l, table)


# --- the per-entry loops the index tables replaced, kept as references -------

def loop_project_pk(F, w):
    l = w.l
    out = np.zeros((l, l), dtype=complex)
    for a in range(l):
        for b in range(l):
            c = F.coeffs[a, b]
            if c == 0 or not 0 <= a - b < l:
                continue
            out[a - b, 0] += c * w.ratio(a, a - b)
    return out


def loop_project_pk_bar(F, w):
    l = w.l
    out = np.zeros((l, l), dtype=complex)
    for a in range(l):
        for b in range(l):
            c = F.coeffs[a, b]
            if c == 0 or not 0 <= b - a < l:
                continue
            out[0, b - a] += c * w.ratio(b, b - a)
    return out


def loop_pk_operator(w):
    l = w.l
    P = np.zeros((l * l, l * l), dtype=complex)
    for a in range(l):
        for b in range(l):
            img = loop_project_pk(PGElement.basis(l, a, b), w)
            P[:, aw_index(l, a, b)] = img.reshape(-1)
    return P


def loop_coherent_closed(g, w):
    l = w.l
    A = np.zeros((l, l), dtype=complex)
    for i in range(l):
        for j in range(l):
            gij = g.coeffs[i, j]
            if gij == 0:
                continue
            for a in range(l):
                if j + a < l and 0 <= j - i + a < l:
                    A[j - i + a, a] += gij * w.w[j + a] / math.sqrt(
                        w.w[j - i + a] * w.w[a])
    return A


def loop_form_definitional(f, g, w):
    l = w.l
    fc = conjugate(f).coeffs
    gc = g.coeffs
    terms = []
    for m in range(l):
        k = l - 1 - m
        wt = w.w[k]
        for a in range(k + 1):
            for b in range(k + 1):
                terms.append(wt * (fc[a, b] * gc[k - a, k - b]))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


@pytest.mark.parametrize("l", range(2, 10))
def test_projections_and_pk_operator_equal_their_loops(l):
    rng = np.random.default_rng([l, 16])
    for _ in range(3):
        w = rand_weights(rng, l)
        assert np.array_equal(pk_operator(w), loop_pk_operator(w))
        for _ in range(4):
            F = rand_sparse_element(rng, l)
            assert np.array_equal(project_pk(F, w).coeffs, loop_project_pk(F, w))
            assert np.array_equal(project_pk_bar(F, w).coeffs, loop_project_pk_bar(F, w))


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", range(2, 10))
def test_closed_coherent_quantization_equals_its_loop(l, q):
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 17])
    for _ in range(4):
        w = rand_weights(rng, l)
        g = rand_sparse_element(rng, l)
        assert np.array_equal(coherent_quantization(g, w, ctx, "closed"),
                              loop_coherent_closed(g, w))


@pytest.mark.parametrize("l", range(2, 10))
def test_definitional_form_equals_its_loop(l):
    rng = np.random.default_rng([l, 18])
    for _ in range(6):
        w = rand_weights(rng, l)
        f, g = rand_sparse_element(rng, l), rand_sparse_element(rng, l)
        assert form(f, g, w, "definitional") == loop_form_definitional(f, g, w)


@pytest.mark.parametrize("q", GRID_Q_VALUES)
def test_projection_toeplitz_is_the_holomorphic_block_of_the_full_product(q):
    l = 9
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 19])
    w = rand_weights(rng, l)
    hol = np.arange(l) * l
    for g in [rand_sparse_element(rng, l) for _ in range(3)] + [PGElement.basis(l, 4, 2)]:
        full = (pk_operator(w) @ mult_operator(g, "right", ctx))[hol][:, hol]
        got = toeplitz(g, w, ctx, "projection").matrix
        scale = max(1.0, float(np.max(np.abs(full))))
        assert float(np.max(np.abs(got - full))) <= 1e-13 * scale


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", range(2, 8))
def test_multiply_of_monomials_is_normal_order_of_the_word(l, q):
    ctx = AlgebraCtx(l, q)
    for a, b, c, d in itertools.product(range(l), repeat=4):
        got = multiply(PGElement.basis(l, a, b), PGElement.basis(l, c, d), ctx)
        word = (THETA,) * a + (THETA_BAR,) * b + (THETA,) * c + (THETA_BAR,) * d
        want = normal_order(word, ctx)
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=0)


def test_multiply_rejects_a_context_of_another_order():
    with pytest.raises(ValueError, match="order mismatch"):
        multiply(PGElement.one(4), PGElement.one(4), AlgebraCtx(3, 2.0))


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", (7, 9))
def test_mult_operator_matches_multiply(l, q):
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 11])
    for _ in range(3):
        F, g = rand_element(rng, l), rand_element(rng, l)
        right = mult_operator(g, "right", ctx) @ F.vector()
        left = mult_operator(g, "left", ctx) @ F.vector()
        np.testing.assert_allclose(right, multiply(F, g, ctx).vector(), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(left, multiply(g, F, ctx).vector(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q", GRID_Q_VALUES)
def test_toeplitz_closed_matches_projection_at_l9(q):
    l = 9
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 12])
    w = rand_weights(rng, l)
    for g in [rand_element(rng, l) for _ in range(3)] + [PGElement.basis(l, 4, 2)]:
        closed = toeplitz(g, w, ctx, "closed").matrix
        projection = toeplitz(g, w, ctx, "projection").matrix
        np.testing.assert_allclose(closed, projection, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", (8, 12))
def test_berezin_route_matches_closed(l, q):
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 13])
    w = WeightSeq(l, tuple(rng.uniform(0.8, 1.25, l)))
    g = rand_element(rng, l)
    berezin = coherent_quantization(g, w, ctx, "berezin")
    closed = coherent_quantization(g, w, ctx, "closed")
    np.testing.assert_allclose(berezin, closed, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("l", (2, 5, 9))
def test_closed_form_and_gram_match_the_quadruple_sum(l):
    rng = np.random.default_rng([l, 14])
    w = rand_weights(rng, l)
    f, g = rand_element(rng, l), rand_element(rng, l)
    G = np.zeros((l * l, l * l))
    want = 0j
    for a, b, c, d in itertools.product(range(l), repeat=4):
        if a + d == b + c and a + d < l:
            G[a * l + b, c * l + d] = w.w[a + d]
            want += np.conj(f.coeffs[a, b]) * w.w[a + d] * g.coeffs[c, d]
    assert np.array_equal(gram_matrix(w), G)
    assert form(f, g, w, "closed") == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert form(f, g, w, "closed") == pytest.approx(form(f, g, w, "definitional"),
                                                    rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("l", (2, 4, 7))
def test_anti_wick_product_is_the_truncated_convolution(l):
    rng = np.random.default_rng([l, 15])
    f, g = rand_element(rng, l), rand_element(rng, l)
    want = np.zeros((l, l), dtype=complex)
    for a, b, c, d in itertools.product(range(l), repeat=4):
        if a + c < l and b + d < l:
            want[a + c, b + d] += f.coeffs[a, b] * g.coeffs[c, d]
    np.testing.assert_allclose(anti_wick_product(f, g).coeffs, want, rtol=1e-12, atol=1e-12)


def test_large_power_uses_square_and_multiply():
    n = 3_000_000
    ctx = AlgebraCtx(4, -1.0)
    expr = Pow(Sum((Const(1.0), Gen(THETA))), n)
    start = time.perf_counter()
    got = from_free_expr(expr, ctx)
    assert time.perf_counter() - start < 0.5
    want = sum((math.comb(n, k) * PGElement.basis(4, k, 0) for k in range(4)),
               PGElement.zero(4))
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", range(9))
def test_small_powers_match_repeated_products(n):
    ctx = AlgebraCtx(4, 0.5)
    base = Sum((Const(0.3 - 1.0j), Gen(THETA_BAR), Gen(THETA)))
    want = PGElement.one(4)
    for _ in range(n):
        want = multiply(want, from_free_expr(base, ctx), ctx)
    got = from_free_expr(Pow(base, n), ctx)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=1e-12)


def test_import_does_not_load_scipy_signal():
    code = "import sys, pgquant; print('scipy.signal' in sys.modules)"
    src = pathlib.Path(pgquant.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_input(bad):
    with pytest.raises(ValueError):
        WeightSeq(2, (bad, 1.0))
    with pytest.raises(ValueError):
        AlgebraCtx(3, bad)
    with pytest.raises(ValueError):
        AlgebraCtx(3, complex(1.0, bad))


def test_context_rejects_q_whose_inverse_powers_overflow():
    # q^-25 at l = 6 would be 1e750
    with pytest.raises(ValueError, match="too small"):
        AlgebraCtx(6, 1e-30)
    with pytest.raises(ValueError, match="too small"):
        AlgebraCtx(6, 1e-30j)
    # 2^529 at l = 24, the largest order and smallest |q| the benchmark uses
    assert np.all(np.isfinite(AlgebraCtx(24, 0.5).qinv_powers))
    # q^-1 itself overflows for a subnormal q
    with pytest.raises(ValueError, match="too small"):
        AlgebraCtx(2, 1e-310)
