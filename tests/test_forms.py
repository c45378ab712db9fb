import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgquant import (PGElement, WeightSeq, adjoint_wrt_form, form, gram_matrix,
                     orthonormal_phi, preset_weights)
from pgquant.forms import _VECTOR_SUM_MIN, _fsum_rows
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


def fsum_or_float_sum(row):
    """math.fsum, or float addition where fsum overflows: the per-row route."""
    row = row.tolist()
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return sum(row)


def assert_exact_row_sums(x):
    want = np.array([fsum_or_float_sum(row) for row in x])
    assert np.array(_fsum_rows(x)).tobytes() == want.tobytes()


def on_both_sides_of_the_size_rule(rows, pad=0.0):
    """The rows as one small array, and padded with pad and repeated into an
    array of at least _VECTOR_SUM_MIN entries."""
    width = max(map(len, rows))
    x = np.array([row + [pad] * (width - len(row)) for row in rows])
    width = max(width, -(-_VECTOR_SUM_MIN // (3 * len(rows))))
    big = np.tile(np.pad(x, ((0, 0), (0, width - x.shape[1])), constant_values=pad), (3, 1))
    assert x.size < _VECTOR_SUM_MIN <= big.size
    return x, big


TIE = 2.0 ** -53
ROWS = [
    # halfway cases: fsum rounds to even, and a tiny third term breaks the tie
    [1.0, TIE], [1.0, TIE, 2.0 ** -110], [1.0, TIE, -2.0 ** -110],
    [1.0 + 2.0 ** -52, TIE], [1.0 + 2.0 ** -52, TIE, 2.0 ** -110],
    [1.0 + 2.0 ** -52, TIE, -2.0 ** -110], [-1.0, -TIE, -2.0 ** -110],
    # exact cancellation and signed zeros
    [1.0, -1.0], [-1.0, 1.0], [0.1, 0.2, -0.3], [0.0, -0.0], [-0.0, -0.0], [-0.0],
    [1e16, 1.0, -1e16, -1.0],
    # subnormals
    [5e-324, 5e-324, -1e-310], [2.2250738585072014e-308, -5e-324], [1e-310, 3e-311, 1e-320],
    # magnitudes far apart
    [1e300, 1.0, -1e300], [1e-300, 1e300, -1e300, 1e-300], [1e300, 1e-300, 3.0],
    [1e-300, -1e-300, 1e-316],
    # beyond the finite path: the running sum overflows though the exact sum
    # 1.4e308 is finite, the exact sum overflows, and the non-finite values
    [1e308, 7e307, 7e307, -1e308], [1e308, 1e308], [1e300, 1e300],
    [math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
]


class TestExactRowSums:
    """_fsum_rows gives math.fsum's bytes on every row, or float addition's
    where fsum overflows, whichever route the array's size picks."""

    @pytest.mark.parametrize("pad", [0.0, -0.0])
    def test_tricky_rows(self, pad):
        for rows in ([row] for row in ROWS):
            for x in on_both_sides_of_the_size_rule(rows, pad):
                assert_exact_row_sums(x)
        # every row in one array: certified rows and redone rows side by side
        for x in on_both_sides_of_the_size_rule(ROWS[:20], pad):
            assert_exact_row_sums(x)

    def test_running_sum_overflow_sums_to_inf(self):
        for x in on_both_sides_of_the_size_rule([[1e308, 7e307, 7e307, -1e308]]):
            assert _fsum_rows(x)[0] == math.inf

    def test_ties_round_to_even_on_the_vectorized_route(self):
        _, big = on_both_sides_of_the_size_rule(
            [[1.0, TIE], [1.0, TIE, 2.0 ** -110], [1.0 + 2.0 ** -52, TIE]])
        assert _fsum_rows(big)[:3] == [1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51]

    @pytest.mark.parametrize("m", [1, 2, 3, 91, 767, 768, 769, 4900])
    def test_random_rows_of_every_length(self, m):
        rng = np.random.default_rng([m, 30])
        for n in sorted({1, 2, -(-_VECTOR_SUM_MIN // m) + 1}):
            x = rng.standard_normal((n, m))
            assert_exact_row_sums(x)
            assert_exact_row_sums(x * 10.0 ** rng.integers(-300, 300, (n, m)))
            # heavy cancellation: each row and its negation, off by one tiny term
            y = np.concatenate([x, -x[:, ::-1]], axis=1)
            y[:, 0] += 2.0 ** -60
            assert_exact_row_sums(y)
            assert_exact_row_sums(np.round(x * 8) / 8 + TIE * rng.integers(-3, 4, (n, m)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(
        [1.0, TIE, -TIE, 2.0 ** -110, 1.0 + 2.0 ** -52, 0.0, -0.0, 5e-324, 1e300, -1e300])),
        min_size=1, max_size=12), min_size=1, max_size=6))
    def test_any_rows(self, rows):
        for x in on_both_sides_of_the_size_rule(rows):
            assert_exact_row_sums(x)
