"""Each table-driven kernel pinned to its definition, beyond the grid sizes.

The fast kernels (multiply, mult_operator, the closed Toeplitz map, the berezin
route, the closed form, the Gram matrix, the kernel projections and P_K, the
closed coherent map, the definitional form, the charge-graded form adjoint)
gather and scatter over per-order index tables, strided slices or shifted
views; these tests compare them with their definitions, written as plain loops
or as an independent route, also at orders the verify grid does not reach.
Where the loop is the route the table replaced, the comparison is exact: the table
sums each output in the loop's order, so not a bit may move.  Each kernel's
stacked form, on a stack of n tables, must equal n single calls bit for bit,
and a stacked draw must give the samples of a loop of single draws.  Each
index table must list the tuples a Python enumeration keeps, and the Toeplitz
family, which reads no q, must give the same bytes at every grid q.  The
monomial builder must give PGElement.basis's tables, and ladder_set, one
stacked Toeplitz call, the bytes of the two wrapper calls and loops it replaced.
The ladder powers must be matrix_power's bytes, and wick_rank_probe, which
reads them, the rank of its per-pair loop.  Each public function of two
order-bearing arguments must reject two orders with an error that names both.
"""
import itertools
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import pgquant
from pgquant import (MONOMIAL, ORTHONORMAL, AlgebraCtx, Const, Gen, Neg, OperatorBH,
                     PGElement, Pow, Prod, QSym, Sum, THETA, THETA_BAR, WeightSeq,
                     adjoint_wrt_form, coherent_quantization, conjugate, convert_basis, form,
                     from_free_expr, gram_matrix, ladder_set, mult_operator, multiply,
                     normal_order, parse, pk_operator, project_pk, project_pk_bar,
                     toeplitz, toeplitz_adjoint, toeplitz_flat, toeplitz_orthonormal,
                     wick_rank_probe)
from pgquant.algebra import (BLOCK_TERMS, conjugate_stack, monomials, multiply_stack,
                             product_support, scatter_sum)
from pgquant.forms import (_berezin_support, _charge_hankels, _gram_support, form_stack,
                           preset_weights)
from pgquant.quantization import (_projection_support, _toeplitz_support,
                                  coherent_quantization_stack, convert_basis_stack,
                                  mult_operator_stack, operator_norm_bh, project_pk_stack,
                                  span_rank,
                                  toeplitz_adjoint_stack, toeplitz_flat_stack, toeplitz_stack)
from pgquant.verify import GRID_QS, _random_expr, random_element, random_elements, samples

GRID_Q_VALUES = [q for _, q in GRID_QS]


def rand_weights(rng, l):
    return WeightSeq(l, tuple(rng.uniform(0.25, 4.0, l)))


def rand_sparse_element(rng, l):
    """A dense random element with about a third of its coefficients exactly
    zero (some as -0.0): the loops below skip zero coefficients, the tables
    do not, and that must not move a bit."""
    table = random_element(rng, l).coeffs.copy()
    zero = rng.random((l, l)) < 0.35
    table[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return PGElement(l, table)


# --- the index tables, enumerated one tuple at a time --------------------------

# each table: its function, the tuple rank, the kept tuples and the columns of
# one tuple, written out from the table's docstring
INDEX_TABLES = {
    "product": (product_support, 4,
                lambda l, a, b, c, d: a + c < l and b + d < l,
                lambda l, a, b, c, d: (a * l + b, c * l + d, b * c, (a + c) * l + (b + d))),
    "gram": (_gram_support, 4,
             lambda l, a, b, c, d: a + d == b + c and a + d < l,
             lambda l, a, b, c, d: (a * l + b, c * l + d, a + d)),
    "berezin": (_berezin_support, 3,
                lambda l, m, a, b: a + m < l and b + m < l,
                lambda l, m, a, b: (b * l + a, (l - 1 - m - a) * l + (l - 1 - m - b),
                                    l - 1 - m)),
    "projection": (_projection_support, 2,
                   lambda l, a, b: a >= b,
                   lambda l, a, b: (a * l + b, a, a - b)),
    "toeplitz": (_toeplitz_support, 3,
                 lambda l, i, j, a: i + a < l and i + a - j >= 0,
                 lambda l, i, j, a: (i * l + j, i + a, i + a - j, (i + a - j) * l + a)),
}


@pytest.mark.parametrize("name", INDEX_TABLES)
@pytest.mark.parametrize("l", range(2, 8))
def test_index_table_equals_its_tuple_enumeration(l, name):
    """Every kept tuple in lexicographic order, its columns computed in
    Python; the table is read-only and the cache hands out one object."""
    support, rank, keep, columns = INDEX_TABLES[name]
    rows = [columns(l, *t) for t in itertools.product(range(l), repeat=rank) if keep(l, *t)]
    table = support(l)
    assert len(table) == len(rows[0])
    for k, column in enumerate(table):
        assert column.tolist() == [row[k] for row in rows]
        assert not column.flags.writeable
    assert support(l) is table


@pytest.mark.parametrize("l", (2, 3, 5, 7, 12))
def test_toeplitz_family_does_not_depend_on_q(l):
    """th^a * g and g * thb^a reorder no generator, so T_g, the coherent and
    flat maps and the ladder operators depend on the weights alone: the same
    bytes at every grid q."""
    rng = np.random.default_rng([l, 33])
    w = rand_weights(rng, l)
    g = rand_sparse_element(rng, l)

    def outputs(ctx):
        ladder = ladder_set(w, ctx)
        return [toeplitz(g, w, ctx, "closed").matrix, toeplitz(g, w, ctx, "projection").matrix,
                toeplitz_orthonormal(g, w, ctx).matrix,
                coherent_quantization(g, w, ctx, "closed"),
                coherent_quantization(g, w, ctx, "berezin"), toeplitz_flat(g, w, ctx),
                ladder.creation.matrix, ladder.annihilation.matrix, ladder.number.matrix]

    want = [M.tobytes() for M in outputs(AlgebraCtx(l, GRID_Q_VALUES[0]))]
    for q in GRID_Q_VALUES[1:]:
        assert [M.tobytes() for M in outputs(AlgebraCtx(l, q))] == want


# --- the per-entry loops the index tables replaced, kept as references -------

def loop_project_pk(F, w):
    l = w.l
    out = np.zeros((l, l), dtype=complex)
    for a in range(l):
        for b in range(l):
            c = F.coeffs[a, b]
            if c == 0 or not 0 <= a - b < l:
                continue
            out[a - b, 0] += c * (w.w[a] / w.w[a - b])
    return out


def loop_project_pk_bar(F, w):
    l = w.l
    out = np.zeros((l, l), dtype=complex)
    for a in range(l):
        for b in range(l):
            c = F.coeffs[a, b]
            if c == 0 or not 0 <= b - a < l:
                continue
            out[0, b - a] += c * (w.w[b] / w.w[b - a])
    return out


def loop_gram_matrix(w):
    l = w.l
    G = np.zeros((l * l, l * l))
    for a, b, c, d in itertools.product(range(l), repeat=4):
        if a + d == b + c and a + d < l:
            G[a * l + b, c * l + d] = w.w[a + d]
    return G


def loop_pk_operator(w):
    l = w.l
    P = np.zeros((l * l, l * l), dtype=complex)
    for a in range(l):
        for b in range(l):
            img = loop_project_pk(PGElement.basis(l, a, b), w)
            P[:, a * l + b] = img.reshape(-1)
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


def loop_ladder_set(w, ctx):
    l = ctx.l
    creation = toeplitz(PGElement.basis(l, 1, 0), w, ctx)
    annihilation = toeplitz(PGElement.basis(l, 0, 1), w, ctx)
    number = OperatorBH(l, creation.matrix @ annihilation.matrix, MONOMIAL)
    ints = [0.0]
    for a in range(1, l):
        ints.append(w.w[a] / w.w[a - 1])
    facts = []
    acc = 1.0
    for a in range(l):
        acc *= ints[a] if a > 0 else 1.0
        facts.append(acc)
    return creation, annihilation, number, tuple(ints), tuple(facts)


@pytest.mark.parametrize("l", range(2, 8))
def test_monomials_are_the_basis_elements(l):
    """Every position, one at a time and all at once, has the bytes of
    PGElement.basis; each call returns a fresh writable stack."""
    want = [PGElement.basis(l, i, j).coeffs.tobytes() for i in range(l) for j in range(l)]
    assert [monomials(l, [p])[0].tobytes() for p in range(l * l)] == want
    every = monomials(l, range(l * l))
    assert every.shape == (l * l, l, l) and [m.tobytes() for m in every] == want
    picked = monomials(l, np.array([l, 1, l, 0]))
    assert [m.tobytes() for m in picked] == [want[l], want[1], want[l], want[0]]
    assert monomials(l, []).shape == (0, l, l)
    again = monomials(l, [l])
    assert again.flags.writeable and not np.shares_memory(again, monomials(l, [l]))


def ladder_weights(l):
    """U(0.25, 4) weights, factorials, and 1e-300, 1, 1e300 repeated, whose
    deformed integers underflow to 0 and factorials overflow to inf and NaN."""
    yield rand_weights(np.random.default_rng([l, 22]), l)
    yield preset_weights("factorial", l)
    yield WeightSeq(l, ((1e-300, 1.0, 1e300) * l)[:l])


@pytest.mark.parametrize("l", [*range(2, 8), 12, 24])
def test_ladder_set_equals_its_loop(l):
    for w in ladder_weights(l):
        # the weight ratios of the extreme weights overflow, as in the CLI
        with np.errstate(all="ignore"):
            lad = ladder_set(w, AlgebraCtx(l))
            creation, annihilation, number, ints, facts = loop_ladder_set(w, AlgebraCtx(l))
            # every power k <= l, as matrix_power gives it
            powers = [(got, [np.linalg.matrix_power(op.matrix, k) for k in range(l + 1)])
                      for got, op in zip(lad.powers(), (creation, annihilation))]
        for got, want in ((lad.creation, creation), (lad.annihilation, annihilation),
                          (lad.number, number)):
            assert got.basis == MONOMIAL and got.matrix.tobytes() == want.matrix.tobytes()
        for got, want in powers:
            assert got.shape == (l + 1, l, l) and [p.tobytes() for p in got] == [
                p.tobytes() for p in want]
        for got, want in ((lad.deformed_ints, ints), (lad.deformed_factorials, facts)):
            assert type(got) is tuple and len(got) == l
            assert np.array(got).tobytes() == np.array(want).tobytes()


def loop_wick_rank_probe(w, ctx):
    l = ctx.l
    lad = ladder_set(w, ctx)
    return span_rank(np.linalg.matrix_power(lad.creation.matrix, i)
                     @ np.linalg.matrix_power(lad.annihilation.matrix, j)
                     for i in range(l) for j in range(l))


@pytest.mark.cpu_path
@pytest.mark.parametrize("l", [*range(2, 8), 12, 24])
def test_wick_rank_probe_equals_its_loop(l):
    """The same rank, or the same LinAlgError where the extreme weights put
    inf or NaN into a product."""
    def outcome(probe, w):
        try:
            with np.errstate(all="ignore"):
                return probe(w, AlgebraCtx(l))
        except np.linalg.LinAlgError as failed:
            return ("LinAlgError", str(failed))

    for w in ladder_weights(l):
        assert outcome(wick_rank_probe, w) == outcome(loop_wick_rank_probe, w)


def order_bearing(l):
    """An element, weights, a context and an operator of order l."""
    return SimpleNamespace(f=PGElement.one(l), w=preset_weights("ones", l), ctx=AlgebraCtx(l),
                           A=OperatorBH(l, np.eye(l), MONOMIAL))


# each public function of two order-bearing arguments, called with one
# argument of order 3 (from a) and the others of order 4 (from b)
ORDER_MISMATCHES = {
    "add": lambda a, b: a.f + b.f,
    "sub": lambda a, b: a.f - b.f,
    "multiply": lambda a, b: multiply(b.f, b.f, a.ctx),
    "form": lambda a, b: form(b.f, a.f, b.w),
    "convert_basis": lambda a, b: convert_basis(a.A, b.w, ORTHONORMAL),
    "convert_basis to its own basis": lambda a, b: convert_basis(a.A, b.w, MONOMIAL),
    "project_pk": lambda a, b: project_pk(a.f, b.w),
    "project_pk_bar": lambda a, b: project_pk_bar(a.f, b.w),
    "mult_operator": lambda a, b: mult_operator(a.f, "right", b.ctx),
    "toeplitz": lambda a, b: toeplitz(b.f, a.w, b.ctx),
    "toeplitz_orthonormal": lambda a, b: toeplitz_orthonormal(b.f, b.w, a.ctx),
    "toeplitz_adjoint": lambda a, b: toeplitz_adjoint(a.A, b.w),
    "coherent_quantization": lambda a, b: coherent_quantization(b.f, b.w, a.ctx),
    "toeplitz_flat": lambda a, b: toeplitz_flat(a.f, b.w, b.ctx),
    "ladder_set": lambda a, b: ladder_set(a.w, b.ctx),
    "operator_norm_bh": lambda a, b: operator_norm_bh(a.A, b.w),
    "wick_rank_probe": lambda a, b: wick_rank_probe(b.w, a.ctx),
}


@pytest.mark.parametrize("call", ORDER_MISMATCHES)
def test_mismatched_orders_raise_an_error_naming_both(call):
    with pytest.raises(ValueError, match=r"order mismatch: \[3, 4\]"):
        ORDER_MISMATCHES[call](order_bearing(3), order_bearing(4))


@pytest.mark.parametrize("l", range(2, 10))
def test_projections_and_pk_operator_equal_their_loops(l):
    rng = np.random.default_rng([l, 16])
    for _ in range(3):
        w = rand_weights(rng, l)
        P = pk_operator(w)
        assert P.dtype == np.float64 and not P.flags.writeable
        assert np.array_equal(P, loop_pk_operator(w))
        for _ in range(4):
            F = rand_sparse_element(rng, l)
            assert np.array_equal(project_pk(F, w).coeffs, loop_project_pk(F, w))
            assert np.array_equal(project_pk_bar(F, w).coeffs, loop_project_pk_bar(F, w))


def test_gram_matrix_and_pk_operator_keep_one_weight_sequence():
    """Each caches the last weight sequence only: the one entry is shared, so
    it stays read-only, and a new sequence replaces it rather than adding to
    what the process holds."""
    rng = np.random.default_rng([5, 35])
    for _ in range(3):
        w = rand_weights(rng, 5)
        for fn, loop in ((gram_matrix, loop_gram_matrix), (pk_operator, loop_pk_operator)):
            got = fn(w)
            assert fn(w) is got and not got.flags.writeable
            assert np.array_equal(got, loop(w))
    assert gram_matrix.cache_info().currsize == 1
    assert pk_operator.cache_info().currsize == 1


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


@pytest.mark.parametrize("law", ["uniform", "factorial"])
@pytest.mark.parametrize("l", range(2, 25))
def test_projection_toeplitz_has_the_bytes_of_the_closed_map_and_its_column_loop(l, law):
    ctx = AlgebraCtx(l, GRID_Q_VALUES[l % len(GRID_Q_VALUES)])
    rng = np.random.default_rng([l, 20])
    w = rand_weights(rng, l) if law == "uniform" else preset_weights("factorial", l)
    table = rand_sparse_element(rng, l).coeffs.copy()
    table[l - 1, 0] = -0.0
    g = PGElement(l, table)
    got = toeplitz(g, w, ctx, "projection").matrix
    # both routes form the terms g[i, j] * (w_{i+a} / w_{i+a-j}) and sum each
    # entry in increasing i, through index tables of their own
    assert got.tobytes() == toeplitz(g, w, ctx, "closed").matrix.tobytes()
    columns = [project_pk(multiply(PGElement.basis(l, a, 0), g, ctx), w).coeffs[:, 0]
               for a in range(l)]
    assert got.tobytes() == np.stack(columns, axis=1).tobytes()


# --- the charge-graded form adjoint ------------------------------------------

def rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def rand_operator(rng, l):
    n = l * l
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def exact_adjoint(A, w):
    """G^{-1} A^H G in rational arithmetic, rounded once at the end, with
    G^{-1} from Gauss-Jordan elimination on the dense Gram matrix."""
    n = w.l * w.l
    G = [[Fraction(x) for x in row] for row in gram_matrix(w)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if G[r][col] != 0)
        G[col], G[piv] = G[piv], G[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = G[col][col]
        G[col] = [x / p for x in G[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            f = G[r][col]
            if r != col and f != 0:
                G[r] = [x - f * y for x, y in zip(G[r], G[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    gram = gram_matrix(w)
    support = [[(k, Fraction(gram[k, j])) for k in range(n) if gram[k, j]] for j in range(n)]

    def adjoint_of_real(Ah):
        # G^{-1} Ah G for a real Ah; G is real, so A^H splits into two of these
        AhG = [[sum(Fraction(row[k]) * g for k, g in support[j]) for j in range(n)]
               for row in Ah]
        return np.array([[float(sum(x * AhG[k][j] for k, x in enumerate(inv[i]) if x))
                          for j in range(n)] for i in range(n)])

    return adjoint_of_real(A.real.T) + 1j * adjoint_of_real(-A.imag.T)


@pytest.mark.parametrize("l", range(2, 13))
def test_graded_adjoint_matches_the_dense_solve(l):
    """Against np.linalg.solve(G, A^H G).  That reference is itself only
    accurate to about cond(G) * eps, which the U(0.25, 4) law can push far
    above 1e-12 at these orders, so the bound adds that much;
    test_graded_adjoint_is_exact_to_rounding bounds the graded route alone."""
    rng = np.random.default_rng([l, 21])
    for _ in range(4):
        w = rand_weights(rng, l)
        A = rand_operator(rng, l)
        G = gram_matrix(w)
        dense = np.linalg.solve(G, np.conj(A.T) @ G)
        tol = 1e-12 + np.linalg.cond(G) * np.finfo(float).eps
        assert rel_err(adjoint_wrt_form(A, w), dense) <= tol


@pytest.mark.parametrize("weights", [
    tuple(np.random.default_rng([6, 22]).uniform(0.25, 4.0, 6)),
    tuple(4.0 if n % 2 == 0 else 0.25 for n in range(8)),
], ids=["random-l6", "alternating-l8"])
def test_graded_adjoint_is_exact_to_rounding(weights):
    """Within 1e-14 of the rational result, also where cond(G) is 1e10 and
    the dense LU loses digits."""
    w = WeightSeq(len(weights), weights)
    A = rand_operator(np.random.default_rng([w.l, 23]), w.l)
    assert rel_err(adjoint_wrt_form(A, w), exact_adjoint(A, w)) <= 1e-14


@pytest.mark.parametrize("l", range(2, 13))
def test_graded_adjoint_is_an_involution(l):
    """(A*)* = A.  A* can be cond(G) times larger than A, and rounding it
    costs the round trip up to cond(G)^2 * eps, so this uses the law of the
    benchmark's large-structure workload, which keeps cond(G) below 100."""
    rng = np.random.default_rng([l, 24])
    for _ in range(4):
        w = WeightSeq(l, tuple(rng.uniform(0.8, 1.25, l)))
        A = rand_operator(rng, l)
        assert rel_err(adjoint_wrt_form(adjoint_wrt_form(A, w), w), A) <= 1e-12


def charge_slices(l):
    """(s, slice) per charge s = a-b: the flat positions a*l+b of charge s,
    a increasing, as adjoint_wrt_form slices them."""
    for s in range(1 - l, l):
        start, n = (s * l if s >= 0 else -s), l - abs(s)
        yield s, slice(start, start + (n - 1) * (l + 1) + 1, l + 1)


def permuted_adjoint(A, w):
    """The graded adjoint as it was first written: A's rows and columns
    gathered into the charge order (s increasing, then a), where G is block
    diagonal, and the result gathered back."""
    A = np.asarray(A, dtype=complex)
    l = w.l
    a, b = np.divmod(np.arange(l * l), l)
    order = np.lexsort((a, a - b))
    unorder = np.argsort(order)
    blocks, start = [], 0
    for s in range(1 - l, l):
        n = l - abs(s)
        blocks.append((slice(start, start + n), abs(s)))
        start += n
    H, U = _charge_hankels(w)
    Y = np.conj(A)[np.ix_(order, order)]
    Yr = Y.view(np.float64)
    for rows, s in blocks:
        Yr[rows] = H[:l - s, s:] @ Yr[rows]
    X = np.ascontiguousarray(Y.T)
    Xr = X.view(np.float64)
    for rows, s in blocks:
        Xr[rows] = U[s:, :l - s] @ Xr[rows]
    return X[np.ix_(unorder, unorder)]


@pytest.mark.parametrize("law", [(0.25, 4.0), (0.8, 1.25)], ids=["U(0.25,4)", "U(0.8,1.25)"])
@pytest.mark.parametrize("l", [*range(2, 13), 16, 24])
def test_graded_adjoint_equals_the_permuted_route(l, law):
    """Bit for bit: slicing each charge in place runs the same block
    products as gathering the operator into the charge order.  The second
    operator is Fortran-ordered, which the float view must not see."""
    rng = np.random.default_rng([l, 31])
    for _ in range(2 if l > 12 else 4):
        w = WeightSeq(l, tuple(rng.uniform(*law, l)))
        A = rand_operator(rng, l)
        for op in (A, np.asfortranarray(A)):
            assert np.array_equal(adjoint_wrt_form(op, w), permuted_adjoint(A, w))


@pytest.mark.parametrize("law", [(0.25, 4.0), (0.8, 1.25)], ids=["U(0.25,4)", "U(0.8,1.25)"])
@pytest.mark.parametrize("l", [*range(2, 13), 16, 24])
def test_graded_adjoint_keeps_a_real_operator_real(l, law):
    """G is real, so a real A has a real A*: the float64 route runs the same
    block products on rows half as wide.  Its result is the real part of the
    complex route's within a tolerance, not bit for bit, because the two
    widths may reach BLAS kernels that round differently."""
    rng = np.random.default_rng([l, 32])
    for _ in range(2 if l > 12 else 4):
        w = WeightSeq(l, tuple(rng.uniform(*law, l)))
        A = rng.standard_normal((l * l, l * l))
        via_complex = adjoint_wrt_form(A.astype(complex), w)
        assert via_complex.dtype == np.complex128 and not np.any(via_complex.imag)
        for op in (A, np.asfortranarray(A)):
            got = adjoint_wrt_form(op, w)
            assert got.dtype == np.float64
            assert rel_err(got, via_complex.real) <= 1e-15


def test_projection_at_l24_is_idempotent_and_self_adjoint_in_real_arithmetic():
    """Under the large-structure law U(0.8, 1.25).  Column a*l+b of P holds
    one entry, at a row whose own column holds 1.0, so P @ P is exact."""
    rng = np.random.default_rng([24, 34])
    for _ in range(3):
        w = WeightSeq(24, tuple(rng.uniform(0.8, 1.25, 24)))
        P = pk_operator(w)
        assert np.array_equal(P @ P, P)
        adjoint = adjoint_wrt_form(P, w)
        assert adjoint.dtype == np.float64
        assert rel_err(adjoint, P) <= 1e-12


@pytest.mark.parametrize("l", range(2, 13))
def test_charge_blocks_rebuild_the_gram_matrix_and_invert(l):
    a, b = np.divmod(np.arange(l * l), l)
    seen = np.zeros(l * l, dtype=int)
    for s, rows in charge_slices(l):
        assert np.all(a[rows] - b[rows] == s)
        seen[rows] += 1
    assert np.all(seen == 1)
    rng = np.random.default_rng([l, 25])
    for _ in range(4):
        w = rand_weights(rng, l)
        H, U = _charge_hankels(w)
        G = np.zeros((l * l, l * l))
        for s, rows in charge_slices(l):
            s, n = abs(s), l - abs(s)
            G[rows, rows] = H[:n, s:]
            # H U = I to within the rounding of one product of the two
            err = np.abs(H[:n, s:] @ U[s:, :n] - np.eye(n))
            assert np.all(err <= n * np.finfo(float).eps * (np.abs(H[:n, s:]) @ np.abs(U[s:, :n])))
        assert np.array_equal(G, gram_matrix(w))


def test_projection_is_self_adjoint_for_alternating_weights_at_l24():
    """The dense LU met a zero pivot here and returned NaN."""
    w = WeightSeq(24, tuple(4.0 if n % 2 == 0 else 0.25 for n in range(24)))
    P = pk_operator(w)
    assert rel_err(adjoint_wrt_form(P, w), P) <= 1e-12


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", range(2, 8))
def test_multiply_of_monomials_is_normal_order_of_the_word(l, q):
    ctx = AlgebraCtx(l, q)
    for a, b, c, d in itertools.product(range(l), repeat=4):
        got = multiply(PGElement.basis(l, a, b), PGElement.basis(l, c, d), ctx)
        word = (THETA,) * a + (THETA_BAR,) * b + (THETA,) * c + (THETA_BAR,) * d
        want = normal_order(word, ctx)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", (7, 9))
def test_mult_operator_matches_multiply(l, q):
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 11])
    for _ in range(3):
        F, g = random_element(rng, l), random_element(rng, l)
        right = mult_operator(g, "right", ctx) @ F.vector()
        left = mult_operator(g, "left", ctx) @ F.vector()
        np.testing.assert_allclose(right, multiply(F, g, ctx).vector(), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(left, multiply(g, F, ctx).vector(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", (2, 3, 6))
def test_mult_operator_has_no_negative_zero(l, q):
    """matrix --which mult-left|mult-right prints these entries, and a -0.0
    coefficient of the symbol must print as 0.0, as it did when the entries
    were summed onto a zero matrix."""
    ctx = AlgebraCtx(l, q)
    g = rand_sparse_element(np.random.default_rng([l, 36]), l)
    parts = g.coeffs.view(np.float64)
    assert np.signbit(parts[parts == 0]).any()  # the symbol holds a -0.0
    for side in ("left", "right"):
        M = mult_operator(g, side, ctx).view(np.float64)
        assert not np.signbit(M[M == 0]).any()


@pytest.mark.parametrize("l", (8, 12))
def test_berezin_route_matches_closed(l):
    # both maps read no q (test_toeplitz_family_does_not_depend_on_q)
    ctx = AlgebraCtx(l, 1.0)
    rng = np.random.default_rng([l, 13])
    w = WeightSeq(l, tuple(rng.uniform(0.8, 1.25, l)))
    g = random_element(rng, l)
    berezin = coherent_quantization(g, w, ctx, "berezin")
    closed = coherent_quantization(g, w, ctx, "closed")
    np.testing.assert_allclose(berezin, closed, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("l", (2, 5, 9))
def test_closed_form_and_gram_match_the_quadruple_sum(l):
    rng = np.random.default_rng([l, 14])
    w = rand_weights(rng, l)
    f, g = random_element(rng, l), random_element(rng, l)
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
def test_multiply_at_q_one_is_the_truncated_convolution(l):
    rng = np.random.default_rng([l, 15])
    f, g = random_element(rng, l), random_element(rng, l)
    want = np.zeros((l, l), dtype=complex)
    for a, b, c, d in itertools.product(range(l), repeat=4):
        if a + c < l and b + d < l:
            want[a + c, b + d] += f.coeffs[a, b] * g.coeffs[c, d]
    np.testing.assert_allclose(multiply(f, g, AlgebraCtx(l)).coeffs, want, rtol=1e-12, atol=1e-12)


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


def loop_from_free_expr(e, ctx):
    """from_free_expr node by node: a PGElement per node and the public
    multiply per product, the route its table evaluator replaced."""
    if isinstance(e, Const):
        return complex(e.value) * PGElement.one(ctx.l)
    if isinstance(e, QSym):
        return ctx.q * PGElement.one(ctx.l)
    if isinstance(e, Gen):
        return PGElement.basis(ctx.l, 1, 0) if e.name == THETA else PGElement.basis(ctx.l, 0, 1)
    if isinstance(e, Sum):
        out = PGElement.zero(ctx.l)
        for t in e.terms:
            out = out + loop_from_free_expr(t, ctx)
        return out
    if isinstance(e, Prod):
        out = PGElement.one(ctx.l)
        for fct in e.factors:
            out = multiply(out, loop_from_free_expr(fct, ctx), ctx)
        return out
    if isinstance(e, Pow):
        if e.exponent == 0:
            return PGElement.one(ctx.l)
        base = loop_from_free_expr(e.base, ctx)
        out = base
        for bit in bin(e.exponent)[3:]:
            out = multiply(out, out, ctx)
            if bit == "1":
                out = multiply(out, base, ctx)
        return out
    return -loop_from_free_expr(e.operand, ctx)


@pytest.mark.cpu_path
@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", range(2, 8))
def test_from_free_expr_equals_its_node_loop(l, q):
    """Bit for bit, signed zeros included, on the verify sweep's random trees."""
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 29])
    for _ in range(40):
        e = _random_expr(rng)
        assert from_free_expr(e, ctx).coeffs.tobytes() == loop_from_free_expr(e, ctx).coeffs.tobytes()


@pytest.mark.cpu_path
@pytest.mark.parametrize("q", GRID_Q_VALUES)
def test_from_free_expr_edge_trees_equal_the_node_loop(q):
    ctx = AlgebraCtx(4, q)
    th, thb = Gen(THETA), Gen(THETA_BAR)
    trees = [Const(-0.0), Const(complex(-0.0, -0.0)), Neg(Const(0.0)),
             Prod((Const(-0.0), th)), Sum((Const(complex(0.0, -0.0)), Neg(thb))),
             Pow(th, 0), Pow(Sum((Const(-1.5), thb)), 0),
             Pow(Sum((Const(1.0), th)), 3_000_000),
             Pow(Sum((Const(-1.0), Prod((thb, QSym(), th)))), 3_000_000)]
    for e in trees:
        assert from_free_expr(e, ctx).coeffs.tobytes() == loop_from_free_expr(e, ctx).coeffs.tobytes()
    # an overflowing product fills the table with NaN on both routes
    with np.errstate(all="ignore"):
        e = parse("1e300*1e300*th")
        got, want = from_free_expr(e, ctx).coeffs, loop_from_free_expr(e, ctx).coeffs
    assert np.isnan(got).all()
    assert got.tobytes() == want.tobytes()


def test_import_does_not_load_scipy():
    code = "import sys, pgquant; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
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


# --- the stacked kernels: a stack of n tables is n single calls ----------------

def sparse_stack(rng, l, n):
    return np.array([rand_sparse_element(rng, l).coeffs for _ in range(n)])


def each(fn, stack):
    """fn's n = 1 result for each table of a stack, stacked again."""
    return np.array([fn(PGElement(table.shape[-1], table)) for table in stack])


@pytest.mark.cpu_path
@pytest.mark.parametrize("n", (1, 5))
@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", range(2, 10))
def test_stacked_kernels_equal_single_calls(l, q, n):
    """Bit for bit, also across the blocks a stack is cut into (five tables of
    l = 9 span two products, and at l = 6 each blocked kernel meets a stack
    that fills one block and one a table longer), with about a third of the
    coefficients exactly zero."""
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, n, 26])
    w = rand_weights(rng, l)
    F, G = sparse_stack(rng, l, n), sparse_stack(rng, l, n)
    pairs = [(PGElement(l, f), PGElement(l, g)) for f, g in zip(F, G)]
    assert np.array_equal(multiply_stack(F, G, ctx),
                          [multiply(f, g, ctx).coeffs for f, g in pairs])
    assert np.array_equal(multiply_stack(F[:1], G, ctx),
                          [multiply(pairs[0][0], g, ctx).coeffs for _, g in pairs])
    if l == 6 and n == 5:
        # for each kernel that algebra.in_blocks cuts, a stack of exactly one
        # block and one of a table more that takes a second block; a block is
        # BLOCK_TERMS over the terms per table that the kernel passes
        assert BLOCK_TERMS // len(product_support(l)[0]) == 18
        for big in (18, 19):
            F6, G6 = sparse_stack(rng, l, big), sparse_stack(rng, l, big)
            assert np.array_equal(multiply_stack(F6, G6, ctx), [
                multiply(PGElement(l, f), PGElement(l, g), ctx).coeffs for f, g in zip(F6, G6)])
            assert np.array_equal(multiply_stack(F6[:1], G6, ctx), [
                multiply(PGElement(l, F6[0]), PGElement(l, g), ctx).coeffs for g in G6])
        assert BLOCK_TERMS // len(_gram_support(l)[0]) == 90
        assert BLOCK_TERMS // len(_berezin_support(l)[0]) == 90
        for big in (90, 91):
            F6, G6 = sparse_stack(rng, l, big), sparse_stack(rng, l, big)
            for mode in ("closed", "definitional"):
                assert np.array_equal(form_stack(F6, G6, w, mode), [
                    form(PGElement(l, f), PGElement(l, g), w, mode) for f, g in zip(F6, G6)])
        cut = (  # (terms per table, tables per block, stacked kernel, single call)
            (len(_toeplitz_support(l)[0]), 90, lambda G: toeplitz_stack(G, w),
             lambda g: toeplitz(g, w, ctx).matrix),
            (len(_toeplitz_support(l)[0]), 90, lambda G: coherent_quantization_stack(G, w),
             lambda g: coherent_quantization(g, w, ctx)),
            (l ** 3, 37, lambda G: toeplitz_stack(G, w, "projection"),
             lambda g: toeplitz(g, w, ctx, "projection").matrix),
            (l ** 3, 37, lambda G: toeplitz_flat_stack(G, w), lambda g: toeplitz_flat(g, w, ctx)),
            (l ** 3, 37, lambda F: project_pk_stack(F, w, "kernel"),
             lambda f: project_pk(f, w, "kernel").coeffs),
            (len(_projection_support(l)[0]), 390, lambda F: project_pk_stack(F, w),
             lambda f: project_pk(f, w).coeffs),
            (l * l, 227, lambda G: coherent_quantization_stack(G, w, "berezin"),
             lambda g: coherent_quantization(g, w, ctx, "berezin")),
        )
        for terms, block, kernel, single in cut:
            assert BLOCK_TERMS // terms == block
            for big in (block, block + 1):
                G6 = sparse_stack(rng, l, big)
                assert kernel(G6).tobytes() == each(single, G6).tobytes()
    for mode in ("closed", "definitional"):
        assert np.array_equal(form_stack(F, G, w, mode), [form(f, g, w, mode) for f, g in pairs])
    for mode in ("closed", "projection"):
        assert np.array_equal(toeplitz_stack(G, w, mode),
                              each(lambda g: toeplitz(g, w, ctx, mode).matrix, G))
    for mode in ("closed", "berezin"):
        assert np.array_equal(coherent_quantization_stack(G, w, mode),
                              each(lambda g: coherent_quantization(g, w, ctx, mode), G))
    for mode in ("closed", "kernel"):
        assert np.array_equal(project_pk_stack(F, w, mode),
                              each(lambda f: project_pk(f, w, mode).coeffs, F))
    assert np.array_equal(toeplitz_flat_stack(G, w),
                          each(lambda g: toeplitz_flat(g, w, ctx), G))
    assert np.array_equal(conjugate_stack(F), each(lambda f: conjugate(f).coeffs, F))
    for side in ("left", "right"):
        # bytes, so that a -0.0 entry would show
        assert mult_operator_stack(G, side, ctx).tobytes() == each(
            lambda g: mult_operator(g, side, ctx), G).tobytes()
    T = toeplitz_stack(G, w)
    assert np.array_equal(toeplitz_adjoint_stack(T, w), [
        toeplitz_adjoint(OperatorBH(l, M, MONOMIAL), w).matrix for M in T])
    for target in (ORTHONORMAL, MONOMIAL):
        source = MONOMIAL if target == ORTHONORMAL else ORTHONORMAL
        assert np.array_equal(convert_basis_stack(T, w, target), [
            convert_basis(OperatorBH(l, M, source), w, target).matrix for M in T])


# each stacked kernel of (n, l, l) tables, as a function of the stack and the weights
STACKED_KERNELS = {
    "multiply": lambda F, w: multiply_stack(F, F[::-1], AlgebraCtx(w.l, 0.5)),
    "form closed": lambda F, w: form_stack(F, F[::-1], w),
    "form definitional": lambda F, w: form_stack(F, F[::-1], w, "definitional"),
    "toeplitz closed": lambda F, w: toeplitz_stack(F, w),
    "toeplitz projection": lambda F, w: toeplitz_stack(F, w, "projection"),
    "coherent closed": lambda F, w: coherent_quantization_stack(F, w),
    "coherent berezin": lambda F, w: coherent_quantization_stack(F, w, "berezin"),
    "flat": lambda F, w: toeplitz_flat_stack(F, w),
    "project_pk closed": lambda F, w: project_pk_stack(F, w),
    "project_pk kernel": lambda F, w: project_pk_stack(F, w, "kernel"),
}


@pytest.mark.parametrize("kernel", STACKED_KERNELS)
def test_stacked_kernels_hold_one_output_and_a_half(kernel):
    """A kernel's traced peak on 1,000 tables at l = 16 is at most one and a
    half times its output's bytes plus 1 MiB: one output, written a block at
    a time, and the temporaries of a block, not of the whole stack (the l^3
    shift buffer of the projection Toeplitz alone would be 65 MB) nor a
    second copy of the output."""
    l, fn = 16, STACKED_KERNELS[kernel]
    rng = np.random.default_rng([l, 29])
    w = rand_weights(rng, l)
    F = random_elements(rng, (1000,), l)
    fn(F[:2], w)  # the index tables are cached on a first call
    tracemalloc.start()
    try:
        out = fn(F, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 1000
    assert peak <= 1.5 * out.nbytes + 2 ** 20, (peak, out.nbytes)


@pytest.mark.parametrize("n", (1, 5))
def test_scatter_sum_rows_equal_single_rows(n):
    rng = np.random.default_rng([n, 27])
    cells = rng.integers(0, 7, 40)
    terms = rng.standard_normal((n, 40)) + 1j * rng.standard_normal((n, 40))
    terms[rng.random((n, 40)) < 0.35] = -0.0
    got = scatter_sum(cells, terms, 7)
    assert got.shape == (n, 7)
    for row, want in zip(terms, got):
        assert np.array_equal(scatter_sum(cells, row[None], 7)[0], want)


def loop_toeplitz_flat(g, w, ctx):
    """toeplitz_flat as one product and one projection per basis column."""
    l = ctx.l
    sw = np.sqrt(w.arr())
    M = np.zeros((l, l), dtype=complex)
    for a in range(l):
        F = PGElement.basis(l, 0, a, 1.0 / sw[a])
        M[:, a] = project_pk_bar(multiply(g, F, ctx), w).coeffs[0, :] * sw
    return M


@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", (2, 3, 6, 9, 13, 16, 24))
def test_toeplitz_flat_equals_its_column_loop(l, q):
    """Bit for bit, signed zeros included: tobytes tells -0.0 from 0.0."""
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, 28])
    for _ in range(3):
        w = rand_weights(rng, l)
        g = rand_sparse_element(rng, l)
        assert toeplitz_flat(g, w, ctx).tobytes() == loop_toeplitz_flat(g, w, ctx).tobytes()


# --- the berezin route: products with generator powers as shifted views -------

@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", range(2, 8))
def test_generator_powers_shift_the_table(l, q):
    """th^a G thb^b is G moved down a rows and right b columns, with no
    q-phase: the rule the berezin route and the projection Toeplitz's row
    shifts read in place instead of multiplying."""
    ctx = AlgebraCtx(l, q)
    G = sparse_stack(np.random.default_rng([l, 31]), l, 3)
    for a in range(l):
        for b in range(l):
            want = np.zeros(G.shape, dtype=complex)
            want[:, a:, b:] = G[:, :l - a, :l - b]
            got = multiply_stack(multiply_stack(PGElement.basis(l, a, 0).coeffs[None], G, ctx),
                                 PGElement.basis(l, 0, b).coeffs[None], ctx)
            assert np.array_equal(got, want)


def product_berezin(G, w, ctx):
    """The berezin route as it was written with the algebra product: each
    th^m g thb^m by two multiply_stack calls."""
    l = ctx.l
    A = np.zeros((len(G), l, l), dtype=complex)
    sw = np.sqrt(w.arr())
    norm = np.outer(sw, sw)
    for m in range(l):
        core = multiply_stack(multiply_stack(PGElement.basis(l, m, 0).coeffs[None], G, ctx),
                              PGElement.basis(l, 0, m).coeffs[None], ctx)
        A += w.w[l - 1 - m] * core[:, ::-1, ::-1] / norm
    return A


@pytest.mark.parametrize("n", (1, 5))
@pytest.mark.parametrize("q", GRID_Q_VALUES)
@pytest.mark.parametrize("l", (*range(2, 13), 16, 24))
def test_berezin_route_equals_its_product_route(l, q, n):
    """Bit for bit, signed zeros included: where the route reads a -0.0 of g
    in place the products' scatter gives 0.0, and the sum into the result
    must hide it."""
    ctx = AlgebraCtx(l, q)
    rng = np.random.default_rng([l, n, 32])
    w = rand_weights(rng, l)
    G = sparse_stack(rng, l, n)
    got = coherent_quantization_stack(G, w, "berezin")
    assert got.tobytes() == product_berezin(G, w, ctx).tobytes()


# --- stacked draws: one generator call gives the samples of a loop -------------

@pytest.mark.parametrize("l", (2, 3, 6), ids=lambda l: f"dense-{l}")
def test_stacked_draw_equals_successive_random_elements(l):
    one, loop = np.random.default_rng([l, 29]), np.random.default_rng([l, 29])
    [stack] = samples(one, (4, 3), (l, l))
    assert stack.shape == (4, 3, l, l)
    want = [random_element(loop, l).coeffs for _ in range(12)]
    assert np.array_equal(stack.reshape(12, l, l), want)
    # both generators are left in the same state
    assert one.standard_normal() == loop.standard_normal()


@pytest.mark.parametrize("l", (2, 3, 6))
def test_compression_samples_equal_the_interleaved_draws(l):
    one, loop = np.random.default_rng([l, 30]), np.random.default_rng([l, 30])
    # compression_identity's draw of a symbol g and the coordinates f1, f2
    g, f1, f2 = samples(one, (5,), (l, l), (l,), (l,))
    for k in range(5):
        assert np.array_equal(g[k], random_element(loop, l).coeffs)
        assert np.array_equal(f1[k], loop.standard_normal(l) + 1j * loop.standard_normal(l))
        assert np.array_equal(f2[k], loop.standard_normal(l) + 1j * loop.standard_normal(l))
    assert one.standard_normal() == loop.standard_normal()
