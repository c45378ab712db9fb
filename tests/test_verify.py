"""run_point is the one place that turns what a check measured into a record.

A check returns its residuals or raises CheckFailure; these tests pin how
run_point reduces either to (residual, status, note), including residuals that
are NaN or infinite, and that every check keeps that contract.  The checks
that draw their samples as stacks are pinned to the per-sample loops they
replaced: the same residuals, bit for bit.  The checks that make one stacked
call per family of basis monomials are pinned to the per-monomial loops they
replaced: the same record.  The checks that compute on raw tables are pinned
to the element and operator route they replaced: the same residuals, bit for
bit, which also pins the operand order of each scalar product.  The two
checks that draw nothing and read the ladder powers or a norm, ladder_facts
and norm_bound, are pinned to their earlier bodies by record, note included.
A check that draws nothing runs once per distinct input, and the records do
not depend on what the cache holds.
"""
import inspect
import itertools
import math

import numpy as np
import pytest

from pgquant import algebra as alg
from pgquant import verify as verify_mod
from pgquant.algebra import PGElement
from pgquant.forms import (WeightSeq, adjoint_wrt_form, form, gram_matrix, orthonormal_phi,
                           preset_weights)
from pgquant.quantization import (coherent_quantization, ladder_set, matrix_rank,
                                  mult_operator, operator_norm_bh, pk_operator, project_pk,
                                  span_rank, toeplitz, toeplitz_adjoint, toeplitz_flat,
                                  toeplitz_orthonormal)
from pgquant.verify import EXPECTED_FAIL, CheckFailure


def point(l=2, w=None, checks=None):
    w = w or verify_mod.grid_weights("ones", l)
    return verify_mod.run_point(l, "1", 1.0, "custom", w, checks=checks)


def with_check(monkeypatch, name, fn):
    """Swap the function of one CHECKS entry, keeping its name and place."""
    monkeypatch.setattr(verify_mod, "CHECKS", tuple(
        (n, fn if n == name else f) for n, f in verify_mod.CHECKS))


def call(fn, ctx, w, rng, tol):
    """fn called as run_point calls it, with the arguments it names."""
    given = {"ctx": ctx, "w": w, "rng": rng, "tol": tol}
    return fn(**{p: given[p] for p in inspect.signature(fn).parameters})


@pytest.mark.parametrize("measured", [[0.0, math.nan], [math.nan, 0.0], [math.inf],
                                      [1e-12, -math.inf]])
def test_a_non_finite_residual_fails_as_inf(monkeypatch, measured):
    with_check(monkeypatch, "defining_relation", lambda ctx, w, rng, tol: measured)
    [r] = point(checks=("defining_relation",))
    assert (r.residual, r.status, r.note) == (math.inf, "fail", "")


@pytest.mark.parametrize("measured,residual,status", [
    ([], 0.0, "pass"), ([3e-10, 1e-12], 3e-10, "pass"), ([1e-12, 2e-9], 2e-9, "fail")])
def test_the_residual_is_the_largest_measured(monkeypatch, measured, residual, status):
    with_check(monkeypatch, "defining_relation", lambda ctx, w, rng, tol: measured)
    [r] = point(checks=("defining_relation",))
    assert (r.residual, r.status) == (residual, status)


def test_raised_failures_keep_residual_one_and_their_note(monkeypatch):
    def structural(ctx, w, rng, tol):
        raise CheckFailure("kernel not one-dimensional")

    def expected(ctx, w, rng, tol):
        raise CheckFailure(expected=True)

    with_check(monkeypatch, "defining_relation", structural)
    with_check(monkeypatch, "norm_bound", expected)
    failed, witnessed = point(checks=("defining_relation", "norm_bound"))
    assert (failed.residual, failed.status, failed.note) == (
        1.0, "fail", "kernel not one-dimensional")
    assert (witnessed.residual, witnessed.status, witnessed.note) == (0.0, EXPECTED_FAIL, "")


def test_an_svd_that_does_not_converge_fails_as_inf(monkeypatch):
    # numpy's SVD reports a matrix holding inf or NaN this way
    def diverging(ctx, w, rng, tol):
        raise np.linalg.LinAlgError("SVD did not converge")

    with_check(monkeypatch, "defining_relation", diverging)
    [r] = point(checks=("defining_relation",))
    assert (r.residual, r.status, r.note) == (math.inf, "fail", "SVD did not converge")


@pytest.mark.parametrize("l", [2, 4])
@pytest.mark.parametrize("name", ["toeplitz_dual_path", "multiplicativity",
                                  "adjoint_symbol_rule"])
def test_overflowing_weights_fail_without_warnings(name, l):
    # w_1 = 1e308 overflows the weight ratios to inf and their differences to
    # NaN; numpy warnings are errors under this suite's configuration
    w = WeightSeq(l, (1.0, 1e308) + (1.0,) * (l - 2))
    [r] = point(l, w=w, checks=(name,))
    assert (r.residual, r.status) == (math.inf, "fail")


@pytest.mark.parametrize("name", ["adjoint_wrt_form", "compression_identity"])
def test_a_magnitude_beyond_the_float_range_fails_as_inf(name):
    # Python's complex abs raises OverflowError where numpy's gives inf
    [r] = point(2, w=WeightSeq(2, (1e308, 1.0)), checks=(name,))
    assert (r.residual, r.status) == (math.inf, "fail")


def test_weights_whose_inverse_blocks_sum_both_infinities_give_every_record():
    # the power series of the charge blocks' inverse sums inf and -inf here;
    # math.fsum raised ValueError on it and ended the whole point
    w = WeightSeq(3, (1.9563811440276517e-308, 1.0, 5e-324))
    records = point(3, w=w)
    assert [r.check for r in records] == list(verify_mod.CHECK_NAMES)
    adjoint = records[verify_mod.CHECK_NAMES.index("adjoint_wrt_form")]
    assert (adjoint.residual, adjoint.status) == (math.inf, "fail")


@pytest.mark.parametrize("name,fn", verify_mod.CHECKS, ids=verify_mod.CHECK_NAMES)
def test_every_check_returns_a_list_of_residuals(name, fn):
    # a list, not a generator: a check does all its work when called, so a
    # timer around the call measures the check
    ctx = verify_mod.AlgebraCtx(2, 1.0)
    w = verify_mod.grid_weights("rand1", 2)
    measured = call(fn, ctx, w, np.random.default_rng(0), verify_mod.DEFAULT_TOL)
    assert isinstance(measured, list)
    assert all(0 <= x < verify_mod.DEFAULT_TOL for x in measured)


@pytest.mark.parametrize("checks", [("toeplitz_dual_pat",), "toeplitz_dual_path",
                                    ("associativity", "no_such_check")])
def test_unknown_check_names_are_rejected(checks):
    with pytest.raises(ValueError, match="CHECK_NAMES"):
        point(checks=checks)


@pytest.mark.parametrize("name,fn", verify_mod.CHECKS, ids=verify_mod.CHECK_NAMES)
def test_a_check_takes_an_ordered_subset_of_the_point_arguments(name, fn):
    params = list(inspect.signature(fn).parameters)
    assert params == [p for p in ("ctx", "w", "rng", "tol") if p in params]


# --- a check that draws nothing runs once per distinct input -------------------

@pytest.fixture
def cold_cache():
    verify_mod._shared_outcome.cache_clear()


def counting(monkeypatch, names):
    """Wrap the named checks as the benchmark's tracer does, with __wrapped__
    set; the returned dict counts the calls that reach each check."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    monkeypatch.setattr(verify_mod, "CHECKS", tuple(
        (n, wrap(n, f) if n in names else f) for n, f in verify_mod.CHECKS))
    return calls


def test_a_check_runs_once_per_distinct_input(monkeypatch, cold_cache):
    names = ("normal_order_oracle", "associativity", "gram_properties")
    calls = counting(monkeypatch, names)
    w = verify_mod.grid_weights("rand1", 3)
    for q_id, q in verify_mod.GRID_QS:
        verify_mod.run_point(3, q_id, q, "rand1", w, checks=names)
    assert calls == {"normal_order_oracle": 5, "associativity": 5, "gram_properties": 1}

    calls.update(dict.fromkeys(names, 0))
    for w_id, w in verify_mod.grid_point_weights(3, 2.0):
        verify_mod.run_point(3, "2", 2.0, w_id, w, checks=names)
    # the oracle met q = 2 in the loop above already
    assert calls == {"normal_order_oracle": 0, "associativity": 5, "gram_properties": 4}


def test_a_swapped_in_check_is_called_over_a_cached_outcome(monkeypatch, cold_cache):
    [real] = point(checks=("gram_properties",))
    assert real.status == "pass"

    def swapped(w):
        raise CheckFailure("swapped in")

    with_check(monkeypatch, "gram_properties", swapped)
    [r] = point(checks=("gram_properties",))
    assert (r.residual, r.status, r.note) == (1.0, "fail", "swapped in")


def record_bytes(records):
    return [(r.check, r.l, r.q_id, r.w_id, r.residual.hex(), r.status, r.note)
            for r in records]


def test_records_do_not_depend_on_the_cache_or_the_point_order(cold_cache):
    points = [(l, q_id, q, w_id, w) for l in (2, 3, 4) for q_id, q in verify_mod.GRID_QS
              for w_id, w in verify_mod.grid_point_weights(l, q)]

    def sweep(order):
        return {p[:2] + p[3:4]: record_bytes(verify_mod.run_point(*p)) for p in order}

    cold = sweep(points)
    assert sweep(points) == cold
    verify_mod._shared_outcome.cache_clear()
    assert sweep(points[::-1]) == cold


def test_weights_that_differ_per_q_under_one_id_keep_their_records(cold_cache):
    # qfactorial weights are defined at l >= 3 for real q > 0 other than 1
    qs = [(q_id, q) for q_id, q in verify_mod.GRID_QS if q.imag == 0 < q.real != 1]
    for l in (3, 5):
        weights = [preset_weights("qfactorial", l, q) for _, q in qs]
        assert len(set(weights)) == len(qs)
        warm = [record_bytes(verify_mod.run_point(l, q_id, q, "qfactorial", w))
                for (q_id, q), w in zip(qs, weights)]
        for (q_id, q), w, records in zip(qs, weights, warm):
            verify_mod._shared_outcome.cache_clear()
            assert record_bytes(verify_mod.run_point(l, q_id, q, "qfactorial", w)) == records


# --- each batched check against the per-sample loop it replaced ---------------
# The loops below are the checks as they were written before the checks drew
# their samples as stacks: one random_element (or one vector) per draw, one
# kernel call per sample.  A batched check must return exactly their residuals.

def draw(rng, l, holomorphic=False, anti_holomorphic=False):
    table = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    if holomorphic:
        table[:, 1:] = 0
    if anti_holomorphic:
        table[1:, :] = 0
    return PGElement(l, table)


def max_abs(x):
    return float(np.max(np.abs(x)))


def vec_bh(x, l):
    out = np.zeros(l * l, dtype=complex)
    out[::l] = x
    return out


def loop_associativity(ctx, w, rng, tol):
    residuals = []
    for _ in range(10):
        f, g, h = (draw(rng, ctx.l) for _ in range(3))
        lhs = alg.multiply(alg.multiply(f, g, ctx), h, ctx)
        rhs = alg.multiply(f, alg.multiply(g, h, ctx), ctx)
        residuals.append(max_abs(lhs.coeffs - rhs.coeffs) / max(1.0, max_abs(rhs.coeffs)))
    return residuals


def loop_star_criterion(ctx, w, rng, tol):
    thb = PGElement.basis(ctx.l, 0, 1)
    th = PGElement.basis(ctx.l, 1, 0)
    witness = alg.conjugate(alg.multiply(thb, th, ctx)) - alg.multiply(
        alg.conjugate(th), alg.conjugate(thb), ctx)
    witness_res = max_abs(witness.coeffs)
    if ctx.q.imag != 0:
        if witness_res > tol:
            raise CheckFailure(expected=True)
        return [witness_res + 1.0]
    residuals = [witness_res]
    for _ in range(10):
        f, g = draw(rng, ctx.l), draw(rng, ctx.l)
        prod = alg.multiply(f, g, ctx)
        res = alg.conjugate(prod) - alg.multiply(alg.conjugate(g), alg.conjugate(f), ctx)
        residuals.append(max_abs(res.coeffs) / max(1.0, max_abs(prod.coeffs)))
    return residuals


def loop_holomorphic_conjugation(ctx, w, rng, tol):
    residuals = []
    for _ in range(10):
        f = draw(rng, ctx.l, holomorphic=True)
        g = draw(rng, ctx.l, holomorphic=True)
        res = alg.conjugate(alg.multiply(f, g, ctx)) - alg.multiply(
            alg.conjugate(f), alg.conjugate(g), ctx)
        residuals.append(max_abs(res.coeffs))
    return residuals


def loop_normal_order_oracle(ctx, w, rng, tol):
    return [max_abs(alg.normal_order(word, ctx).coeffs - verify_mod._rewrite_words(word, ctx).coeffs)
            for length in range(7)
            for word in itertools.product((alg.THETA, alg.THETA_BAR), repeat=length)]


def choice_random_expr(rng, depth=0):
    """_random_expr drawing each node kind with rng.choice."""
    kinds = ["const", "q", "th", "thb"]
    if depth < 2:
        kinds += ["sum", "prod", "pow", "neg"]
    kind = rng.choice(kinds)
    if kind == "const":
        return alg.Const(complex(rng.standard_normal(), rng.standard_normal()))
    if kind == "q":
        return alg.QSym()
    if kind == "th":
        return alg.Gen(alg.THETA)
    if kind == "thb":
        return alg.Gen(alg.THETA_BAR)
    if kind == "sum":
        return alg.Sum(tuple(choice_random_expr(rng, depth + 1) for _ in range(2)))
    if kind == "prod":
        return alg.Prod(tuple(choice_random_expr(rng, depth + 1) for _ in range(2)))
    if kind == "pow":
        return alg.Pow(choice_random_expr(rng, depth + 1), int(rng.integers(0, 4)))
    return alg.Neg(choice_random_expr(rng, depth + 1))


def test_random_expr_draws_the_trees_of_rng_choice():
    """Indexing the kinds with rng.integers reads the generator's stream as
    rng.choice does: the same trees, and the generator left in the same state."""
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [verify_mod._random_expr(rng) for _ in range(5)]
        assert repr(got) == repr([choice_random_expr(ref) for _ in range(5)])
        assert rng.bit_generator.state == ref.bit_generator.state


def loop_free_expr_linearity(ctx, w, rng, tol):
    residuals = []
    for _ in range(10):
        e1, e2 = verify_mod._random_expr(rng), verify_mod._random_expr(rng)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        combined = alg.Sum((alg.Prod((alg.Const(a), e1)), alg.Prod((alg.Const(b), e2))))
        lhs = alg.from_free_expr(combined, ctx)
        rhs = a * alg.from_free_expr(e1, ctx) + b * alg.from_free_expr(e2, ctx)
        residuals.append(max_abs(lhs.coeffs - rhs.coeffs))
    return residuals


def loop_form_mode_agreement(ctx, w, rng, tol):
    pairs = ((draw(rng, ctx.l), draw(rng, ctx.l)) for _ in range(200))
    return [abs(form(f, g, w, "closed") - form(f, g, w, "definitional")) for f, g in pairs]


def loop_adjoint_wrt_form(ctx, w, rng, tol):
    l = ctx.l
    A = rng.standard_normal((l * l, l * l)) + 1j * rng.standard_normal((l * l, l * l))
    Astar = adjoint_wrt_form(A, w)
    residuals = []
    for _ in range(100):
        f, g = draw(rng, l), draw(rng, l)
        lhs = form(PGElement.from_vector(l, A @ f.vector()), g, w)
        rhs = form(f, PGElement.from_vector(l, Astar @ g.vector()), w)
        residuals.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    residuals.append(max_abs(adjoint_wrt_form(Astar, w) - A) / max(1.0, max_abs(A)))
    return residuals


def loop_pk_projection(ctx, w, rng, tol):
    l = ctx.l
    P = pk_operator(w)
    residuals = [max_abs(P @ P - P), max_abs(adjoint_wrt_form(P, w) - P)]
    if matrix_rank(P) != l:
        raise CheckFailure()
    for _ in range(10):
        F = draw(rng, l)
        residuals.append(max_abs(project_pk(F, w, "closed").coeffs
                                 - project_pk(F, w, "kernel").coeffs))
        h = draw(rng, l, holomorphic=True)
        residuals.append(max_abs(project_pk(h, w).coeffs - h.coeffs))
    return residuals


def loop_toeplitz_dual_path(ctx, w, rng, tol):
    l = ctx.l
    symbols = itertools.chain((PGElement.basis(l, i, j) for i in range(l) for j in range(l)),
                              (draw(rng, l) for _ in range(50)))
    return [max_abs(toeplitz(g, w, ctx, "closed").matrix - toeplitz(g, w, ctx, "projection").matrix)
            for g in symbols]


def loop_compression_identity(ctx, w, rng, tol):
    l = ctx.l
    residuals = []
    for _ in range(20):
        g = draw(rng, l)
        T = toeplitz(g, w, ctx).matrix
        Mg = mult_operator(g, "right", ctx)
        f1 = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        f2 = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        e1 = PGElement.from_vector(l, vec_bh(f1, l))
        lhs = form(e1, PGElement.from_vector(l, vec_bh(T @ f2, l)), w)
        rhs = form(e1, PGElement.from_vector(l, Mg @ vec_bh(f2, l)), w)
        residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return residuals


def loop_toeplitz_iso_rank(ctx, w, rng, tol):
    l = ctx.l
    if span_rank(toeplitz(PGElement.basis(l, i, j), w, ctx).matrix
                 for i in range(l) for j in range(l)) != l * l:
        raise CheckFailure()
    return []


def loop_adjoint_symbol_rule(ctx, w, rng, tol):
    l = ctx.l
    residuals = []
    for _ in range(50):
        g = draw(rng, l)
        lhs = toeplitz_adjoint(toeplitz(g, w, ctx), w).matrix
        rhs = toeplitz(alg.conjugate(g), w, ctx).matrix
        residuals.append(max_abs(lhs - rhs))
    g_sa = PGElement.basis(l, 1, 0) + PGElement.basis(l, 0, 1) + PGElement.basis(l, 1, 1)
    T = toeplitz(g_sa, w, ctx)
    residuals.append(max_abs(toeplitz_adjoint(T, w).matrix - T.matrix))
    Tn = toeplitz(PGElement.basis(l, 1, 0), w, ctx)
    if np.allclose(toeplitz_adjoint(Tn, w).matrix, Tn.matrix, atol=tol):
        raise CheckFailure()
    return residuals


def loop_multiplicativity(ctx, w, rng, tol):
    l = ctx.l
    residuals = []
    for _ in range(50):
        g1 = draw(rng, l, holomorphic=True)
        g2 = draw(rng, l, holomorphic=True)
        h1 = draw(rng, l, anti_holomorphic=True)
        h2 = draw(rng, l, anti_holomorphic=True)
        for a, b in ((g1, g2), (h1, h2)):
            Ta, Tb = toeplitz(a, w, ctx).matrix, toeplitz(b, w, ctx).matrix
            Tab = toeplitz(alg.multiply(a, b, ctx), w, ctx).matrix
            scale = max(1.0, max_abs(Tab))
            residuals += [max_abs(Ta @ Tb - Tab) / scale, max_abs(Tb @ Ta - Tab) / scale]
    return residuals


def loop_number_operator(ctx, w, rng, tol):
    l = ctx.l
    lad = ladder_set(w, ctx)
    N = lad.number.matrix
    diag = np.real(np.diag(N))
    residuals = [max_abs(N - np.diag(np.diag(N))),
                 max_abs(np.sort(diag) - np.sort(lad.deformed_ints))]
    if np.any(diag < -tol):
        raise CheckFailure()
    D = w.arr()
    for _ in range(20):
        fvec = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        lhs = np.conj(fvec) @ (D * (N @ fvec))
        af = lad.annihilation.matrix @ fvec
        rhs = np.conj(af) @ (D * af)
        residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return residuals


def loop_quantization_equivalences(ctx, w, rng, tol):
    l = ctx.l
    residuals = []
    for _ in range(50):
        g = draw(rng, l)
        A = coherent_quantization(alg.z_map(g), w, ctx)
        residuals.append(max_abs(A - toeplitz_orthonormal(g, w, ctx).matrix))
        residuals.append(max_abs(toeplitz_flat(g, w, ctx) - coherent_quantization(g, w, ctx)))
    for _ in range(10):
        g = draw(rng, l)
        residuals.append(max_abs(coherent_quantization(g, w, ctx, "closed")
                                 - coherent_quantization(g, w, ctx, "berezin")))
    if span_rank(coherent_quantization(PGElement.basis(l, i, j), w, ctx)
                 for i in range(l) for j in range(l)) != l * l:
        raise CheckFailure()
    return residuals


# --- each table check against the element route it replaced -------------------
# Each fixed symbol built as a PGElement and each operator as an OperatorBH,
# through the single-element wrappers.  A scalar times an element multiplies
# its table by the scalar on the right, and numpy's complex s * x and x * s
# may differ in the last bit, so these pin each check's operand order too.

def loop_defining_relation(ctx, w, rng, tol):
    th = PGElement.basis(ctx.l, 1, 0)
    thb = PGElement.basis(ctx.l, 0, 1)
    res = alg.multiply(th, thb, ctx) - ctx.q * alg.multiply(thb, th, ctx)
    return [max_abs(res.coeffs)]


def loop_mixed_products(ctx, w, rng, tol):
    l = ctx.l
    T_eta = toeplitz(PGElement.basis(l, 1, 0), w, ctx).matrix
    T_etabar = toeplitz(PGElement.basis(l, 0, 1), w, ctx).matrix
    T_mixed = toeplitz(PGElement.basis(l, 1, 1), w, ctx).matrix
    reversed_symbol = alg.normal_order((alg.THETA_BAR, alg.THETA), ctx)
    return [max_abs(T_mixed - T_etabar @ T_eta),
            max_abs(ctx.q * toeplitz(reversed_symbol, w, ctx).matrix - T_mixed)]


def loop_q_commute_compression(ctx, w, rng, tol):
    l = ctx.l
    th = PGElement.basis(l, 1, 0)
    thb = PGElement.basis(l, 0, 1)
    M_th = mult_operator(th, "right", ctx)
    M_thb = mult_operator(thb, "right", ctx)
    P = pk_operator(w)
    comp_thb = (P @ M_thb)[::l, ::l]
    comp_th = (P @ M_th)[::l, ::l]
    return [max_abs(M_thb @ M_th - ctx.q * M_th @ M_thb),
            max_abs(comp_thb - toeplitz(thb, w, ctx).matrix),
            max_abs(comp_th - toeplitz(th, w, ctx).matrix)]


def loop_reproducing_truncation(ctx, w, rng, tol):
    l = ctx.l
    N = l + 3
    coeffs = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    terms = tuple(alg.Prod((alg.Const(coeffs[j]), alg.Pow(alg.Gen(alg.THETA), j)))
                  for j in range(N + 1))
    image = alg.from_free_expr(alg.Sum(terms), ctx)
    truncated = PGElement.zero(l)
    for j in range(l):
        truncated = truncated + coeffs[j] * PGElement.basis(l, j, 0)
    return [max_abs(project_pk(image, w).coeffs - truncated.coeffs)]


# --- each basis-family check against the per-monomial loop it replaced -------
# One kernel call per basis monomial or pair.  A residual list here is shaped
# by its loop, so what must agree is the record run_point makes of it.

def loop_gram_properties(ctx, w, rng, tol):
    G = gram_matrix(w)
    sub = np.array([[form(PGElement.basis(w.l, a, 0), PGElement.basis(w.l, c, 0), w)
                     for c in range(w.l)] for a in range(w.l)])
    if matrix_rank(G) != w.l * w.l or not np.all(np.linalg.eigvalsh(np.real(sub)) > 0):
        raise CheckFailure()
    return [max_abs(G - G.T)]


def loop_orthonormal_basis(ctx, w, rng, tol):
    return [abs(form(orthonormal_phi(j, w), orthonormal_phi(k, w), w) - (1.0 if j == k else 0.0))
            for j in range(w.l) for k in range(w.l)]


def loop_column_structure(ctx, w, rng, tol):
    l = ctx.l
    residuals = []
    for i in range(l):
        for j in range(l):
            M = toeplitz(PGElement.basis(l, i, j), w, ctx).matrix
            Mon = toeplitz_orthonormal(PGElement.basis(l, i, j), w, ctx).matrix
            for a in range(l):
                col = M[:, a].copy()
                ocol = Mon[:, a].copy()
                if 0 <= i + a < l and 0 <= i + a - j < l:
                    expect = w.w[i + a] / w.w[i + a - j]
                    residuals.append(abs(col[i + a - j] - expect))
                    col[i + a - j] = 0
                    oexpect = w.w[a + i] / np.sqrt(w.w[a] * w.w[a + i - j])
                    residuals.append(abs(ocol[i + a - j] - oexpect))
                    ocol[i + a - j] = 0
                residuals += [max_abs(col), max_abs(ocol)]
    return residuals


def loop_anti_wick_factorization(ctx, w, rng, tol):
    l = ctx.l
    lad = ladder_set(w, ctx)
    return [max_abs(toeplitz(PGElement.basis(l, i, j), w, ctx).matrix
                    - np.linalg.matrix_power(lad.annihilation.matrix, j)
                    @ np.linalg.matrix_power(lad.creation.matrix, i))
            for i in range(l) for j in range(l)]


def loop_operator_basis_rank(ctx, w, rng, tol):
    l = ctx.l
    lad = ladder_set(w, ctx)
    if span_rank(np.linalg.matrix_power(lad.annihilation.matrix, j)
                 @ np.linalg.matrix_power(lad.creation.matrix, i)
                 for i in range(l) for j in range(l)) != l * l:
        raise CheckFailure()
    return []


def loop_diagonal_symbols(ctx, w, rng, tol):
    l = ctx.l
    residuals = []
    for i in range(l):
        M = toeplitz(PGElement.basis(l, i, i), w, ctx).matrix
        residuals.append(max_abs(M - np.diag(np.diag(M))))
        diag = np.real(np.diag(M))
        residuals += [abs(diag[a] - (w.w[i + a] / w.w[a] if i + a < l else 0.0))
                      for a in range(l)]
        if matrix_rank(M) != l - i:
            raise CheckFailure()
    return residuals


# --- two checks that draw nothing, against their earlier bodies ----------------
# Each computes every ladder power it reads with its own matrix_power call.
# norm_bound returns a Noted list, which compares equal whatever its note, so
# these are pinned by their records too.

def loop_ladder_facts(ctx, w, rng, tol):
    l = ctx.l
    lad = ladder_set(w, ctx)
    for name, op in (("creation", lad.creation.matrix), ("annihilation", lad.annihilation.matrix)):
        if not max_abs(np.linalg.matrix_power(op, l)) <= tol:
            raise CheckFailure(f"{name} power l not zero")
        if not max_abs(np.linalg.matrix_power(op, l - 1)) > tol:
            raise CheckFailure(f"{name} power l-1 vanished")
        if matrix_rank(op) != l - 1:
            raise CheckFailure(f"{name} kernel not one-dimensional")
    return [max_abs(lad.creation.matrix[:, l - 1]),
            max_abs(lad.annihilation.matrix[:, 0]),
            max_abs(lad.number.matrix - lad.creation.matrix @ lad.annihilation.matrix)]


def loop_norm_bound(ctx, w, rng, tol):
    l = ctx.l
    T_eta = toeplitz(PGElement.basis(l, 1, 0), w, ctx)
    norm2 = operator_norm_bh(T_eta, w) ** 2
    bound = max(w.w[a + 1] / w.w[a] for a in range(l - 1))
    if not norm2 >= bound - tol * max(1.0, bound):
        return [bound - norm2]
    return verify_mod.Noted([0.0], f"observed norm^2 - bound = {norm2 - bound:.3e}")


BASIS_FAMILY_LOOPS = ("gram_properties", "orthonormal_basis", "column_structure",
                      "anti_wick_factorization", "operator_basis_rank", "diagonal_symbols")
# the checks pinned by their records rather than by their residual lists
RECORD_LOOPS = BASIS_FAMILY_LOOPS + ("ladder_facts", "norm_bound")
LOOPS = {name[len("loop_"):]: fn for name, fn in globals().items() if name.startswith("loop_")}


def outcome(fn, ctx, w, seed):
    """What a check returns, or the failure it raises."""
    try:
        return call(fn, ctx, w, np.random.default_rng(seed), verify_mod.DEFAULT_TOL)
    except CheckFailure as found:
        return ("raised", found.note, found.expected)


def test_every_batched_check_has_its_loop():
    assert set(LOOPS) == set(verify_mod.CHECK_NAMES) and len(LOOPS) == 27
    assert set(RECORD_LOOPS) <= set(LOOPS)


@pytest.mark.cpu_path
@pytest.mark.parametrize("l", [2, 4, 6])
@pytest.mark.parametrize("name", sorted(set(LOOPS) - set(RECORD_LOOPS)))
def test_batched_check_returns_the_residuals_of_its_loop(name, l):
    """Exactly, at every grid q and for two weight families."""
    check = dict(verify_mod.CHECKS)[name]
    for q_id, q in verify_mod.GRID_QS:
        ctx = verify_mod.AlgebraCtx(l, q)
        for w_id in ("rand2", "factorial"):
            w = verify_mod.grid_weights(w_id, l)
            seed = [7, l, sum(map(ord, q_id)), len(w_id)]
            got = outcome(check, ctx, w, seed)
            assert got == outcome(LOOPS[name], ctx, w, seed), (q_id, w_id)


@pytest.mark.cpu_path
@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", RECORD_LOOPS)
def test_basis_family_check_keeps_the_record_of_its_loop(monkeypatch, name, l):
    """The largest residual bit for bit, the status and the note, or the
    failure raised, at every grid q and for three weight families."""
    def records():
        out = []
        for q_id, q in verify_mod.GRID_QS:
            for w_id in ("ones", "rand2", "factorial"):
                w = verify_mod.grid_weights(w_id, l)
                [r] = verify_mod.run_point(l, q_id, q, w_id, w, checks=(name,))
                out.append((q_id, w_id, r.residual.hex(), r.status, r.note))
        return out

    batched = records()
    with_check(monkeypatch, name, LOOPS[name])
    assert batched == records()

