"""Grid verification sweeps for every stated operator identity.

A check is a plain function run at one grid point (l, q, weight choice).  It
takes exactly the arguments it reads, an ordered subset of (ctx, w, rng, tol):
the algebra context, the weights, a generator seeded for the check and the
point, and the tolerance.  So check_gram_properties(w) reads neither q nor a
generator, and check_associativity(ctx, rng) no weights.

Every check keeps one contract.  It draws each set of its samples with one
samples(rng, lead, *shapes) call and unpacks the stacks, masking a holomorphic
one in place, so its samples and residuals are those of a loop that drew one
sample at a time.  It fails only by returning residuals at or above tol, or by
raising CheckFailure with a note that names what it found (a rank and the one
expected, a sign, a nilpotency, a missing violation): it returns no residual
it did not measure.  Only expected=True, the conjugation violation the star
criterion witnesses at non-real q, is raised without a note.

run_point alone decides the record, with each check under
np.errstate(all="ignore"): the residual is the largest measured (0 if none;
inf if any is NaN or infinite) and passes below the tolerance.  A raised
failure is a "fail" with residual 1.0 and its note, an expected one an
EXPECTED_FAIL with residual 0; an SVD of a matrix holding inf or NaN, or a
magnitude beyond the float range, is a "fail" with residual inf.  Only a
check that takes rng gets a generator.  A check that takes none is a function
of its arguments, so its record is computed once per distinct check function,
argument values and tolerance in a process, and served again at every point
that repeats them: the weight-only checks at each q, the q-only checks at each
weight choice.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import AlgebraCtx, PGElement, conjugate_stack, multiply_stack
from .forms import WeightSeq, adjoint_wrt_form, form_stack, gram_matrix, preset_weights
from .quantization import (ORTHONORMAL, coherent_quantization_stack, convert_basis_stack,
                           ladder_set, matrix_rank, mult_operator_stack, operator_norm_bh,
                           pk_operator, project_pk, project_pk_stack, span_rank, toeplitz,
                           toeplitz_adjoint_stack, toeplitz_flat_stack, toeplitz_stack)

GRID_LS = (2, 3, 4, 5, 6)
GRID_QS = (
    ("1", 1.0 + 0.0j),
    ("-1", -1.0 + 0.0j),
    ("0.5", 0.5 + 0.0j),
    ("2", 2.0 + 0.0j),
    ("exp(i*pi/3)", np.exp(1j * np.pi / 3.0)),
)
GRID_WEIGHT_IDS = ("ones", "factorial", "rand1", "rand2", "rand3")

DEFAULT_TOL = 1e-9
EXPECTED_FAIL = "expected-fail (q not real)"


# the weights of a grid weight id at order l: every id is a weight preset
grid_weights = preset_weights


def grid_point_weights(l: int, q: complex) -> list:
    """The (weight id, weights) pairs of the default grid at order l."""
    return [(w_id, preset_weights(w_id, l)) for w_id in GRID_WEIGHT_IDS]


# the coefficients a holomorphic sample zeroes (every thb power), and those an
# anti-holomorphic one zeroes (every th power), in a table or a stack of them
_THB_POWERS = (Ellipsis, slice(None), slice(1, None))
_TH_POWERS = (Ellipsis, slice(1, None), slice(None))


def samples(rng: np.random.Generator, lead: tuple, *shapes: tuple) -> list:
    """One complex (*lead, *shape) array per shape, from one standard_normal
    call.  Sample k of lead in C order is what the k-th turn of a loop draws
    that takes an array of each shape in turn, its real parts before its
    imaginary ones.  Each array is assigned its two halves, without the
    complex temporary of 1j * im (whose exact zeros the sum would add)."""
    sizes = [2 * math.prod(shape) for shape in shapes]
    z = rng.standard_normal((*lead, sum(sizes)))
    out = []
    for part, shape in zip(np.split(z, list(itertools.accumulate(sizes[:-1])), axis=-1),
                           shapes):
        re, im = np.moveaxis(part.reshape(*lead, 2, *shape), len(lead), 0)
        sample = np.empty(re.shape, dtype=complex)
        sample.real, sample.imag = re, im
        out.append(sample)
    return out


def random_element(rng: np.random.Generator, l: int) -> PGElement:
    return PGElement(l, samples(rng, (), (l, l))[0])


def _max_abs(x) -> float:
    """The residual of an identity: the largest entry magnitude of x."""
    return float(np.max(np.abs(x)))


def _max_abs_each(x: np.ndarray) -> list:
    """The residual of each identity of a stack: _max_abs of every x[k]."""
    return np.abs(x).reshape(len(x), -1).max(axis=1).tolist()


def _abs_each(z: np.ndarray) -> list:
    """abs of each complex number in z, taken by Python: numpy's complex
    magnitude can differ from it in the last bit."""
    return [abs(x) for x in z.tolist()]


def _relative(residuals, scales) -> list:
    """Each residual divided by its scale, or by 1 for a scale below 1."""
    return [r / max(1.0, s) for r, s in zip(residuals, scales)]


def _interleave(*lists) -> list:
    """[a0, b0, a1, b1, ...]: the order in which a per-sample loop appends."""
    return [x for group in zip(*lists) for x in group]


def _vec_bh(x: np.ndarray, l: int) -> np.ndarray:
    """Embed holomorphic coordinates (positions a*l of th^a) into the full
    l^2 coefficient vector; x may be a stack of coordinate vectors."""
    out = np.zeros(x.shape[:-1] + (l * l,), dtype=complex)
    out[..., ::l] = x
    return out


class CheckFailure(Exception):
    """A check's finding that is not a residual.  expected=True marks the
    violation the check exists to witness."""

    def __init__(self, note: str = "", expected: bool = False):
        super().__init__(note)
        self.note, self.expected = note, expected


class Noted(list):
    """Residuals that carry a note for their record."""

    def __init__(self, residuals, note: str):
        super().__init__(residuals)
        self.note = note


@dataclass(frozen=True)
class CheckResult:
    check: str
    l: int
    q_id: str
    w_id: str
    residual: float
    status: str  # "pass" | "fail" | EXPECTED_FAIL
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


# --- algebra ---------------------------------------------------------------

def _rewrite_words(word, ctx):
    """Brute-force normal ordering oracle: apply single two-letter rewrites
    until the word is sorted, tracking the scalar."""
    coeff = 1.0 + 0.0j
    word = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] == alg.THETA_BAR and word[k + 1] == alg.THETA:
                word[k], word[k + 1] = word[k + 1], word[k]
                coeff /= ctx.q
                changed = True
                break
    a = word.count(alg.THETA)
    b = word.count(alg.THETA_BAR)
    if a >= ctx.l or b >= ctx.l:
        return PGElement.zero(ctx.l)
    return PGElement.basis(ctx.l, a, b, coeff)


def check_normal_order_oracle(ctx):
    words = [word for length in range(7)
             for word in itertools.product((alg.THETA, alg.THETA_BAR), repeat=length)]
    lhs = np.stack([alg.normal_order(word, ctx).coeffs for word in words])
    rhs = np.stack([_rewrite_words(word, ctx).coeffs for word in words])
    return _max_abs_each(lhs - rhs)


def check_associativity(ctx, rng):
    # ten samples of (f, g, h)
    f, g, h = samples(rng, (10,), (ctx.l, ctx.l), (ctx.l, ctx.l), (ctx.l, ctx.l))
    lhs = multiply_stack(multiply_stack(f, g, ctx), h, ctx)
    rhs = multiply_stack(f, multiply_stack(g, h, ctx), ctx)
    return _relative(_max_abs_each(lhs - rhs), _max_abs_each(rhs))


def check_defining_relation(ctx):
    l = ctx.l
    # th at position 1*l+0 and thb at 0*l+1: the products th thb and thb th
    th_thb, thb_th = multiply_stack(alg.monomials(l, [l, 1]), alg.monomials(l, [1, l]), ctx)
    return [_max_abs(th_thb - thb_th * ctx.q)]


def check_star_criterion(ctx, rng, tol):
    """Product rule for the conjugation: holds iff q is real; for complex q
    the pair (thb, th) must violate it."""
    thb = PGElement.basis(ctx.l, 0, 1)
    th = PGElement.basis(ctx.l, 1, 0)
    witness = alg.conjugate(alg.multiply(thb, th, ctx)) - alg.multiply(
        alg.conjugate(th), alg.conjugate(thb), ctx)
    witness_res = _max_abs(witness.coeffs)
    if ctx.q.imag != 0:
        # complex q: the violation itself is the expected outcome
        if witness_res > tol:
            raise CheckFailure(expected=True)
        raise CheckFailure(f"no violation at non-real q: witness residual {witness_res:.3e}")
    f, g = samples(rng, (10,), (ctx.l, ctx.l), (ctx.l, ctx.l))
    prod = multiply_stack(f, g, ctx)
    res = conjugate_stack(prod) - multiply_stack(conjugate_stack(g), conjugate_stack(f), ctx)
    return [witness_res] + _relative(_max_abs_each(res), _max_abs_each(prod))


def check_holomorphic_conjugation(ctx, rng):
    f, g = samples(rng, (10,), (ctx.l, ctx.l), (ctx.l, ctx.l))
    f[_THB_POWERS] = g[_THB_POWERS] = 0
    res = conjugate_stack(multiply_stack(f, g, ctx)) - multiply_stack(
        conjugate_stack(f), conjugate_stack(g), ctx)
    return _max_abs_each(res)


def _random_expr(rng, depth=0):
    kinds = ["const", "q", "th", "thb"]
    if depth < 2:
        kinds += ["sum", "prod", "pow", "neg"]
    # the draw of rng.choice(kinds), without its per-call overhead
    kind = kinds[rng.integers(len(kinds))]
    if kind == "const":
        return alg.Const(complex(rng.standard_normal(), rng.standard_normal()))
    if kind == "q":
        return alg.QSym()
    if kind == "th":
        return alg.Gen(alg.THETA)
    if kind == "thb":
        return alg.Gen(alg.THETA_BAR)
    if kind == "sum":
        return alg.Sum(tuple(_random_expr(rng, depth + 1) for _ in range(2)))
    if kind == "prod":
        return alg.Prod(tuple(_random_expr(rng, depth + 1) for _ in range(2)))
    if kind == "pow":
        return alg.Pow(_random_expr(rng, depth + 1), int(rng.integers(0, 4)))
    return alg.Neg(_random_expr(rng, depth + 1))


def check_free_expr_linearity(ctx, rng):
    residuals = []
    for _ in range(10):
        e1, e2 = _random_expr(rng), _random_expr(rng)
        a, b = (complex(*pair) for pair in rng.standard_normal((2, 2)))
        combined = alg.Sum((alg.Prod((alg.Const(a), e1)), alg.Prod((alg.Const(b), e2))))
        lhs, t1, t2 = (alg.from_free_expr(e, ctx).coeffs for e in (combined, e1, e2))
        # a scalar times an element multiplies its table on the right
        residuals.append(_max_abs(lhs - (t1 * a + t2 * b)))
    return residuals


# --- forms -----------------------------------------------------------------

def check_form_mode_agreement(w, rng):
    f, g = samples(rng, (200,), (w.l, w.l), (w.l, w.l))
    return _abs_each(form_stack(f, g, w, "closed") - form_stack(f, g, w, "definitional"))


def check_gram_properties(w):
    G = gram_matrix(w)
    if (rank := matrix_rank(G)) != w.l * w.l:
        raise CheckFailure(f"rank {rank}, expected {w.l * w.l}")
    # the form on the holomorphic monomials: rows and columns a*l of th^a
    if not np.all(np.linalg.eigvalsh(G[::w.l, ::w.l]) > 0):
        raise CheckFailure("holomorphic block not positive definite")
    return [_max_abs(G - G.T)]


def check_adjoint_wrt_form(w, rng):
    l = w.l
    [A] = samples(rng, (), (l * l, l * l))
    Astar = adjoint_wrt_form(A, w)
    f, g = samples(rng, (100,), (l, l), (l, l))
    # one matrix-vector product per sample, as for a single coefficient vector
    Af = np.matmul(A, f.reshape(-1, l * l, 1)).reshape(-1, l, l)
    Astar_g = np.matmul(Astar, g.reshape(-1, l * l, 1)).reshape(-1, l, l)
    lhs = form_stack(Af, g, w)
    rhs = form_stack(f, Astar_g, w)
    residuals = _relative(_abs_each(lhs - rhs), _abs_each(lhs))
    residuals.append(_max_abs(adjoint_wrt_form(Astar, w) - A) / max(1.0, _max_abs(A)))
    return residuals


def check_orthonormal_basis(w):
    l = w.l
    # phi_j = w_j^{-1/2} th^j, and every pair (phi_j, phi_k), (j, k) row-major
    phi = alg.monomials(l, range(0, l * l, l)) / np.sqrt(w.arr())[:, None, None]
    pairs = form_stack(np.repeat(phi, l, axis=0), np.tile(phi, (l, 1, 1)), w)
    return _abs_each(pairs - np.eye(l).ravel())


# --- quantization ----------------------------------------------------------

def check_pk_projection(w, rng):
    l = w.l
    P = pk_operator(w)
    residuals = [_max_abs(P @ P - P), _max_abs(adjoint_wrt_form(P, w) - P)]
    if (rank := matrix_rank(P)) != l:
        raise CheckFailure(f"rank {rank}, expected {l}")
    # ten samples of (F, h), h holomorphic: mode agreement on random input,
    # and the identity on the holomorphic subspace
    F, h = samples(rng, (10,), (l, l), (l, l))
    h[_THB_POWERS] = 0
    return residuals + _interleave(
        _max_abs_each(project_pk_stack(F, w, "closed") - project_pk_stack(F, w, "kernel")),
        _max_abs_each(project_pk_stack(h, w) - h))


def check_toeplitz_dual_path(w, rng):
    # every basis symbol, then 50 random ones
    [g] = samples(rng, (50,), (w.l, w.l))
    symbols = np.concatenate([alg.monomials(w.l, range(w.l ** 2)), g])
    return _max_abs_each(toeplitz_stack(symbols, w, "closed")
                         - toeplitz_stack(symbols, w, "projection"))


def check_compression_identity(ctx, w, rng):
    l = ctx.l
    # 20 samples of a symbol g and the holomorphic coordinates f1, f2
    g, f1, f2 = samples(rng, (20,), (l, l), (l,), (l,))
    # one matrix-vector product per sample, as for a single sample; the l^4
    # entries of each multiplication operator are built a block at a time
    Tf2 = np.matmul(toeplitz_stack(g, w), f2[..., None])[..., 0]
    Mg_f2 = alg.in_blocks(lambda g, f: np.matmul(mult_operator_stack(g, "right", ctx),
                                                 f[..., None])[..., 0], l ** 4, g, _vec_bh(f2, l))
    e1 = _vec_bh(f1, l).reshape(-1, l, l)
    lhs = form_stack(e1, _vec_bh(Tf2, l).reshape(-1, l, l), w)
    rhs = form_stack(e1, Mg_f2.reshape(-1, l, l), w)
    return _relative(_abs_each(lhs - rhs), _abs_each(rhs))


def check_toeplitz_iso_rank(w):
    if (rank := span_rank(toeplitz_stack(alg.monomials(w.l, range(w.l ** 2)), w))) != w.l ** 2:
        raise CheckFailure(f"span rank {rank}, expected {w.l ** 2}")
    return []


def check_column_structure(w):
    l = w.l
    M = toeplitz_stack(alg.monomials(l, range(l * l)), w)
    Mon = convert_basis_stack(M, w, ORTHONORMAL)
    # the column formula, entry by entry: T(th^i thb^j) holds w_{i+a}/w_{i+a-j}
    # at row i+a-j of column a, and nothing else
    expect, oexpect = np.zeros_like(M), np.zeros_like(M)
    for i, j, a in itertools.product(range(l), repeat=3):
        if i + a < l and i + a - j >= 0:
            expect[i * l + j, i + a - j, a] = w.w[i + a] / w.w[i + a - j]
            oexpect[i * l + j, i + a - j, a] = w.w[a + i] / np.sqrt(w.w[a] * w.w[a + i - j])
    return _max_abs_each(M - expect) + _max_abs_each(Mon - oexpect)


def check_adjoint_symbol_rule(w, rng, tol):
    l = w.l
    [g] = samples(rng, (50,), (l, l))
    lhs = toeplitz_adjoint_stack(toeplitz_stack(g, w), w)
    residuals = _max_abs_each(lhs - toeplitz_stack(conjugate_stack(g), w))
    # corollary witnesses: a self-adjoint symbol gives a self-adjoint operator,
    # a non-self-adjoint symbol does not
    th, thb, th_thb = alg.monomials(l, [l, 1, l + 1])
    T = toeplitz_stack(np.array([th + thb + th_thb, th]), w)
    T_star = toeplitz_adjoint_stack(T, w)
    residuals.append(_max_abs(T_star[0] - T[0]))
    if np.allclose(T_star[1], T[1], atol=tol):
        raise CheckFailure("T(th) came out self-adjoint")
    return residuals


def check_multiplicativity(ctx, w, rng):
    l = ctx.l
    # 50 samples of (g1, g2, h1, h2), the g holomorphic and the h not; the
    # pairs (g1, g2) and (h1, h2) of each sample are a[k], b[k] in that order
    [draws] = samples(rng, (50, 4), (l, l))
    draws[:, :2][_THB_POWERS] = 0
    draws[:, 2:][_TH_POWERS] = 0
    a, b = draws[:, 0::2].reshape(-1, l, l), draws[:, 1::2].reshape(-1, l, l)
    Ta, Tb = toeplitz_stack(a, w), toeplitz_stack(b, w)
    Tab = toeplitz_stack(multiply_stack(a, b, ctx), w)
    scales = _max_abs_each(Tab)
    return _interleave(_relative(_max_abs_each(Ta @ Tb - Tab), scales),
                       _relative(_max_abs_each(Tb @ Ta - Tab), scales))


def _anti_wick_words(w) -> np.ndarray:
    """Every annihilation^j creation^i, at the monomial position i*l+j."""
    C, A = ladder_set(w, AlgebraCtx(w.l)).powers()
    return (A[None, :w.l] @ C[:w.l, None]).reshape(-1, w.l, w.l)


def check_anti_wick_factorization(w):
    return _max_abs_each(toeplitz_stack(alg.monomials(w.l, range(w.l ** 2)), w)
                         - _anti_wick_words(w))


def check_operator_basis_rank(w):
    if (rank := span_rank(_anti_wick_words(w))) != w.l * w.l:
        raise CheckFailure(f"span rank {rank}, expected {w.l * w.l}")
    return []


def check_quantization_equivalences(w, rng):
    l = w.l
    [g] = samples(rng, (50,), (l, l))
    # the z map of a symbol is its transposed table
    A = coherent_quantization_stack(np.swapaxes(g, 1, 2), w)
    residuals = _interleave(
        _max_abs_each(A - convert_basis_stack(toeplitz_stack(g, w), w, ORTHONORMAL)),
        _max_abs_each(toeplitz_flat_stack(g, w) - coherent_quantization_stack(g, w)))
    [g] = samples(rng, (10,), (l, l))
    residuals += _max_abs_each(coherent_quantization_stack(g, w, "closed")
                               - coherent_quantization_stack(g, w, "berezin"))
    basis_images = coherent_quantization_stack(alg.monomials(l, range(l * l)), w)
    if (rank := span_rank(basis_images)) != l * l:
        raise CheckFailure(f"coherent span rank {rank}, expected {l * l}")
    return residuals


def check_mixed_products(ctx, w):
    l = ctx.l
    # the reversed word normal-orders to q^{-1} th thb, so q * T of it matches
    reversed_symbol = alg.normal_order((alg.THETA_BAR, alg.THETA), ctx).coeffs
    T_eta, T_etabar, T_mixed, T_reversed = toeplitz_stack(
        np.concatenate([alg.monomials(l, [l, 1, l + 1]), reversed_symbol[None]]), w)
    return [_max_abs(T_mixed - T_etabar @ T_eta), _max_abs(ctx.q * T_reversed - T_mixed)]


def check_q_commute_compression(ctx, w):
    l = ctx.l
    symbols = alg.monomials(l, [l, 1])  # th, thb
    M_th, M_thb = M = mult_operator_stack(symbols, "right", ctx)
    T_th, T_thb = toeplitz_stack(symbols, w)
    # the holomorphic block: rows and columns a*l of th^a
    comp_th, comp_thb = (pk_operator(w) @ M)[:, ::l, ::l]
    return [_max_abs(M_thb @ M_th - ctx.q * M_th @ M_thb),
            _max_abs(comp_thb - T_thb), _max_abs(comp_th - T_th)]


def check_number_operator(w, rng, tol):
    l = w.l
    lad = ladder_set(w, AlgebraCtx(l))
    N = lad.number.matrix
    diag = np.real(np.diag(N))
    residuals = [_max_abs(N - np.diag(np.diag(N))),
                 _max_abs(np.sort(diag) - np.sort(lad.deformed_ints))]
    if np.any(diag < -tol):
        raise CheckFailure(f"eigenvalue {diag.min():.3e} below -tol")
    [f] = samples(rng, (20,), (l, 1))  # 20 column vectors
    D = w.arr()[:, None]
    lhs = np.swapaxes(np.conj(f), 1, 2) @ (D * (N @ f))
    af = lad.annihilation.matrix @ f
    rhs = np.swapaxes(np.conj(af), 1, 2) @ (D * af)
    return residuals + _relative(_abs_each((lhs - rhs).ravel()), _abs_each(rhs.ravel()))


def check_diagonal_symbols(w):
    l = w.l
    M = toeplitz_stack(alg.monomials(l, range(0, l * l, l + 1)), w)  # every T(th^i thb^i)
    diag = np.real(np.diagonal(M, axis1=1, axis2=2))
    expect = [[w.w[i + a] / w.w[a] if i + a < l else 0.0 for a in range(l)] for i in range(l)]
    for i, m in enumerate(M):
        if (rank := matrix_rank(m)) != l - i:
            raise CheckFailure(f"T(th^{i} thb^{i}) rank {rank}, expected {l - i}")
    return _max_abs_each(M * (1 - np.eye(l))) + np.abs(diag - expect).ravel().tolist()


def check_ladder_facts(w, tol):
    l = w.l
    lad = ladder_set(w, AlgebraCtx(l))
    for name, powers in zip(("creation", "annihilation"), lad.powers()):
        if not _max_abs(powers[l]) <= tol:
            raise CheckFailure(f"{name} power l not zero")
        if not _max_abs(powers[l - 1]) > tol:
            raise CheckFailure(f"{name} power l-1 vanished")
        if matrix_rank(powers[1]) != l - 1:
            raise CheckFailure(f"{name} kernel not one-dimensional")
    return [_max_abs(lad.creation.matrix[:, l - 1]),  # ker T_eta = span th^{l-1}
            _max_abs(lad.annihilation.matrix[:, 0]),  # ker = span 1
            _max_abs(lad.number.matrix - lad.creation.matrix @ lad.annihilation.matrix)]


def check_norm_bound(w, tol):
    l = w.l
    T_eta = toeplitz(PGElement.basis(l, 1, 0), w, AlgebraCtx(l))
    norm2 = operator_norm_bh(T_eta, w) ** 2
    bound = max(w.w[a + 1] / w.w[a] for a in range(l - 1))
    if not norm2 >= bound - tol * max(1.0, bound):
        return [bound - norm2]
    return Noted([0.0], f"observed norm^2 - bound = {norm2 - bound:.3e}")


def check_reproducing_truncation(ctx, w, rng):
    l = ctx.l
    N = l + 3
    [coeffs] = samples(rng, (), (N + 1,))
    terms = tuple(alg.Prod((alg.Const(coeffs[j]), alg.Pow(alg.Gen(alg.THETA), j)))
                  for j in range(N + 1))
    image = alg.from_free_expr(alg.Sum(terms), ctx)
    # the sum of coeffs[j] th^j over j < l; th^j sits at j*l
    truncated = (alg.monomials(l, range(0, l * l, l)) * coeffs[:l, None, None]).sum(axis=0)
    return [_max_abs(project_pk(image, w).coeffs - truncated)]


CHECKS = tuple((fn.__name__.removeprefix("check_"), fn) for fn in (
    check_normal_order_oracle, check_associativity, check_defining_relation,
    check_star_criterion, check_holomorphic_conjugation, check_free_expr_linearity,
    check_form_mode_agreement, check_gram_properties, check_adjoint_wrt_form,
    check_orthonormal_basis, check_pk_projection, check_toeplitz_dual_path,
    check_compression_identity, check_toeplitz_iso_rank, check_column_structure,
    check_adjoint_symbol_rule, check_multiplicativity, check_anti_wick_factorization,
    check_operator_basis_rank, check_quantization_equivalences, check_mixed_products,
    check_q_commute_compression, check_number_operator, check_diagonal_symbols,
    check_ladder_facts, check_norm_bound, check_reproducing_truncation))

CHECK_NAMES = tuple(name for name, _ in CHECKS)


@functools.cache
def _params(fn) -> tuple:
    """The names of the arguments fn takes, in order.  inspect.signature
    follows a wrapper's __wrapped__ to the check it wraps."""
    return tuple(inspect.signature(fn).parameters)


def _outcome(fn, tol, /, **args) -> tuple:
    """The (residual, status, note) of the record of fn(**args)."""
    try:
        with np.errstate(all="ignore"):
            measured = fn(**args)
    except CheckFailure as found:
        residual, note = (0.0, "") if found.expected else (1.0, found.note)
        status = EXPECTED_FAIL if found.expected else "fail"
    except (np.linalg.LinAlgError, OverflowError) as failed:
        # a measurement that is not finite
        residual, status, note = math.inf, "fail", str(failed)
    else:
        residuals = np.asarray(measured, dtype=float)
        residual = (float(residuals.max(initial=0.0)) if np.isfinite(residuals).all()
                    else math.inf)
        status = "pass" if residual < tol else "fail"
        note = getattr(measured, "note", "")
    return residual, status, note


# The outcome of a check that draws nothing, keyed on the check function (not
# its name, which a swapped-in function shares), the argument values (contexts
# and weights compare by value) and tol.  A default sweep has 525 such outcomes.
_shared_outcome = functools.lru_cache(maxsize=1024)(_outcome)


def run_point(l: int, q_id: str, q: complex, w_id: str, w: WeightSeq,
              seed: int = 0, tol: float = DEFAULT_TOL,
              checks=None) -> list[CheckResult]:
    """One record per selected check at one grid point, in CHECKS order."""
    selected = CHECK_NAMES if checks is None else tuple(checks)
    if isinstance(checks, str) or not set(selected) <= set(CHECK_NAMES):
        raise ValueError(f"checks must be a collection of names from CHECK_NAMES, "
                         f"got {checks!r}")
    given = {"ctx": AlgebraCtx(l, q), "w": w, "tol": tol}
    results = []
    w_key = GRID_WEIGHT_IDS.index(w_id) if w_id in GRID_WEIGHT_IDS else 99
    q_key = sum(ord(c) for c in q_id)  # stable across processes
    for idx, (name, fn) in enumerate(CHECKS):
        if name not in selected:
            continue
        params = _params(fn)
        if "rng" in params:
            given["rng"] = np.random.default_rng([seed, idx, l, w_key, q_key])
            outcome = _outcome
        else:
            outcome = _shared_outcome
        residual, status, note = outcome(fn, tol, **{p: given[p] for p in params})
        results.append(CheckResult(name, l, q_id, w_id, residual, status, note))
    return results


def run_grid(ls=GRID_LS, qs=GRID_QS, weights=grid_point_weights,
             seed: int = 0, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Every check at every (l, q, weights) point, sorted by check, l, q id and
    weight id.  weights(l, q) gives the (weight id, WeightSeq) pairs of (l, q)."""
    results = []
    for l in ls:
        for q_id, q in qs:
            for w_id, w in weights(l, q):
                results.extend(run_point(l, q_id, q, w_id, w, seed=seed, tol=tol))
    results.sort(key=lambda r: (r.check, r.l, r.q_id, r.w_id))
    return results
