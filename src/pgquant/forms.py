"""The weighted sesquilinear form, its Gram matrix, and form-adjoints.

The form is anti-linear in the first argument and linear in the second.  On
the full algebra it is indefinite but nondegenerate; restricted to the span of
the holomorphic monomials it is the positive definite inner product
<th^j, th^k> = delta_{jk} w_j.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import PGElement, frozen, gather, in_blocks, index_tuples, same_order

WEIGHT_PRESETS = ("ones", "factorial", "qfactorial", "rand1", "rand2", "rand3")
# the seed of each U(0.25, 4) preset; its weights at order l are the first l
# draws of default_rng([seed, l])
_RAND_WEIGHT_SEEDS = {"rand1": 1731, "rand2": 2742, "rand3": 3753}


@dataclass(frozen=True)
class WeightSeq:
    """Strictly positive weights w_0..w_{l-1}."""

    l: int
    w: tuple

    def __post_init__(self):
        if len(self.w) != self.l:
            raise ValueError(f"expected {self.l} weights, got {len(self.w)}")
        w = tuple(float(x) for x in self.w)
        if not all(0 < x < math.inf for x in w):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "w", w)

    def arr(self) -> np.ndarray:
        return np.array(self.w)


def preset_weights(name: str, l: int, q: complex = 1.0) -> WeightSeq:
    """The weights of a WEIGHT_PRESETS name at order l: every command reads
    its --weights names here, and the verification grid its weight ids."""
    if name == "ones":
        return WeightSeq(l, (1.0,) * l)
    if name == "factorial":
        return WeightSeq(l, tuple(float(math.factorial(n)) for n in range(l)))
    if name == "qfactorial":
        q = complex(q)
        if q.imag != 0:
            raise ValueError("qfactorial weights require a real q")
        qr = q.real
        if qr == 1.0:
            raise ValueError("qfactorial weights are undefined at q = 1")
        w = [1.0]
        for n in range(1, l):
            factor = (1.0 - qr ** n) / (1.0 - qr)
            if factor <= 0:
                raise ValueError(
                    f"qfactorial weights need every factor positive; factor {n} is {factor}"
                )
            w.append(w[-1] * factor)
        return WeightSeq(l, tuple(w))
    if name in _RAND_WEIGHT_SEEDS:
        rng = np.random.default_rng([_RAND_WEIGHT_SEEDS[name], l])
        return WeightSeq(l, tuple(rng.uniform(0.25, 4.0, l)))
    raise ValueError(f"unknown weight preset {name!r}")


@functools.lru_cache(maxsize=None)
def _gram_support(l: int):
    """Index table of the nonzero Gram entries at order l.

    Lists every (a, b, c, d) with a+d = b+c and a+d < l, in lexicographic
    order, as three flat index arrays: the row a*l+b, the column c*l+d and the
    weight index a+d.
    """
    a, b, c, d = index_tuples(l, 4, lambda a, b, c, d: (a + d == b + c) & (a + d < l))
    return frozen(a * l + b, c * l + d, a + d)


# one entry: callers reuse a weight sequence's matrix only while they work with
# those weights, and more entries would only hold memory; shared, so read-only
@functools.lru_cache(maxsize=1)
def gram_matrix(w: WeightSeq) -> np.ndarray:
    """l^2 x l^2 matrix of the form over the monomial basis (row-major order).

    Entry ((a,b),(c,d)) is w_{a+d} when a+d = b+c and a+d < l, else 0.  Real,
    symmetric, and invertible for every admissible weight sequence.
    """
    l = w.l
    rows, cols, k = _gram_support(l)
    G = np.zeros((l * l, l * l))
    G[rows, cols] = w.arr()[k]
    G.flags.writeable = False
    return G


def _charge_hankels(w: WeightSeq):
    """Two l x l arrays whose slices are the charge blocks and their inverses.

    H[i, j] = w_{i+j} for i+j < l, else 0: the block of charge s, n = l-|s|,
    is H[:n, |s|:].  Reversing its rows gives a lower triangular Toeplitz
    matrix with diagonals w_{l-1}, w_{l-2}, ..., the same for every charge, so
    every block inverts by back-substitution on the pivot w_{l-1} > 0.  With u
    the power-series inverse of (w_{l-1}, ..., w_0), U[i, j] = u_{i+j-(l-1)}
    for i+j >= l-1, else 0, and the inverse of the block of charge s is
    U[|s|:, :n].
    """
    l = w.l
    t = w.arr()[::-1]
    u = [1.0 / t[0]]
    for m in range(1, l):
        u.append(-_fsum_row(t[1:m + 1] * u[::-1]) / t[0])
    k = np.add.outer(np.arange(l), np.arange(l))
    H = np.where(k < l, w.arr()[np.minimum(k, l - 1)], 0.0)
    U = np.where(k >= l - 1, np.array(u)[np.maximum(k - (l - 1), 0)], 0.0)
    return H, U


@functools.lru_cache(maxsize=None)
def _berezin_support(l: int):
    """Index table of the definitional form at order l.

    The Berezin integral of th^m (:f*::g:) thb^m reads the anti-Wick product
    at (k, k), k = l-1-m, which sums f*[a, b] g[k-a, k-b] over a, b <= k.
    Lists every (k, a, b) in that loop order (m increasing, then a, then b)
    as flat index arrays of the position of f*[a, b] in f (that is, b*l+a),
    the position of g[k-a, k-b] and the weight index k.
    """
    m, a, b = index_tuples(l, 3, lambda m, a, b: (a + m < l) & (b + m < l))
    k = l - 1 - m
    return frozen(b * l + a, (k - a) * l + (k - b), k)


# _fsum_rows sums an array of at least this many entries by whole-array
# operations, and a smaller one row by row, where one fsum call costs less
# than the dozen numpy calls of the vectorized path
_VECTOR_SUM_MIN = 768

# a row with max|x| * length above this may overflow the splitting sum
_SPLIT_MAX = 2.0 ** 1000


def _fsum_row(row: np.ndarray) -> float:
    """math.fsum of one row, or float addition where fsum overflows."""
    row = row.tolist()
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return sum(row)


def _fsum_rows(x: np.ndarray) -> list:
    """math.fsum of each row of the 2-d array x: the exactly rounded sum.  A
    row on which fsum overflows sums as float addition would: one that holds
    both infinities to NaN, one whose exact sum leaves the float range to
    inf, and so does one whose running sum does, as [1e308, 7e307, 7e307,
    -1e308], whose exact sum 1.4e308 is finite.

    A large array is summed as in ExtractVector (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
    2008).  With max|x| < 2^e on a row of m entries and sigma =
    2^(e + ceil(log2(m + 2))), the split hi = (sigma + x) - sigma,
    lo = x - hi is exact and so is tau = sum(hi), in any order of addition.
    r = fl(sum(lo)) lies within delta = 2 m 2^-53 sum|lo| of the exact sum of
    lo, and rounding is monotone, so where fl(tau + (r - delta)) and
    fl(tau + (r + delta)) agree, that value is the exactly rounded sum, bit
    for bit fsum's.  The other rows (the two differ, the sum is zero and
    fsum picks its sign, or a value is not finite or too large for the
    split) are summed by fsum.
    """
    if x.size < _VECTOR_SUM_MIN:
        return [_fsum_row(row) for row in x]
    m = x.shape[1]
    top = np.abs(x).max(axis=1)
    fits = top <= _SPLIT_MAX / m  # false for NaN too
    y = x
    if not fits.all():
        top = np.where(fits, top, 0.0)
        y = np.where(fits[:, None], x, 0.0)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + (m + 1).bit_length())[:, None]
    hi = (y + sigma) - sigma
    lo = y - hi
    tau = hi.sum(axis=1)
    r = lo.sum(axis=1)
    delta = np.abs(lo).sum(axis=1) * (m * 2.0 ** -52)
    below = tau + (r - delta)
    redo = (below != tau + (r + delta)) | (below == 0) | ~fits
    sums = below.tolist()
    for k in np.flatnonzero(redo).tolist():
        sums[k] = _fsum_row(x[k])
    return sums


def _closed_terms(F: np.ndarray, G: np.ndarray, w: WeightSeq):
    """Real and imaginary parts of the terms conj(F)[a, b] w_{a+d} G[c, d] of
    each row pair, one term per nonzero Gram entry."""
    rows, cols, k = _gram_support(w.l)
    # flat, so that the products below run as one-dimensional loops
    fw = (gather(np.conj(F), rows) * w.arr()[k][None]).ravel()
    gc = gather(G, cols).ravel()
    # the complex products are spelled out in real arithmetic so that each
    # partial product is rounded on its own, whether or not numpy's complex
    # loops fuse multiply-adds on the CPU at hand; exactly rounded
    # accumulation then keeps the two modes within product rounding of each
    # other even when weights span orders of magnitude
    re = fw.real * gc.real - fw.imag * gc.imag
    im = fw.real * gc.imag + fw.imag * gc.real
    return re.reshape(len(F), -1), im.reshape(len(F), -1)


def _definitional_terms(F: np.ndarray, G: np.ndarray, w: WeightSeq):
    """Real and imaginary parts of the terms of the weighted Berezin sum of
    each row pair, in the order of _berezin_support."""
    fpos, gpos, k = _berezin_support(w.l)
    # f* conjugates f's coefficients and swaps its two exponents
    f_at = gather(F, fpos).ravel()
    fr, fi = f_at.real, -f_at.imag
    g_at = gather(G, gpos).ravel()
    gr, gi = g_at.real, g_at.imag
    wt = w.arr()[k]
    # each term is w_k * (f*[a, b] * g[k-a, k-b]), spelled out in real
    # arithmetic as in the closed route
    return (wt * (fr * gr - fi * gi).reshape(len(F), -1),
            wt * (fr * gi + fi * gr).reshape(len(F), -1))


def form_stack(F: np.ndarray, G: np.ndarray, w: WeightSeq, mode: str = "closed") -> np.ndarray:
    """<F[k], G[k]>_w for two (n, l, l) stacks, as a complex length-n array."""
    if mode == "closed":
        terms, support = _closed_terms, _gram_support(w.l)
    elif mode == "definitional":
        terms, support = _definitional_terms, _berezin_support(w.l)
    else:
        raise ValueError(f"unknown form mode {mode!r}")

    def sums(F, G):
        re, im = terms(F, G, w)
        out = np.empty(len(F), dtype=complex)
        out.real, out.imag = _fsum_rows(re), _fsum_rows(im)
        return out
    return in_blocks(sums, len(support[0]), F, G)


def form(f: PGElement, g: PGElement, w: WeightSeq, mode: str = "closed") -> complex:
    """Evaluate <f, g>_w; anti-linear in f, linear in g.

    mode="closed" contracts coefficient vectors through the Gram matrix.
    mode="definitional" runs the weighted Berezin sum over the exponent-adding
    product of f's conjugate with g; the two routes must agree.
    """
    same_order(f, g, w)
    return complex(form_stack(f.coeffs[None], g.coeffs[None], w, mode)[0])


def adjoint_wrt_form(A: np.ndarray, w: WeightSeq) -> np.ndarray:
    """A* with <A f, g>_w = <f, A* g>_w over the full algebra: G^{-1} A^H G.

    Works charge block by charge block: G links flat position a*l+b only to
    positions of the same charge s = a-b, on which it is symmetric with the
    real block H[:l-|s|, |s|:] of _charge_hankels, so (A^H G)^T = G conj(A)
    and both products are row-block products with real blocks.  A real A
    gives a real A* (G is real), so the result keeps A's kind: float64 for a
    real A, complex128 for a complex one.
    """
    A = np.asarray(A)
    A = np.ascontiguousarray(A, dtype=np.result_type(A, float))
    l = w.l
    if A.shape != (l * l, l * l):
        raise ValueError(f"operator must be {l * l}x{l * l}")
    H, U = _charge_hankels(w)
    # the l-|s| positions of charge s, a increasing, are every (l+1)-th from
    # s*l (s >= 0) or from -s (s < 0); the stop is explicit because for
    # s <= -2 the progression runs on into charge s+l+1
    charges = []
    for s in range(1 - l, l):
        start, n = (s * l if s >= 0 else -s), l - abs(s)
        charges.append((slice(start, start + (n - 1) * (l + 1) + 1, l + 1), abs(s)))
    # viewed as float, a C-ordered complex array holds re and im side by side
    # in each row, so a real block times a block of rows is one real product;
    # a real array is its own view, with rows half as wide as a complex one's
    Y = np.conj(A)
    Yr = Y.view(np.float64)
    for rows, s in charges:
        Yr[rows] = H[:l - s, s:] @ Yr[rows]
    X = np.ascontiguousarray(Y.T)
    Xr = X.view(np.float64)
    for rows, s in charges:
        Xr[rows] = U[s:, :l - s] @ Xr[rows]
    return X


def orthonormal_phi(j: int, w: WeightSeq) -> PGElement:
    """The j-th orthonormal holomorphic basis element w_j^{-1/2} th^j."""
    if not 0 <= j < w.l:
        raise IndexError(f"index {j} outside 0..{w.l - 1}")
    return PGElement.basis(w.l, j, 0, 1.0 / math.sqrt(w.w[j]))
