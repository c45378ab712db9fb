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
from scipy.linalg import lu_factor, lu_solve

from .algebra import PGElement, aw_index

WEIGHT_PRESETS = ("ones", "factorial", "qfactorial")


@dataclass(frozen=True)
class WeightSeq:
    """Strictly positive weights w_0..w_{l-1}; out-of-range access reads as 0."""

    l: int
    w: tuple

    def __post_init__(self):
        if len(self.w) != self.l:
            raise ValueError(f"expected {self.l} weights, got {len(self.w)}")
        w = tuple(float(x) for x in self.w)
        if not all(0 < x < math.inf for x in w):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "w", w)

    @classmethod
    def from_values(cls, values) -> "WeightSeq":
        values = tuple(values)
        return cls(len(values), values)

    def at(self, n: int) -> float:
        """w_n, with the convention w_n = 0 outside 0 <= n < l."""
        if 0 <= n < self.l:
            return self.w[n]
        return 0.0

    def ratio(self, num: int, den: int) -> float:
        """w_num / w_den, defined as 0 when either index is out of range.

        Every use site multiplies by a cutoff that vanishes exactly when an
        index escapes the range, so the bad weight is never read.
        """
        if 0 <= num < self.l and 0 <= den < self.l:
            return self.w[num] / self.w[den]
        return 0.0

    def arr(self) -> np.ndarray:
        return np.array(self.w)


def preset_weights(name: str, l: int, q: complex = 1.0) -> WeightSeq:
    """Named weight families used by the CLI and the verification grid."""
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
    raise ValueError(f"unknown weight preset {name!r}")


@functools.lru_cache(maxsize=None)
def _gram_support(l: int):
    """Index table of the nonzero Gram entries at order l.

    Lists every (a, b, c, d) with a+d = b+c and a+d < l, in lexicographic
    order, as three flat index arrays: the row a*l+b, the column c*l+d and the
    weight index a+d.
    """
    a, b, c, d = np.ix_(*[np.arange(l)] * 4)
    a, b, c, d = np.nonzero((a + d == b + c) & (a + d < l))
    table = (aw_index(l, a, b), aw_index(l, c, d), a + d)
    for arr in table:
        arr.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _gram_lu(w: WeightSeq):
    return lu_factor(gram_matrix(w))


@functools.lru_cache(maxsize=None)
def _berezin_support(l: int):
    """Index table of the definitional form at order l.

    The Berezin integral of th^m (:f*::g:) thb^m reads the anti-Wick product
    at (k, k), k = l-1-m, which sums f*[a, b] g[k-a, k-b] over a, b <= k.
    Lists every (k, a, b) in that loop order (m increasing, then a, then b)
    as flat index arrays of the position of f*[a, b] in f (that is, b*l+a),
    the position of g[k-a, k-b] and the weight index k.
    """
    m, a, b = np.ix_(*[np.arange(l)] * 3)
    m, a, b = np.nonzero((a + m < l) & (b + m < l))
    k = l - 1 - m
    table = (b * l + a, (k - a) * l + (k - b), k)
    for arr in table:
        arr.flags.writeable = False
    return table


def form(f: PGElement, g: PGElement, w: WeightSeq, mode: str = "closed") -> complex:
    """Evaluate <f, g>_w; anti-linear in f, linear in g.

    mode="closed" contracts coefficient vectors through the Gram matrix.
    mode="definitional" runs the weighted Berezin sum over the exponent-adding
    product of f's conjugate with g; the two routes must agree.
    """
    if f.l != w.l or g.l != w.l:
        raise ValueError("order mismatch between elements and weights")
    if mode == "closed":
        rows, cols, k = _gram_support(w.l)
        fw = np.conj(f.coeffs).ravel()[rows] * w.arr()[k]
        gc = g.coeffs.ravel()[cols]
        # the complex products are spelled out in real arithmetic so that each
        # partial product is rounded on its own, whether or not numpy's
        # complex loops fuse multiply-adds on the CPU at hand; exactly rounded
        # accumulation then keeps the two modes within product rounding of
        # each other even when weights span orders of magnitude
        re = fw.real * gc.real - fw.imag * gc.imag
        im = fw.real * gc.imag + fw.imag * gc.real
        return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
    if mode == "definitional":
        fpos, gpos, k = _berezin_support(w.l)
        # f* conjugates f's coefficients and swaps its two exponents
        f_at = f.coeffs.ravel()[fpos]
        fr, fi = f_at.real, -f_at.imag
        g_at = g.coeffs.ravel()[gpos]
        gr, gi = g_at.real, g_at.imag
        wt = w.arr()[k]
        # each term is w_k * (f*[a, b] * g[k-a, k-b]), spelled out in real
        # arithmetic as in the closed route
        re = wt * (fr * gr - fi * gi)
        im = wt * (fr * gi + fi * gr)
        return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
    raise ValueError(f"unknown form mode {mode!r}")


def adjoint_wrt_form(A: np.ndarray, w: WeightSeq) -> np.ndarray:
    """A* with <A f, g>_w = <f, A* g>_w over the full algebra: G^{-1} A^H G."""
    A = np.asarray(A, dtype=complex)
    n = w.l * w.l
    if A.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}")
    return lu_solve(_gram_lu(w), np.conj(A.T) @ gram_matrix(w))


def orthonormal_phi(j: int, w: WeightSeq) -> PGElement:
    """The j-th orthonormal holomorphic basis element w_j^{-1/2} th^j."""
    if not 0 <= j < w.l:
        raise IndexError(f"index {j} outside 0..{w.l - 1}")
    return PGElement.basis(w.l, j, 0, 1.0 / math.sqrt(w.w[j]))
