"""Arithmetic in the quotient algebra with two q-commuting nilpotent generators.

Elements are stored densely as an l x l table of complex coefficients over the
normally-ordered monomial basis th^i * thb^j.  All operations are pure; tables
are frozen after construction and safe to share.
"""
from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

THETA = "th"
THETA_BAR = "thb"


@dataclass(frozen=True)
class AlgebraCtx:
    """Order l (nilpotency degree) and the nonzero deformation parameter q."""

    l: int
    q: complex = 1.0 + 0.0j

    def __post_init__(self):
        if int(self.l) != self.l or self.l < 2:
            raise ValueError("order l must be an integer >= 2")
        object.__setattr__(self, "l", int(self.l))
        q = complex(self.q)
        if not cmath.isfinite(q):
            raise ValueError("deformation parameter q must be finite")
        if q == 0:
            raise ValueError("deformation parameter q must be nonzero")
        object.__setattr__(self, "q", q)
        if not np.all(np.isfinite(self.qinv_powers)):
            raise ValueError(f"q^-k overflows for some k <= {(self.l - 1) ** 2}: "
                             f"|q| = {abs(q)} is too small for order l = {self.l}")

    def chi(self, k: int) -> int:
        """1 if k is a valid exponent index (0 <= k < l), else 0."""
        return 1 if 0 <= k < self.l else 0

    @functools.cached_property
    def qinv_powers(self) -> np.ndarray:
        """q^{-k} for k = 0..(l-1)^2, built by repeated multiplication so that
        negative and complex q stay on the expected branch."""
        top = (self.l - 1) * (self.l - 1)
        pows = np.ones(top + 1, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            pows[1:] = np.cumprod(np.full(top, 1.0 / self.q))
        pows.flags.writeable = False
        return pows


def aw_index(l: int, i: int, j: int) -> int:
    """Flat position of the basis monomial th^i*thb^j (row-major, i*l + j)."""
    return i * l + j


@dataclass(frozen=True, eq=False)
class PGElement:
    """Element of the algebra: coeffs[i, j] multiplies th^i * thb^j."""

    l: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.shape != (self.l, self.l):
            raise ValueError(f"coefficient table must be {self.l}x{self.l}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, l: int) -> "PGElement":
        return cls(l, np.zeros((l, l), dtype=complex))

    @classmethod
    def one(cls, l: int) -> "PGElement":
        return cls.basis(l, 0, 0)

    @classmethod
    def basis(cls, l: int, i: int, j: int, coeff: complex = 1.0) -> "PGElement":
        if not (0 <= i < l and 0 <= j < l):
            raise ValueError("basis exponents out of range")
        table = np.zeros((l, l), dtype=complex)
        table[i, j] = coeff
        return cls(l, table)

    def coefficient(self, i: int, j: int) -> complex:
        return complex(self.coeffs[i, j])

    def vector(self) -> np.ndarray:
        """Length-l^2 coefficient vector in the global row-major ordering."""
        return self.coeffs.reshape(-1).copy()

    @classmethod
    def from_vector(cls, l: int, vec: np.ndarray) -> "PGElement":
        return cls(l, np.asarray(vec, dtype=complex).reshape(l, l))

    def __add__(self, other: "PGElement") -> "PGElement":
        _check_same_order(self, other)
        return PGElement(self.l, self.coeffs + other.coeffs)

    def __sub__(self, other: "PGElement") -> "PGElement":
        _check_same_order(self, other)
        return PGElement(self.l, self.coeffs - other.coeffs)

    def __neg__(self) -> "PGElement":
        return PGElement(self.l, -self.coeffs)

    def __mul__(self, scalar: complex) -> "PGElement":
        return PGElement(self.l, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"PGElement(l={self.l})"


def _check_same_order(f: PGElement, g: PGElement):
    if f.l != g.l:
        raise ValueError(f"order mismatch: {f.l} vs {g.l}")


@functools.lru_cache(maxsize=None)
def product_support(l: int):
    """Index table of the exponent-adding product at order l.

    Lists every (a, b, c, d) with a+c < l and b+d < l, in lexicographic order,
    as four flat index arrays: the left factor's position a*l+b, the right
    factor's position c*l+d, the phase exponent b*c, and the output position
    (a+c)*l+(b+d).  Each output cell receives its terms in increasing (a, b).
    """
    a, b, c, d = np.ix_(*[np.arange(l)] * 4)
    a, b, c, d = np.nonzero((a + c < l) & (b + d < l))
    table = (a * l + b, c * l + d, b * c, (a + c) * l + (b + d))
    for arr in table:
        arr.flags.writeable = False
    return table


def scatter_sum(cells: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Complex length-size vector whose entry k sums terms[cells == k] in order."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(cells, terms.real, size)
    out.imag = np.bincount(cells, terms.imag, size)
    return out


def normal_order(word, ctx: AlgebraCtx) -> PGElement:
    """Reduce a word over {th, thb} to coefficient * th^a * thb^b.

    Each thb standing left of a later th costs one factor q^{-1} when moved
    past it; a single left-to-right scan counts those inversions.  Words with
    a >= l or b >= l collapse to zero by nilpotency.
    """
    a = b = inversions = 0
    for gen in word:
        if gen == THETA:
            a += 1
            inversions += b
        elif gen == THETA_BAR:
            b += 1
        else:
            raise ValueError(f"unknown generator {gen!r}")
    if a >= ctx.l or b >= ctx.l:
        return PGElement.zero(ctx.l)
    return PGElement.basis(ctx.l, a, b, ctx.q ** (-inversions))


def multiply(f: PGElement, g: PGElement, ctx: AlgebraCtx) -> PGElement:
    """Algebra product: (th^a thb^b)(th^c thb^d) = q^{-bc} th^{a+c} thb^{b+d}."""
    _check_same_order(f, g)
    l = f.l
    if ctx.l != l:
        raise ValueError(f"order mismatch: elements {l} vs context {ctx.l}")
    left, right, bc, cells = product_support(l)
    terms = f.coeffs.ravel()[left] * ctx.qinv_powers[bc] * g.coeffs.ravel()[right]
    return PGElement(l, scatter_sum(cells, terms, l * l).reshape(l, l))


def anti_wick_product(f: PGElement, g: PGElement) -> PGElement:
    """Exponent-adding product with no q factor; a plain truncated convolution."""
    _check_same_order(f, g)
    l = f.l
    left, right, _, cells = product_support(l)
    terms = f.coeffs.ravel()[left] * g.coeffs.ravel()[right]
    return PGElement(l, scatter_sum(cells, terms, l * l).reshape(l, l))


def conjugate(f: PGElement) -> PGElement:
    """Anti-linear involution swapping th^i thb^j with th^j thb^i."""
    return PGElement(f.l, np.conj(f.coeffs).T)


def z_map(f: PGElement) -> PGElement:
    """Linear basis swap th^i thb^j -> th^j thb^i, coefficients untouched."""
    return PGElement(f.l, f.coeffs.T.copy())


def berezin_integral(f: PGElement) -> complex:
    """The coefficient of the top monomial th^{l-1} thb^{l-1}."""
    return complex(f.coeffs[f.l - 1, f.l - 1])


# --- free (unreduced) symbol expressions -----------------------------------

class FreeExpr:
    """Node of a non-commutative polynomial in th, thb with symbolic q."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(FreeExpr):
    value: complex


@dataclass(frozen=True)
class QSym(FreeExpr):
    pass


@dataclass(frozen=True)
class Gen(FreeExpr):
    name: str  # THETA or THETA_BAR

    def __post_init__(self):
        if self.name not in (THETA, THETA_BAR):
            raise ValueError(f"unknown generator {self.name!r}")


@dataclass(frozen=True)
class Sum(FreeExpr):
    terms: tuple


@dataclass(frozen=True)
class Prod(FreeExpr):
    factors: tuple


@dataclass(frozen=True)
class Pow(FreeExpr):
    base: FreeExpr
    exponent: int

    def __post_init__(self):
        if int(self.exponent) != self.exponent or self.exponent < 0:
            raise ValueError("exponent must be a non-negative integer")


@dataclass(frozen=True)
class Neg(FreeExpr):
    operand: FreeExpr


def from_free_expr(e: FreeExpr, ctx: AlgebraCtx) -> PGElement:
    """Evaluate an expression tree in the quotient algebra at the given q."""
    if isinstance(e, Const):
        return complex(e.value) * PGElement.one(ctx.l)
    if isinstance(e, QSym):
        return ctx.q * PGElement.one(ctx.l)
    if isinstance(e, Gen):
        if e.name == THETA:
            return PGElement.basis(ctx.l, 1, 0)
        return PGElement.basis(ctx.l, 0, 1)
    if isinstance(e, Sum):
        out = PGElement.zero(ctx.l)
        for t in e.terms:
            out = out + from_free_expr(t, ctx)
        return out
    if isinstance(e, Prod):
        out = PGElement.one(ctx.l)
        for fct in e.factors:
            out = multiply(out, from_free_expr(fct, ctx), ctx)
        return out
    if isinstance(e, Pow):
        if e.exponent == 0:
            return PGElement.one(ctx.l)
        base = from_free_expr(e.base, ctx)
        # square-and-multiply over the exponent's bits, most significant first
        out = base
        for bit in bin(e.exponent)[3:]:
            out = multiply(out, out, ctx)
            if bit == "1":
                out = multiply(out, base, ctx)
        return out
    if isinstance(e, Neg):
        return -from_free_expr(e.operand, ctx)
    raise TypeError(f"not a FreeExpr node: {e!r}")
