"""Arithmetic in the quotient algebra with two q-commuting nilpotent generators.

Elements are stored densely as an l x l table of complex coefficients over the
normally-ordered monomial basis th^i * thb^j.  All operations are pure; tables
are frozen after construction and safe to share.

The kernels work on stacks: an (n, l, l) array of coefficient tables, of which
a PGElement's table is the n = 1 case.  A function named name_stack is the
stacked kernel of name, and name calls it with n = 1.
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

    @functools.cached_property
    def qinv_powers(self) -> np.ndarray:
        """q^{-k} for k = 0..(l-1)^2, built by repeated multiplication so that
        negative and complex q stay on the expected branch."""
        top = (self.l - 1) * (self.l - 1)
        pows = np.ones(top + 1, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            # + 0.0 turns the -1-0j of odd powers at q = -1 into the -1+0j that
            # multiply's sum onto +0 gives, so normal_order has its bytes
            pows[1:] = np.cumprod(np.full(top, 1.0 / self.q)) + 0.0
        pows.flags.writeable = False
        return pows


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
        return PGElement(same_order(self, other), self.coeffs + other.coeffs)

    def __sub__(self, other: "PGElement") -> "PGElement":
        return PGElement(same_order(self, other), self.coeffs - other.coeffs)

    def __neg__(self) -> "PGElement":
        return PGElement(self.l, -self.coeffs)

    def __mul__(self, scalar: complex) -> "PGElement":
        return PGElement(self.l, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"PGElement(l={self.l})"


def same_order(*objects) -> int:
    """The order l shared by the given elements, weights, contexts and
    operators; a ValueError naming the orders if two of them differ."""
    orders = {obj.l for obj in objects}
    if len(orders) > 1:
        raise ValueError(f"order mismatch: {sorted(orders)}")
    return orders.pop()


def index_tuples(l: int, rank: int, keep) -> tuple:
    """The tuples of range(l)^rank that the mask keep(*open grid axes) keeps,
    as rank index arrays in lexicographic order."""
    return np.nonzero(keep(*np.ix_(*[np.arange(l)] * rank)))


def frozen(*arrays) -> tuple:
    """The arrays, read-only: an index table is cached and shared."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def product_support(l: int):
    """Index table of the exponent-adding product at order l.

    Lists every (a, b, c, d) with a+c < l and b+d < l, in lexicographic order,
    as four flat index arrays: the left factor's position a*l+b, the right
    factor's position c*l+d, the phase exponent b*c, and the output position
    (a+c)*l+(b+d).  Each output cell receives its terms in increasing (a, b).
    """
    a, b, c, d = index_tuples(l, 4, lambda a, b, c, d: (a + c < l) & (b + d < l))
    return frozen(a * l + b, c * l + d, b * c, (a + c) * l + (b + d))


def gather(T: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The entries at the flat positions index of each table of an (n, ...)
    stack, as an (n, len(index)) array.

    One fancy index into the flattened stack, which numpy runs faster than a
    take along axis 1.  A per-term factor multiplied in should have shape
    (1, len(index)): numpy reuses a temporary operand's buffer for the result
    only when both operands have the same number of dimensions, and at large
    l a fresh buffer costs more than the product.
    """
    n = len(T)
    flat = index[None] if n == 1 else index + T[0].size * np.arange(n)[:, None]
    return T.reshape(-1)[flat]


def scatter_sum(cells: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Complex (n, size) array whose entry [k, c] sums terms[k][cells == c] in
    order, for terms of shape (n, len(cells)).

    Row k scatters to cells + k*size of one flat vector, so each cell sums
    exactly the terms, in exactly the order, that a call on row k alone would.
    """
    n = len(terms)
    if n > 1:
        cells = (cells + size * np.arange(n)[:, None]).ravel()
    terms = terms.reshape(-1)
    out = np.empty(n * size, dtype=complex)
    out.real = np.bincount(cells, terms.real, n * size)
    out.imag = np.bincount(cells, terms.imag, n * size)
    return out.reshape(n, size)


def monomials(l: int, positions) -> np.ndarray:
    """A fresh (k, l, l) stack of the tables of the monomials th^i thb^j at
    the k flat positions i*l+j.  Only those k*l^2 entries are built, and none
    is cached: all l^2 tables hold l^4 entries, 16 MB at l = 32."""
    out = np.zeros((len(positions), l * l), dtype=complex)
    # item assignments, not a fancy index: from_free_expr asks for one table
    # per leaf of its tree, and at that size index arrays cost more than it
    for k, pos in enumerate(positions):
        out[k, pos] = 1.0
    return out.reshape(-1, l, l)


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
    return PGElement.basis(ctx.l, a, b, ctx.qinv_powers[inversions])


# a stacked kernel evaluates its stack in blocks of at most this many terms, so
# that each temporary array stays near 128 KB whatever the stack's size
BLOCK_TERMS = 1 << 13


def in_blocks(fn, terms_per_table: int, *stacks) -> np.ndarray:
    """fn(*stacks), evaluated on consecutive row blocks of at most BLOCK_TERMS
    terms (one table each where a single table has more) and written into one
    output; a stack of one table pairs with every block.  fn returns one row
    per table of its block.  A stack that fits in one block is passed to fn
    whole."""
    n = max(map(len, stacks))
    step = max(1, BLOCK_TERMS // terms_per_table)
    if n <= step:
        return fn(*stacks)
    out = None
    for k in range(0, n, step):
        block = fn(*(s if len(s) == 1 else s[k:k + step] for s in stacks))
        if out is None:
            out = np.empty((n, *block.shape[1:]), dtype=block.dtype)
        out[k:k + step] = block
    return out


def multiply_stack(F: np.ndarray, G: np.ndarray, ctx: AlgebraCtx) -> np.ndarray:
    """The products F[k] * G[k] of two (n, l, l) stacks; a stack of one table
    pairs with every table of the other."""
    l = ctx.l
    left, right, bc, cells = product_support(l)
    phases = ctx.qinv_powers[bc][None]
    return in_blocks(lambda f, g: scatter_sum(cells, gather(f, left) * phases * gather(g, right),
                                              l * l), len(cells), F, G).reshape(-1, l, l)


def _times(f: np.ndarray, g: np.ndarray, ctx: AlgebraCtx) -> np.ndarray:
    """The product of two (l, l) tables."""
    return multiply_stack(f[None], g[None], ctx)[0]


def multiply(f: PGElement, g: PGElement, ctx: AlgebraCtx) -> PGElement:
    """Algebra product: (th^a thb^b)(th^c thb^d) = q^{-bc} th^{a+c} thb^{b+d}."""
    return PGElement(same_order(f, g, ctx), _times(f.coeffs, g.coeffs, ctx))


def conjugate_stack(F: np.ndarray) -> np.ndarray:
    """The conjugates of an (n, l, l) stack: each table's conjugate transpose."""
    return np.conj(np.swapaxes(F, 1, 2))


def conjugate(f: PGElement) -> PGElement:
    """Anti-linear involution swapping th^i thb^j with th^j thb^i."""
    return PGElement(f.l, conjugate_stack(f.coeffs[None])[0])


def z_map(f: PGElement) -> PGElement:
    """Linear basis swap th^i thb^j -> th^j thb^i, coefficients untouched."""
    return PGElement(f.l, f.coeffs.T)


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
    return PGElement(ctx.l, _free_expr_table(e, ctx))


def _free_expr_table(e: FreeExpr, ctx: AlgebraCtx) -> np.ndarray:
    """The (l, l) table of from_free_expr(e, ctx), evaluated node by node on
    raw tables: no PGElement per node, and one single-block multiply_stack
    call per product."""
    if isinstance(e, Const):
        return monomials(ctx.l, [0])[0] * complex(e.value)
    if isinstance(e, QSym):
        return monomials(ctx.l, [0])[0] * ctx.q
    if isinstance(e, Gen):
        # th at position 1*l+0, thb at 0*l+1
        return monomials(ctx.l, [ctx.l if e.name == THETA else 1])[0]
    if isinstance(e, Sum):
        out = np.zeros((ctx.l, ctx.l), dtype=complex)
        for t in e.terms:
            out = out + _free_expr_table(t, ctx)
        return out
    if isinstance(e, Prod):
        out = monomials(ctx.l, [0])[0]
        for fct in e.factors:
            out = _times(out, _free_expr_table(fct, ctx), ctx)
        return out
    if isinstance(e, Pow):
        if e.exponent == 0:
            return monomials(ctx.l, [0])[0]
        base = _free_expr_table(e.base, ctx)
        # square-and-multiply over the exponent's bits, most significant first
        out = base
        for bit in bin(e.exponent)[3:]:
            out = _times(out, out, ctx)
            if bit == "1":
                out = _times(out, base, ctx)
        return out
    if isinstance(e, Neg):
        return -_free_expr_table(e.operand, ctx)
    raise TypeError(f"not a FreeExpr node: {e!r}")
