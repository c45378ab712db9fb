"""Kernel projection, Toeplitz and coherent-state quantization, ladder operators.

Operators on the holomorphic subspace are l x l matrices tagged with their
basis (monomial th^a or orthonormal phi_a); operators on the full algebra are
l^2 x l^2 matrices over the global row-major monomial ordering.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraCtx, PGElement, multiply, product_support, scatter_sum
from .forms import WeightSeq, form

MONOMIAL = "monomial"
ORTHONORMAL = "orthonormal"


@dataclass(frozen=True, eq=False)
class OperatorBH:
    """Endomorphism of the holomorphic subspace; column a is the image of the
    a-th basis element in the tagged basis."""

    l: int
    matrix: np.ndarray
    basis: str

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.l, self.l):
            raise ValueError(f"matrix must be {self.l}x{self.l}")
        if self.basis not in (MONOMIAL, ORTHONORMAL):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def convert_basis(A: OperatorBH, w: WeightSeq, target: str) -> OperatorBH:
    """Rescale between the monomial and orthonormal pictures.

    With S = diag(w_a^{1/2}) the orthonormal matrix is S M S^{-1}: the a-th
    orthonormal element is w_a^{-1/2} th^a, so coordinates pick up S one way
    and S^{-1} the other.
    """
    if A.l != w.l:
        raise ValueError("order mismatch")
    if target == A.basis:
        return A
    s = np.sqrt(w.arr())
    if target == ORTHONORMAL:
        mat = (s[:, None] * A.matrix) / s[None, :]
    elif target == MONOMIAL:
        mat = (A.matrix / s[:, None]) * s[None, :]
    else:
        raise ValueError(f"unknown basis tag {target!r}")
    return OperatorBH(A.l, mat, target)


# --- kernel projections ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _projection_support(l: int):
    """Index table of the kernel projection at order l: every (a, b) with
    a >= b, in lexicographic order, as flat index arrays of the monomial
    position a*l+b, the weight index a and the output index a-b."""
    a, b = np.nonzero(np.greater_equal.outer(np.arange(l), np.arange(l)))
    table = (a * l + b, a, a - b)
    for arr in table:
        arr.flags.writeable = False
    return table


def _project_column(coeffs: np.ndarray, w: WeightSeq) -> np.ndarray:
    """Length-l vector: entry k sums coeffs[a, a-k] * (w_a / w_k) over a."""
    l = w.l
    pos, num, den = _projection_support(l)
    ws = w.arr()
    return scatter_sum(den, coeffs.ravel()[pos] * (ws[num] / ws[den]), l)


def project_pk(F: PGElement, w: WeightSeq, mode: str = "closed") -> PGElement:
    """Project onto the holomorphic subspace.

    mode="closed" applies th^a thb^b -> (w_a / w_{a-b}) th^{a-b} (zero when
    a-b escapes the index range); mode="kernel" expands against the
    reproducing kernel, summing (1/w_k) <th^k, F>_w th^k.
    """
    if F.l != w.l:
        raise ValueError("order mismatch")
    l = w.l
    out = np.zeros((l, l), dtype=complex)
    if mode == "closed":
        out[:, 0] = _project_column(F.coeffs, w)
    elif mode == "kernel":
        for k in range(l):
            out[k, 0] = form(PGElement.basis(l, k, 0), F, w) / w.w[k]
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    return PGElement(l, out)


def project_pk_bar(F: PGElement, w: WeightSeq) -> PGElement:
    """Projection onto the anti-holomorphic subspace: th^a thb^b ->
    (w_b / w_{b-a}) thb^{b-a} under the matching range guard."""
    if F.l != w.l:
        raise ValueError("order mismatch")
    l = w.l
    out = np.zeros((l, l), dtype=complex)
    # the mirror image of project_pk: transposing F swaps the roles of a and b
    out[0, :] = _project_column(F.coeffs.T, w)
    return PGElement(l, out)


@functools.lru_cache(maxsize=None)
def pk_operator(w: WeightSeq) -> np.ndarray:
    """The projection as an l^2 x l^2 matrix; idempotent, self-adjoint for the
    weighted form, rank l.  Column a*l+b holds w_a / w_{a-b} at row (a-b)*l
    when a >= b and is zero otherwise."""
    l = w.l
    pos, num, den = _projection_support(l)
    ws = w.arr()
    P = np.zeros((l * l, l * l), dtype=complex)
    P[den * l, pos] = ws[num] / ws[den]
    P.flags.writeable = False
    return P


# --- multiplication and Toeplitz operators ---------------------------------

def mult_operator(g: PGElement, side: str, ctx: AlgebraCtx) -> np.ndarray:
    """Matrix of F -> F*g (side="right") or F -> g*F (side="left")."""
    if g.l != ctx.l:
        raise ValueError("order mismatch")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    l = ctx.l
    # F -> F*g reads g at the right factor of each product-table entry and F
    # at the left one; F -> g*F swaps the two roles.  The phase is q^{-bc}
    # either way, and each (row, column) pair occurs once.
    left, right, bc, cells = product_support(l)
    g_at, cols = (right, left) if side == "right" else (left, right)
    M = np.zeros(l ** 4, dtype=complex)
    M[cells * (l * l) + cols] += g.coeffs.ravel()[g_at] * ctx.qinv_powers[bc]
    return M.reshape(l * l, l * l)


@functools.lru_cache(maxsize=None)
def _toeplitz_support(l: int):
    """Closed-form Toeplitz table at order l: every (i, j, a) with i+a < l and
    i+a-j >= 0, in lexicographic order, as flat index arrays of the symbol
    position i*l+j, the weight indices i+a and i+a-j, and the output position
    (i+a-j)*l + a."""
    i, j, a = np.ix_(*[np.arange(l)] * 3)
    i, j, a = np.nonzero((i + a < l) & (i + a - j >= 0))
    table = (i * l + j, i + a, i + a - j, (i + a - j) * l + a)
    for arr in table:
        arr.flags.writeable = False
    return table


def toeplitz(g: PGElement, w: WeightSeq, ctx: AlgebraCtx, mode: str = "closed") -> OperatorBH:
    """Toeplitz operator of the symbol g on the holomorphic subspace.

    mode="closed" places, for each symbol monomial th^i thb^j, the entry
    w_{i+a}/w_{i+a-j} at row i+a-j of column a whenever both i+a and i+a-j
    are in range.  mode="projection" composes right multiplication with the
    kernel projection and restricts to the holomorphic block.
    """
    if not (g.l == w.l == ctx.l):
        raise ValueError("order mismatch")
    l = ctx.l
    if mode == "closed":
        symbol, num, den, cells = _toeplitz_support(l)
        ws = w.arr()
        terms = g.coeffs.ravel()[symbol] * (ws[num] / ws[den])
        return OperatorBH(l, scatter_sum(cells, terms, l * l).reshape(l, l), MONOMIAL)
    if mode == "projection":
        # only the holomorphic rows of P and columns of M reach the block kept
        hol = np.arange(l) * l
        comp = pk_operator(w)[hol, :] @ mult_operator(g, "right", ctx)[:, hol]
        return OperatorBH(l, comp, MONOMIAL)
    raise ValueError(f"unknown toeplitz mode {mode!r}")


def toeplitz_orthonormal(g: PGElement, w: WeightSeq, ctx: AlgebraCtx) -> OperatorBH:
    return convert_basis(toeplitz(g, w, ctx), w, ORTHONORMAL)


def toeplitz_adjoint(A: OperatorBH, w: WeightSeq) -> OperatorBH:
    """Adjoint for the weighted inner product on the holomorphic subspace."""
    if A.l != w.l:
        raise ValueError("order mismatch")
    if A.basis != MONOMIAL:
        raise ValueError("adjoint expects a monomial-basis operator")
    d = w.arr()
    mat = (np.conj(A.matrix.T) * d[None, :]) / d[:, None]
    return OperatorBH(A.l, mat, MONOMIAL)


# --- coherent-state and flat quantizations ---------------------------------

@functools.lru_cache(maxsize=None)
def _coherent_support(l: int):
    """Closed-form coherent table at order l: every (i, j, a) with j+a < l and
    j-i+a >= 0, in lexicographic order, as flat index arrays of the symbol
    position i*l+j, the weight indices j+a, j-i+a and a, and the output
    position (j-i+a)*l + a."""
    i, j, a = np.ix_(*[np.arange(l)] * 3)
    i, j, a = np.nonzero((j + a < l) & (j - i + a >= 0))
    table = (i * l + j, j + a, j - i + a, a, (j - i + a) * l + a)
    for arr in table:
        arr.flags.writeable = False
    return table


def coherent_quantization(g: PGElement, w: WeightSeq, ctx: AlgebraCtx,
                          mode: str = "closed") -> np.ndarray:
    """Quantization through the resolution of identity, on the auxiliary
    basis e_a.

    mode="closed": each symbol monomial th^i thb^j sends e_a to
    w_{j+a} / (w_{j-i+a} w_a)^{1/2} e_{j-i+a} when both j+a and j-i+a are in
    range.  mode="berezin" evaluates the defining double integral term by
    term through the algebra product.
    """
    if not (g.l == w.l == ctx.l):
        raise ValueError("order mismatch")
    l = ctx.l
    if mode == "closed":
        symbol, num, den, a, cells = _coherent_support(l)
        ws = w.arr()
        terms = (g.coeffs.ravel()[symbol] * ws[num]) / np.sqrt(ws[den] * ws[a])
        return scatter_sum(cells, terms, l * l).reshape(l, l)
    if mode == "berezin":
        A = np.zeros((l, l), dtype=complex)
        sw = np.sqrt(w.arr())
        norm = np.outer(sw, sw)
        for m in range(l):
            weight = w.w[l - 1 - m]
            # th^m g thb^m inside the integral
            core = multiply(
                multiply(PGElement.basis(l, m, 0), g, ctx),
                PGElement.basis(l, 0, m), ctx)
            # the integral of th^r core thb^s is core's coefficient at
            # (l-1-r, l-1-s): th^r only raises the th exponents from the left
            # and thb^s the thb exponents from the right, so no generator is
            # reordered and no q-phase arises
            A += weight * core.coeffs[::-1, ::-1] / norm
        return A
    raise ValueError(f"unknown coherent mode {mode!r}")


def toeplitz_flat(g: PGElement, w: WeightSeq, ctx: AlgebraCtx) -> np.ndarray:
    """Left multiplication followed by the anti-holomorphic projection,
    expressed on the conjugated orthonormal basis w_a^{-1/2} thb^a."""
    if not (g.l == w.l == ctx.l):
        raise ValueError("order mismatch")
    l = ctx.l
    sw = np.sqrt(w.arr())
    M = np.zeros((l, l), dtype=complex)
    for a in range(l):
        F = PGElement.basis(l, 0, a, 1.0 / sw[a])
        img = project_pk_bar(multiply(g, F, ctx), w)
        # thb^b coefficient scaled back to the conjugated orthonormal basis
        M[:, a] = img.coeffs[0, :] * sw
    return M


# --- ladder structure ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LadderSet:
    creation: OperatorBH
    annihilation: OperatorBH
    number: OperatorBH
    deformed_ints: tuple
    deformed_factorials: tuple


def ladder_set(w: WeightSeq, ctx: AlgebraCtx) -> LadderSet:
    """Creation (degree-raising), annihilation (weighted backward shift), and
    the diagonal number operator with eigenvalues w_a / w_{a-1}."""
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
    return LadderSet(creation, annihilation, number, tuple(ints), tuple(facts))


def operator_norm_bh(A: OperatorBH, w: WeightSeq) -> float:
    """Operator norm for the weighted inner product: the top singular value of
    the orthonormal-basis matrix."""
    on = convert_basis(A, w, ORTHONORMAL)
    return float(np.linalg.svd(on.matrix, compute_uv=False)[0])


def matrix_rank(M: np.ndarray, rel_threshold: float = 1e-9) -> int:
    """Rank by singular-value thresholding at rel_threshold * sigma_max."""
    s = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_threshold * s[0]))


def wick_rank_probe(w: WeightSeq, ctx: AlgebraCtx) -> int:
    """Rank of the span of the reverse-ordered products creation^i
    annihilation^j; reported as informational only."""
    l = ctx.l
    lad = ladder_set(w, ctx)
    cols = []
    for i in range(l):
        for j in range(l):
            op = (np.linalg.matrix_power(lad.creation.matrix, i)
                  @ np.linalg.matrix_power(lad.annihilation.matrix, j))
            cols.append(op.reshape(-1))
    return matrix_rank(np.array(cols).T)
