"""Kernel projection, Toeplitz and coherent-state quantization, ladder operators.

Operators on the holomorphic subspace are l x l matrices tagged with their
basis (monomial th^a or orthonormal phi_a); operators on the full algebra are
l^2 x l^2 matrices over the global row-major monomial ordering.

As in the algebra module, a function named name_stack maps an (n, l, l) stack
of coefficient tables to a stack of results, and name is its n = 1 case.  The
Toeplitz-family kernels take no q: th^a * g reorders no generator.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraCtx, PGElement, frozen, gather, in_blocks, index_tuples,
                      monomials, product_support, same_order, scatter_sum, z_map)
from .forms import WeightSeq, form_stack

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
    l = same_order(A, w)
    if target == A.basis:
        return A
    return OperatorBH(l, convert_basis_stack(A.matrix[None], w, target)[0], target)


def convert_basis_stack(M: np.ndarray, w: WeightSeq, target: str) -> np.ndarray:
    """A stack of matrices rescaled into the target basis from the other one."""
    s = np.sqrt(w.arr())
    if target == ORTHONORMAL:
        return (s[:, None] * M) / s[None, :]
    return (M / s[:, None]) * s[None, :]


# --- kernel projections ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _projection_support(l: int):
    """Index table of the kernel projection at order l: every (a, b) with
    a >= b, in lexicographic order, as flat index arrays of the monomial
    position a*l+b, the weight index a and the output index a-b."""
    a, b = index_tuples(l, 2, lambda a, b: a >= b)
    return frozen(a * l + b, a, a - b)


def _project_column(C: np.ndarray, w: WeightSeq) -> np.ndarray:
    """(n, l) array: entry [m, k] sums C[m, a, a-k] * (w_a / w_k) over a."""
    l = w.l
    pos, num, den = _projection_support(l)
    ws = w.arr()
    ratios = (ws[num] / ws[den])[None]
    return in_blocks(lambda C: scatter_sum(den, gather(C, pos) * ratios, l), len(pos), C)


def project_pk_stack(F: np.ndarray, w: WeightSeq, mode: str = "closed") -> np.ndarray:
    """project_pk of each table of an (n, l, l) stack."""
    l = w.l
    out = np.zeros((len(F), l, l), dtype=complex)
    if mode == "closed":
        out[:, :, 0] = _project_column(F, w)
    elif mode == "kernel":
        # <th^k, F[m]>_w for every (m, k), taken row by row; th^k sits at k*l
        powers = monomials(l, range(0, l * l, l))
        pairs = in_blocks(lambda F: form_stack(np.tile(powers, (len(F), 1, 1)),
                                               np.repeat(F, l, axis=0), w).reshape(-1, l),
                          l ** 3, F)
        ws = w.arr()
        # real and imaginary parts divided apart, which gives the quotient
        # Python's complex division by w_k gives; numpy's complex division
        # can differ from it in the last bit
        out[:, :, 0].real = pairs.real / ws
        out[:, :, 0].imag = pairs.imag / ws
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    return out


def project_pk(F: PGElement, w: WeightSeq, mode: str = "closed") -> PGElement:
    """Project onto the holomorphic subspace.

    mode="closed" applies th^a thb^b -> (w_a / w_{a-b}) th^{a-b} (zero when
    a-b escapes the index range); mode="kernel" expands against the
    reproducing kernel, summing (1/w_k) <th^k, F>_w th^k.
    """
    return PGElement(same_order(F, w), project_pk_stack(F.coeffs[None], w, mode)[0])


def project_pk_bar(F: PGElement, w: WeightSeq) -> PGElement:
    """Projection onto the anti-holomorphic subspace, th^a thb^b ->
    (w_b / w_{b-a}) thb^{b-a} for b >= a: project_pk between two z_map swaps."""
    return z_map(project_pk(z_map(F), w))


def _project_shifts(G: np.ndarray, w: WeightSeq, scale=None) -> np.ndarray:
    """(n, l, l) array: row a of entry m is the closed projection of
    th^a * G[m], G[m]'s table moved down a rows, times scale[a] if given.
    The l shifts of each table of a block are written into one buffer and
    projected in one call."""
    l = w.l

    def project(G):
        shifts = np.zeros((len(G), l, l, l), dtype=complex)
        for a in range(l):
            shifts[:, a, a:] = G[:, :l - a] if scale is None else G[:, :l - a] * scale[a]
        return _project_column(shifts.reshape(-1, l, l), w).reshape(-1, l, l)
    return in_blocks(project, l ** 3, G)


@functools.lru_cache(maxsize=1)  # one shared entry, as for forms.gram_matrix
def pk_operator(w: WeightSeq) -> np.ndarray:
    """The projection as a read-only float64 l^2 x l^2 matrix; idempotent,
    self-adjoint for the weighted form, rank l.  Column a*l+b holds
    w_a / w_{a-b} at row (a-b)*l when a >= b and is zero otherwise; every
    entry is a ratio of weights, so products with P run in real arithmetic."""
    l = w.l
    pos, num, den = _projection_support(l)
    ws = w.arr()
    P = np.zeros((l * l, l * l))
    P[den * l, pos] = ws[num] / ws[den]
    P.flags.writeable = False
    return P


# --- multiplication and Toeplitz operators ---------------------------------

def mult_operator_stack(G: np.ndarray, side: str, ctx: AlgebraCtx) -> np.ndarray:
    """mult_operator of each symbol of an (n, l, l) stack, as (n, l^2, l^2)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    l = ctx.l
    # F -> F*g reads g at the right factor of each product-table entry and F at
    # the left one; F -> g*F swaps the two roles; the phase is q^{-bc} either way.
    # Each entry occurs once, so it is assigned through one flat index (faster
    # than M[:, idx]), matrix k at offset k*l^4; + 0.0 turns a -0.0 product into
    # the +0.0 that a sum onto zeros gives.
    left, right, bc, cells = product_support(l)
    g_at, cols = (right, left) if side == "right" else (left, right)
    at = cells * (l * l) + cols
    if len(G) > 1:
        at = at + l ** 4 * np.arange(len(G))[:, None]
    M = np.zeros(len(G) * l ** 4, dtype=complex)
    M[at] = (gather(G, g_at) * ctx.qinv_powers[bc][None] + 0.0).reshape(at.shape)
    return M.reshape(len(G), l * l, l * l)


def mult_operator(g: PGElement, side: str, ctx: AlgebraCtx) -> np.ndarray:
    """Matrix of F -> F*g (side="right") or F -> g*F (side="left")."""
    same_order(g, ctx)
    return mult_operator_stack(g.coeffs[None], side, ctx)[0]


@functools.lru_cache(maxsize=None)
def _toeplitz_support(l: int):
    """Closed-form Toeplitz table at order l: every (i, j, a) with i+a < l and
    i+a-j >= 0, in lexicographic order, as flat index arrays of the symbol
    position i*l+j, the weight indices i+a and i+a-j, and the output position
    (i+a-j)*l + a."""
    i, j, a = index_tuples(l, 3, lambda i, j, a: (i + a < l) & (i + a - j >= 0))
    return frozen(i * l + j, i + a, i + a - j, (i + a - j) * l + a)


def toeplitz_stack(G: np.ndarray, w: WeightSeq, mode: str = "closed") -> np.ndarray:
    """The monomial-basis Toeplitz matrices of an (n, l, l) stack of symbols."""
    l = w.l
    n = len(G)
    if mode == "closed":
        symbol, num, den, cells = _toeplitz_support(l)
        ws = w.arr()
        ratios = (ws[num] / ws[den])[None]
        return in_blocks(lambda G: scatter_sum(cells, gather(G, symbol) * ratios, l * l),
                         len(cells), G).reshape(n, l, l)
    if mode == "projection":
        # column a is the projection of th^a * g, as in the flat map
        return np.swapaxes(_project_shifts(G, w), 1, 2)
    raise ValueError(f"unknown toeplitz mode {mode!r}")


def toeplitz(g: PGElement, w: WeightSeq, ctx: AlgebraCtx, mode: str = "closed") -> OperatorBH:
    """Toeplitz operator of the symbol g on the holomorphic subspace.

    mode="closed" places, for each symbol monomial th^i thb^j, the entry
    w_{i+a}/w_{i+a-j} at row i+a-j of column a whenever both i+a and i+a-j
    are in range.  mode="projection" takes column a to be the kernel
    projection of th^a * g, the image of th^a under right multiplication.
    ctx is read only for its order."""
    return OperatorBH(same_order(g, w, ctx), toeplitz_stack(g.coeffs[None], w, mode)[0], MONOMIAL)


def toeplitz_orthonormal(g: PGElement, w: WeightSeq, ctx: AlgebraCtx) -> OperatorBH:
    """toeplitz on the orthonormal basis; ctx is read only for its order."""
    return convert_basis(toeplitz(g, w, ctx), w, ORTHONORMAL)


def toeplitz_adjoint_stack(M: np.ndarray, w: WeightSeq) -> np.ndarray:
    """toeplitz_adjoint of each matrix of an (n, l, l) monomial-basis stack."""
    d = w.arr()
    return (np.conj(np.swapaxes(M, 1, 2)) * d[None, :]) / d[:, None]


def toeplitz_adjoint(A: OperatorBH, w: WeightSeq) -> OperatorBH:
    """Adjoint for the weighted inner product on the holomorphic subspace."""
    l = same_order(A, w)
    if A.basis != MONOMIAL:
        raise ValueError("adjoint expects a monomial-basis operator")
    return OperatorBH(l, toeplitz_adjoint_stack(A.matrix[None], w)[0], MONOMIAL)


# --- coherent-state and flat quantizations ---------------------------------

def coherent_quantization_stack(G: np.ndarray, w: WeightSeq, mode: str = "closed") -> np.ndarray:
    """coherent_quantization of each symbol of an (n, l, l) stack."""
    l = w.l
    n = len(G)
    if mode == "closed":
        # the Toeplitz table of the transposed symbol: its (i, j, a) is this
        # map's (j, i, a), and each cell still sums its terms in increasing i
        symbol, num, den, cells = _toeplitz_support(l)
        ws = w.arr()
        top, norm = ws[num][None], np.sqrt(ws[den] * ws[cells % l])[None]
        return in_blocks(lambda G: scatter_sum(cells, (gather(G, symbol) * top) / norm, l * l),
                         len(cells), np.swapaxes(G, 1, 2)).reshape(n, l, l)
    if mode == "berezin":
        sw = np.sqrt(w.arr())
        norm = np.outer(sw, sw)

        # th^m g thb^m is g moved down and right m places, no q-phase, and
        # the integral of th^r (th^m g thb^m) thb^s reads g at (k-r, k-s),
        # zero unless r, s <= k; adding those zeros would move no bit of A
        def corners(G):
            A = np.zeros((len(G), l, l), dtype=complex)
            for m in range(l):
                k = l - 1 - m
                A[:, :k + 1, :k + 1] += w.w[k] * G[:, k::-1, k::-1] / norm[:k + 1, :k + 1]
            return A
        return in_blocks(corners, l * l, G)
    raise ValueError(f"unknown coherent mode {mode!r}")


def coherent_quantization(g: PGElement, w: WeightSeq, ctx: AlgebraCtx,
                          mode: str = "closed") -> np.ndarray:
    """Quantization through the resolution of identity, on the auxiliary
    basis e_a; ctx is read only for its order.

    mode="closed": each symbol monomial th^i thb^j sends e_a to
    w_{j+a} / (w_{j-i+a} w_a)^{1/2} e_{j-i+a} when both j+a and j-i+a are in
    range.  mode="berezin" evaluates the defining double integral term by
    term; each product th^m g thb^m in it is g's table moved down and right m
    places, read in place as a reversed slice of g.
    """
    same_order(g, w, ctx)
    return coherent_quantization_stack(g.coeffs[None], w, mode)[0]


def toeplitz_flat_stack(G: np.ndarray, w: WeightSeq) -> np.ndarray:
    """toeplitz_flat of each symbol of an (n, l, l) stack."""
    sw = np.sqrt(w.arr())
    # g_k times the conjugated orthonormal element w_a^{-1/2} thb^a is g_k's
    # table moved right a columns; transposed, it is moved down a rows, and
    # the anti-holomorphic projection becomes the holomorphic one
    img = _project_shifts(np.swapaxes(G, 1, 2), w, 1.0 / sw)
    # thb^b coefficient scaled back to the conjugated orthonormal basis; the
    # image of basis element a is column a
    img *= sw
    return np.swapaxes(img, 1, 2)


def toeplitz_flat(g: PGElement, w: WeightSeq, ctx: AlgebraCtx) -> np.ndarray:
    """Left multiplication by g followed by the anti-holomorphic projection, on
    the conjugated orthonormal basis w_a^{-1/2} thb^a; the product g * thb^a
    is g's table moved right a columns.  ctx is read only for its order."""
    same_order(g, w, ctx)
    return toeplitz_flat_stack(g.coeffs[None], w)[0]


# --- ladder structure ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LadderSet:
    creation: OperatorBH
    annihilation: OperatorBH
    number: OperatorBH
    deformed_ints: tuple
    deformed_factorials: tuple

    def powers(self) -> tuple:
        """(C, A): creation^k and annihilation^k for k = 0..l, one matrix_power each."""
        return tuple(np.array([np.linalg.matrix_power(op.matrix, k) for k in range(op.l + 1)])
                     for op in (self.creation, self.annihilation))


def ladder_set(w: WeightSeq, ctx: AlgebraCtx) -> LadderSet:
    """Creation (degree-raising), annihilation (weighted backward shift), and
    the diagonal number operator with eigenvalues w_a / w_{a-1}: the first two
    are the Toeplitz operators of th and thb.  ctx is read only to check its
    order."""
    l = same_order(w, ctx)
    creation, annihilation = toeplitz_stack(monomials(l, [l, 1]), w)
    ints = (0.0, *(w.w[a] / w.w[a - 1] for a in range(1, l)))
    facts = tuple(itertools.accumulate(ints[1:], operator.mul, initial=1.0))
    return LadderSet(OperatorBH(l, creation, MONOMIAL), OperatorBH(l, annihilation, MONOMIAL),
                     OperatorBH(l, creation @ annihilation, MONOMIAL), ints, facts)


def _singular_values(M: np.ndarray) -> np.ndarray:
    """The singular values of M, largest first.  For a matrix holding inf or
    NaN, LAPACK may print to stdout and return NaN, so the SVD is not run."""
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("SVD did not converge")
    return np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)


def operator_norm_bh(A: OperatorBH, w: WeightSeq) -> float:
    """Operator norm for the weighted inner product: the top singular value of
    the orthonormal-basis matrix."""
    return float(_singular_values(convert_basis(A, w, ORTHONORMAL).matrix)[0])


# matrix_rank counts the singular values above this multiple of the largest
RANK_THRESHOLD = 1e-9


def matrix_rank(M: np.ndarray) -> int:
    """Rank by singular-value thresholding at RANK_THRESHOLD * sigma_max."""
    s = _singular_values(M)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_THRESHOLD * s[0]))


def span_rank(ops) -> int:
    """Dimension of the linear span of the matrices in ops: the matrix_rank of
    the matrix whose columns are the flattened operators."""
    return matrix_rank(np.array([op.reshape(-1) for op in ops]).T)


def wick_rank_probe(w: WeightSeq, ctx: AlgebraCtx) -> int:
    """Rank of the span of the reverse-ordered products creation^i
    annihilation^j, informational only; ctx is read only for its order."""
    l = ctx.l
    C, A = ladder_set(w, ctx).powers()
    return span_rank(C[i] @ A[j] for i in range(l) for j in range(l))
