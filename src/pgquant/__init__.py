"""Toeplitz and coherent-state quantization on a finite paragrassmann algebra."""

from .algebra import (AlgebraCtx, Const, FreeExpr, Gen, Neg, PGElement, Pow,
                      Prod, QSym, Sum, THETA, THETA_BAR, conjugate,
                      from_free_expr, multiply, normal_order, z_map)
from .forms import (WeightSeq, adjoint_wrt_form, form, gram_matrix,
                    orthonormal_phi, preset_weights)
from .quantization import (LadderSet, MONOMIAL, ORTHONORMAL, OperatorBH,
                           coherent_quantization, convert_basis, ladder_set,
                           matrix_rank, mult_operator, operator_norm_bh,
                           pk_operator, project_pk, project_pk_bar, toeplitz,
                           toeplitz_adjoint, toeplitz_flat,
                           toeplitz_orthonormal, wick_rank_probe)
from .symbols import ParseError, Token, format_element, parse, tokenize

__version__ = "0.1.0"
