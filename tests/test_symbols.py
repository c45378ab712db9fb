import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgquant import (AlgebraCtx, Const, Gen, Neg, PGElement, ParseError, Pow,
                     Prod, QSym, Sum, THETA, THETA_BAR, format_element,
                     from_free_expr, parse)
from pgquant.symbols import MAX_DEPTH

CTX = AlgebraCtx(3, 2.0)

# 30 inputs that must parse; each is checked by evaluating the AST and
# comparing with a directly built element at l = 3, q = 2.
ACCEPT = [
    ("th", {(1, 0): 1}),
    ("thb", {(0, 1): 1}),
    ("θ", {(1, 0): 1}),
    ("θ̄", {(0, 1): 1}),
    ("th*thb", {(1, 1): 1}),
    ("th thb", {(1, 1): 1}),  # juxtaposition product
    ("thb*th", {(1, 1): 0.5}),
    ("thb th", {(1, 1): 0.5}),
    ("th^2", {(2, 0): 1}),
    ("thb^2", {(0, 2): 1}),
    ("th^0", {(0, 0): 1}),
    ("th^3", {}),  # nilpotent overflow
    ("2", {(0, 0): 2}),
    ("2.5", {(0, 0): 2.5}),
    (".5", {(0, 0): 0.5}),
    ("1e-4", {(0, 0): 1e-4}),
    ("3i", {(0, 0): 3j}),
    ("i", {(0, 0): 1j}),
    ("q", {(0, 0): 2}),
    ("q^2*th", {(1, 0): 4}),
    ("-th", {(1, 0): -1}),
    ("th + thb", {(1, 0): 1, (0, 1): 1}),
    ("th - thb", {(1, 0): 1, (0, 1): -1}),
    ("-th - thb", {(1, 0): -1, (0, 1): -1}),
    ("th*thb - q*thb*th", {}),  # the defining relation collapses to zero
    ("(1+2i)*th^2*thb", {}),  # overflow after ordering at l = 3? no: (2,1) fine
    ("(th + thb)^2", {(2, 0): 1, (1, 1): 1.5, (0, 2): 1}),
    ("2*(th + 1)", {(1, 0): 2, (0, 0): 2}),
    ("(1 - i)*thb", {(0, 1): 1 - 1j}),
    ("th^2 * thb^2", {(2, 2): 1}),
]
# fix the one entry that does have support: (1+2i)*th^2*thb lands on (2,1)
ACCEPT[25] = ("(1+2i)*th^2*thb", {(2, 1): 1 + 2j})

# 10 inputs that must raise ParseError.
REJECT = [
    "",
    "   ",
    "th^-1",
    "th^1.5",
    "th^thb",
    "(th",
    "th)",
    "th +",
    "* th",
    "th $ thb",
]


def build(l, entries):
    f = PGElement.zero(l)
    for (i, j), c in entries.items():
        f = f + PGElement.basis(l, i, j, c)
    return f


class TestAcceptCorpus:
    @pytest.mark.parametrize("text,entries", ACCEPT)
    def test_parses_and_evaluates(self, text, entries):
        out = from_free_expr(parse(text), CTX)
        assert np.allclose(out.coeffs, build(3, entries).coeffs, atol=1e-12)

    def test_corpus_size(self):
        assert len(ACCEPT) == 30
        assert len(REJECT) == 10


class TestRejectCorpus:
    @pytest.mark.parametrize("text", REJECT)
    def test_raises(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_exponent_error_position_and_message(self):
        with pytest.raises(ParseError) as err:
            parse("th^-1")
        assert err.value.position == 3
        assert "non-negative integer exponent expected" in err.value.message

    def test_unknown_token_position(self):
        with pytest.raises(ParseError) as err:
            parse("th $ thb")
        assert err.value.position == 3

    def test_position_within_input(self):
        for text in REJECT:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert 0 <= err.value.position <= len(text) + 1


class TestAst:
    def test_defining_relation_shape(self):
        ast = parse("th*thb - q*thb*th")
        assert isinstance(ast, Sum)
        assert isinstance(ast.terms[1], Neg)

    def test_complex_coefficient_product(self):
        ast = parse("(1+2i)*th^2*thb")
        assert isinstance(ast, Prod)
        first = ast.factors[0]
        # (1+2i) parses as the sum 1 + 2i inside parentheses
        val = from_free_expr(first, CTX)
        assert val.coefficient(0, 0) == 1 + 2j
        assert ast.factors[1] == Pow(Gen(THETA), 2)
        assert ast.factors[2] == Gen(THETA_BAR)

    def test_pure_function(self):
        assert parse("q*th - 2i") == parse("q*th - 2i")

    def test_q_stays_symbolic(self):
        ast = parse("q")
        assert ast == QSym()
        assert from_free_expr(ast, AlgebraCtx(2, 5.0)).coefficient(0, 0) == 5.0


class TestFormat:
    def test_zero(self):
        assert format_element(PGElement.zero(3)) == "0"

    def test_example(self):
        f = 1.5 * PGElement.basis(3, 1, 1) + PGElement.basis(3, 0, 2)
        assert format_element(f) == "1.5*th*thb + thb^2"

    def test_unit_coefficients_omitted(self):
        f = PGElement.basis(2, 1, 0) - PGElement.basis(2, 0, 1)
        assert format_element(f) == "th - thb"

    def test_leading_negative(self):
        assert format_element(-1.0 * PGElement.basis(2, 1, 0)) == "-th"

    def test_pure_imaginary(self):
        f = PGElement.basis(2, 1, 0, 2j) - PGElement.basis(2, 0, 1, 1j)
        assert format_element(f) == "2i*th - 1i*thb"

    def test_general_complex_parenthesized(self):
        f = PGElement.basis(2, 1, 1, 1 - 2j)
        assert format_element(f) == "(1-2i)*th*thb"

    def test_term_order(self):
        f = (PGElement.one(2) + PGElement.basis(2, 0, 1)
             + PGElement.basis(2, 1, 0) + PGElement.basis(2, 1, 1))
        assert format_element(f) == "1 + th + thb + th*thb"

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_round_trip_random(self, l):
        rng = np.random.default_rng(100 + l)
        ctx = AlgebraCtx(l, 1.0)
        for _ in range(100):
            f = PGElement(l, rng.standard_normal((l, l))
                          + 1j * rng.standard_normal((l, l)))
            back = from_free_expr(parse(format_element(f)), ctx)
            assert np.allclose(back.coeffs, f.coeffs, atol=1e-9)

    def test_round_trip_special_values(self):
        cases = [
            PGElement.zero(3),
            PGElement.one(3),
            PGElement.basis(3, 2, 2, -1e-7),
            PGElement.basis(3, 1, 0, 1e12) + PGElement.basis(3, 0, 1, 1e-12),
        ]
        ctx = AlgebraCtx(3, 1.0)
        for f in cases:
            back = from_free_expr(parse(format_element(f)), ctx)
            scale = max(1.0, np.max(np.abs(f.coeffs)))
            assert np.max(np.abs(back.coeffs - f.coeffs)) / scale < 1e-9


class TestNestingDepth:
    @given(depth=st.integers(0, 5000),
           opener=st.sampled_from(["(", "-(", "2*(", "th+(", "-thb*("]),
           closer=st.sampled_from([")", ")^2", ")*th", ")+1"]),
           balanced=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_deep_parentheses_raise_parse_error_not_recursion_error(
            self, depth, opener, closer, balanced):
        text = opener * depth + "th" + closer * (depth if balanced else depth // 2)
        if depth <= MAX_DEPTH and (balanced or depth == 0):
            assert isinstance(from_free_expr(parse(text), CTX), PGElement)
        else:
            with pytest.raises(ParseError):
                parse(text)

    def test_limit_is_exact(self):
        parse("(" * MAX_DEPTH + "th" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parse("(" * (MAX_DEPTH + 1) + "th" + ")" * (MAX_DEPTH + 1))
        assert exc.value.position == MAX_DEPTH
