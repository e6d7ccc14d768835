import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import rand_poly, reference_str
from gaql.exprs import PolyParseError, parse_polynomial
from gaql.poly import Polynomial, Ring

R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()


def test_parse_basic():
    assert parse_polynomial("1 + x*z", R3) == 1 + X * Z
    assert parse_polynomial("x*u + y*v", R4) == X4 * U4 + Y4 * V4
    assert parse_polynomial("-3/2*x^2*y + x - 7", R3) == (
        Fraction(-3, 2) * X**2 * Y + X - 7
    )


def test_parse_parentheses_and_powers():
    assert parse_polynomial("(x + y)^2", R3) == X**2 + 2 * X * Y + Y**2
    assert parse_polynomial("2^3", R3) == R3.const(8)
    assert parse_polynomial("x^0", R3) == R3.one()
    assert parse_polynomial("(-x + y)*(x + y)", R3) == Y**2 - X**2
    assert parse_polynomial("0", R3) == R3.zero()


def test_parse_leading_sign():
    assert parse_polynomial("-x", R3) == -X
    assert parse_polynomial("+x", R3) == X
    assert parse_polynomial("- 3*y", R3) == -3 * Y


def test_implicit_multiplication_is_an_identifier():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("xy + 1", R3)
    assert "xy" in str(err.value)


def test_unknown_variable_position():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x +\n  q", R3)
    assert err.value.line == 2
    assert err.value.col == 3


def test_syntax_errors():
    for bad in ("x +", "* x", "x ^ y", "(x", "x)", "1/0", "x^-2", "x & y", ""):
        with pytest.raises(PolyParseError):
            parse_polynomial(bad, R3)


def test_only_ascii_digits_are_numbers():
    for bad in ("x^\u00b2", "x^\u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(bad, R3)
        assert "unexpected character" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 3)


def test_division_only_in_rationals():
    with pytest.raises(PolyParseError):
        parse_polynomial("x/2", R3)


def test_format_examples():
    assert str(R3.zero()) == "0"
    assert str(X**2 - Y**2) == "x^2 - y^2"
    assert str(-X + 1) == "-x + 1"
    assert str(Fraction(3, 2) * X * Y**2) == "3/2*x*y^2"
    assert str(R3.const(-7)) == "-7"
    # unit coefficients over the denominator 1
    assert str(-X * Y + 1) == "-x*y + 1"
    assert str(R3.const(-1)) == "-1"
    # a term over the denominator 2 that reduces to an integer
    assert str((X + 2) * Fraction(1, 2)) == "1/2*x + 1"
    assert str(X * (2**64 + 1) - 3) == "18446744073709551617*x - 3"


def test_format_descending_grevlex():
    p = Y**2 + X**2 + X * Y + X + 1
    assert str(p) == "x^2 + x*y + y^2 + x + 1"


def test_format_multi_letter_names():
    ring = Ring(("alpha", "b2", "c_"))
    a, b, c = ring.gens()
    p = Fraction(-1, 3) * a**2 * b + a * c**3 - c + 1
    assert str(p) == "alpha*c_^3 - 1/3*alpha^2*b2 - c_ + 1"
    assert str(-(a**12) + Fraction(5, 2) * b * c) == "-alpha^12 + 5/2*b2*c_"
    # a name that is a prefix of another
    x, x1, xx = Ring(("x", "x1", "xx")).gens()
    assert str(x * x1**2 - xx + x) == "x*x1^2 + x - xx"


# 1 to 4 variables, with names of more than one letter
NAMED_RINGS = [Ring(("alpha",)), Ring(("x1", "yy")), Ring(("u", "v_2", "Wz")), Ring(("a_b", "c", "d12", "e_"))]


def test_format_matches_the_reference_printer_random():
    rng = random.Random(63)
    seen = Counter()
    for trial in range(800):
        ring = NAMED_RINGS[trial % 4]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.choice((0, 0, 1, 1, 2, 7, 12)) for _ in range(ring.arity))
            num = rng.choice((-1, 1, rng.randint(-40, 40), rng.randint(-(10**30), 10**30)))
            terms[exps] = Fraction(num, rng.choice((1, 1, 2, 3, 12)))
        p = Polynomial(ring, terms)
        assert str(p) == reference_str(p)
        coefficients = dict(p.terms())
        seen["zero"] += p.is_zero
        seen["negative lead"] += next(iter(coefficients.values()), 0) < 0
        for exps, c in coefficients.items():
            seen["constant term"] += not any(exps)
            seen["unit coefficient"] += any(exps) and abs(c) == 1
            seen["denominator"] += c.denominator > 1
            seen["exponent 1"] += 1 in exps
            seen["exponent above 1"] += max(exps) > 1
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


def test_round_trip_random():
    rng = random.Random(61)
    rings = [R3, R4, Ring(("a",)), Ring(("x1", "x2", "x3"))]
    for _ in range(500):
        ring = rng.choice(rings)
        p = rand_poly(rng, ring, max_degree=4, max_terms=5, coeff_bound=9)
        assert parse_polynomial(str(p), ring) == p


def test_round_trip_preserves_canonical_text():
    rng = random.Random(62)
    for _ in range(100):
        p = rand_poly(rng, R4, max_degree=3, max_terms=4)
        text = str(p)
        assert str(parse_polynomial(text, R4)) == text


def test_nesting_bound():
    from gaql.exprs import MAX_NESTING

    deep = "(" * MAX_NESTING + "x + 1" + ")" * MAX_NESTING
    assert parse_polynomial(f"2*{deep}^2", R3) == 2 * (X + 1) ** 2
    for depth in (MAX_NESTING + 1, 300, 10_000):
        src = "y + " + "(" * depth + "x" + ")" * depth
        with pytest.raises(PolyParseError, match=f"nested more than {MAX_NESTING} deep") as info:
            parse_polynomial(src, R3)
        assert (info.value.line, info.value.col) == (1, 5 + MAX_NESTING)


# (source, message, line, column) for every kind of PolyParseError; a line
# is ended by "\n" alone, and every other character takes one column
ERROR_POSITIONS = [
    ("x & y", "unexpected character '&'", 1, 3),
    # the whole source is scanned first: a bad character wins over an earlier syntax error
    ("x + * y\n  $", "unexpected character '$'", 2, 3),
    ("(x +\n y) )\n§", "unexpected character '§'", 3, 1),
    # a name of Unicode letters and digits is an unknown variable
    ("ñ + x", "unknown variable 'ñ'", 1, 1),
    ("x*ñy", "unknown variable 'ñy'", 1, 3),
    ("x²", "unknown variable 'x²'", 1, 1),
    # a digit other than 0-9 starts neither a number nor a name
    ("x + ٣", "unexpected character '٣'", 1, 5),
    ("2²", "unexpected character '²'", 1, 2),
    ("(x +\n y", "expected ')', found 'end of input'", 2, 3),
    ("x +\n", "expected a value, found 'end of input'", 2, 1),
    ("", "expected a value, found 'end of input'", 1, 1),
    ("x^-2", "expected 'number', found '-'", 1, 3),
    ("x y", "unexpected trailing input 'y'", 1, 3),
    ("x)", "unexpected trailing input ')'", 1, 2),
    ("x + 3/0", "zero denominator", 1, 7),
    ("3/\n  00", "zero denominator", 2, 3),
    ("(" * 101 + "x" + ")" * 101, "parentheses nested more than 100 deep", 1, 101),
    ("\tq", "unknown variable 'q'", 1, 2),
    ("x +\r\n\r q", "unknown variable 'q'", 2, 3),
    ("x　q", "unexpected trailing input 'q'", 1, 3),
]


@pytest.mark.parametrize("src, message, line, col", ERROR_POSITIONS)
def test_error_message_and_position(src, message, line, col):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(src, R3)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{message} (line {line}, column {col})", line, col
    )


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="no limit on integer string conversion")
def test_number_past_the_digit_limit_is_a_positioned_error():
    digits = "9" * (_INT_DIGIT_LIMIT + 700)
    message = f"a number of more than {_INT_DIGIT_LIMIT} digits"
    for src, line, col in ((f"x + {digits}", 1, 5), (f"x^{digits}", 1, 3), (f"y -\n 1/{digits}", 2, 4)):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(src, R3)
        assert (str(err.value), err.value.line, err.value.col) == (
            f"{message} (line {line}, column {col})", line, col
        )
