import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import reduce as fold
from math import gcd, lcm
from operator import add, le, mul

import pytest

from conftest import (
    cofactor_det,
    jacobian_rows,
    leading_term,
    packed_monomial,
    rand_division_case,
    rand_nonzero_poly,
    rand_poly,
    reference_compose,
    reference_partial_derivative,
    reference_product,
)
from gaql.exprs import parse_polynomial
from gaql.geometry import fiber_probe
from gaql.groebner import GREVLEX, LEX, block_order, reduce
from gaql.poly import (
    NEG_INF,
    PolyMap,
    Polynomial,
    Ring,
    MonomialOrder,
    RingMismatchError,
    _Overflow,
    _product_layout,
    det,
    embed,
    grevlex_key,
)

R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(())
    with pytest.raises(ValueError):
        Ring(("x", "x"))
    with pytest.raises(ValueError):
        Ring(("x", ""))
    with pytest.raises(ValueError):
        Ring(("x", "3y"))


def test_basic_arithmetic():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    p = 3 * X * Z + Y
    assert p + R3.zero() == p
    assert (1 + X * Z) * Y == Y + X * Y * Z


def test_ring_mismatch_is_structured():
    with pytest.raises(RingMismatchError):
        X + X4


def test_scalar_coercion():
    assert 2 * X + X == 3 * X
    assert X - 1 == X + R3.const(-1)
    assert (X + Fraction(1, 2)) * 2 == 2 * X + 1
    # an int or Fraction operand gives the stored form of the sum with its
    # constant polynomial, and the value of the Fraction terms with the
    # constant term moved, built by the constructor
    rng = random.Random(23)
    zero = (0, 0, 0)
    for _ in range(300):
        p = rand_poly(rng, R3)
        cancel = p.constant_value()
        frac = Fraction(rng.randrange(-29, 30, 2), rng.choice([2, 4, 6]))  # den > 1
        for c in (0, rng.randint(-9, 9), frac, cancel, -cancel):
            k = R3.const(c)
            terms = dict(p.terms())
            plus = Polynomial(R3, {**terms, zero: terms.get(zero, 0) + c})
            minus = Polynomial(R3, {**{e: -v for e, v in terms.items()}, zero: c - terms.get(zero, 0)})
            for got, want, value in ((p + c, p + k, plus), (c + p, k + p, plus),
                                     (p - c, p - k, -minus), (c - p, k - p, minus)):
                assert (got._num, got._den, hash(got)) == (want._num, want._den, hash(want))
                assert got == value and list(got.terms()) == list(value.terms())


def test_zero_terms_dropped():
    p = X + Y - X
    assert p == Y
    assert p.num_terms() == 1
    assert (X - X).is_zero


def test_constant_hashes_like_its_value():
    assert hash(R3.one()) == hash(1)
    assert 1 in {R3.one()}
    assert R3.const(Fraction(1, 2)) in {Fraction(1, 2)}
    assert hash(R3.zero()) == hash(0)


def test_only_zero_is_falsy():
    assert not R3.zero()
    assert not (X - X)
    assert R3.one()
    assert X - Y


@pytest.mark.parametrize(
    "call",
    [
        lambda: R3.const(0.1),
        lambda: Polynomial(R3, {(0, 0, 0): 1, (1, 0, 0): 0.5}),
        lambda: X.evaluate([0.1, 0, 0]),
        lambda: PolyMap(R3, (X, Y)).evaluate([0, 0.5, 0]),
        lambda: Polynomial(R3, {(1, 0, 0): 0.5}),
        lambda: X.mul_monomial((1, 0, 0), 0.25),
        lambda: Polynomial(R3, {(0, 0, 0): 1, (1.5, 0, 0): 1}),
        lambda: Polynomial(R3, {(1.0, 0, 0): 1}) * (X + 1),
        lambda: Y.mul_monomial((0.5, 0, 0), 1),
        lambda: X + 0.5,
        lambda: 0.5 + X,
        lambda: X - 0.5,
        lambda: 0.5 - X,
    ],
    # the from_terms entries build from a terms mapping whose float is past
    # its first term
    ids=[
        "const",
        "from_terms",
        "evaluate",
        "polymap_evaluate",
        "constructor",
        "mul_monomial",
        "from_terms_exponent",
        "constructor_exponent",
        "mul_monomial_exponent",
        "add",
        "radd",
        "sub",
        "rsub",
    ],
)
def test_floats_are_rejected(call):
    with pytest.raises(TypeError, match="float"):
        call()


_STRING_ENTRY_POINTS = {
    "const": lambda text: R3.const(text),
    "from_terms": lambda text: Polynomial(R3, {(0, 0, 0): 1, (1, 0, 0): text}),
    "constructor": lambda text: Polynomial(R3, {(1, 0, 0): text}),
    "evaluate": lambda text: X.evaluate([text, 0, 0]),
    "polymap_evaluate": lambda text: PolyMap(R3, (X, Y)).evaluate([text, 0, 0]),
    "mul_monomial": lambda text: X.mul_monomial((1, 0, 0), text),
}


@pytest.mark.parametrize("call", _STRING_ENTRY_POINTS.values(), ids=_STRING_ENTRY_POINTS.keys())
def test_decimal_exponent_is_bounded_at_every_entry_point(call):
    # Fraction("1e3000000") alone takes seconds; the exponent is refused first
    for text in ("1e4301", "-7E+4301", "2.5e-04301"):
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            call(text)
    assert call("1e4300") == call(10**4300)
    assert call("1e-4300") == call(Fraction(1, 10**4300))


@pytest.mark.parametrize("call", _STRING_ENTRY_POINTS.values(), ids=_STRING_ENTRY_POINTS.keys())
def test_digit_grouping_underscores_on_every_python(call):
    # Fraction accepts "1_000" only from Python 3.11; the library's grammar
    # takes `_` between two digits on every version and refuses it elsewhere
    for text, value in (("1_000", 1000), ("-2.5E-4_3", Fraction(-25, 10**44)), ("1_0/2_0", Fraction(1, 2))):
        assert call(text) == call(value)
    for text in ("1__0", "_1", "1_", "1_.5", "1._5", "1_/2", "1e_5", "1_e5"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            call(text)


def test_constructor_stores_fractions():
    p = Polynomial(R3, {(1, 0, 0): 2, (0, 0, 0): Fraction(1, 2)})
    assert [type(c) for _, c in p.terms()] == [Fraction, Fraction]
    assert type(X.mul_monomial((0, 1, 0), 3).coefficient((1, 1, 0))) is Fraction


def _oracle_product(p, q):
    """Term list of p*q by `reference_product`, the schoolbook Fraction
    double loop, in descending grevlex order by `grevlex_key`."""
    product = reference_product(p, q)
    terms = [(e, product.coefficient(e)) for e in product._num]
    return sorted(terms, key=lambda t: grevlex_key(t[0]), reverse=True)


def test_product_matches_fraction_oracle_random():
    rng = random.Random(8)
    for trial in range(200):
        n = 1 + trial % 8
        ring = Ring(tuple(f"x{i}" for i in range(n)))

        def rand():
            terms = {}
            for _ in range(rng.randint(1, 8)):
                exps = tuple(rng.randint(0, 4) for _ in range(n))
                terms[exps] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            return Polynomial(ring, terms)

        p, q = rand(), rand()
        product = p * q
        assert list(product.terms()) == _oracle_product(p, q)
        assert all(type(c) is Fraction for _, c in product.terms())


def test_product_cancellation_and_scalars():
    p = X**2 * Fraction(1, 3) - Y * Z + Fraction(5, 7)
    assert (p * p - p * p).is_zero
    assert list(((X + 1) * (X - 1)).terms()) == [((2, 0, 0), 1), ((0, 0, 0), -1)]
    assert (p * R3.zero()).is_zero and (R3.zero() * p).is_zero
    assert (p * 0).is_zero
    assert list((p * 3).terms()) == [(e, 3 * c) for e, c in p.terms()]
    assert list((Fraction(-2, 9) * p).terms()) == [(e, Fraction(-2, 9) * c) for e, c in p.terms()]
    assert p * R3.const(Fraction(7, 4)) == Fraction(7, 4) * p


def test_product_wide_exponents():
    R2 = Ring(("x", "y"))
    big = Polynomial(R2, {(2**17, 0): 1})
    assert list((big * big).terms()) == [((2**18, 0), 1)]
    huge = Polynomial(R2, {(2**70, 0): 3})
    y = R2.var(1)
    assert list((huge * y * huge).terms()) == [((2**71, 1), 9)]
    # fields must not carry: x^(2^70) + y times x^(2^70) + 1
    p = Polynomial(R2, {(2**70, 0): 1, (0, 1): 1})
    q = Polynomial(R2, {(2**70, 0): 1, (0, 0): 1})
    assert list((p * q).terms()) == _oracle_product(p, q)


def test_square_matches_the_rectangular_product_random():
    """p * p walks each pair of terms once; a distinct copy of p, equal but
    not the same object, takes the loop over every ordered pair."""
    rng = random.Random(65)
    for trial in range(400):
        ring = Ring(tuple(f"x{i}" for i in range(1 + trial % 4)))
        kind = trial % 5
        if kind == 0:
            p = ring.zero()
        elif kind == 1:
            p = ring.const(Fraction(rng.choice((-7, -1, 1, 3)), rng.randint(1, 6)))
        elif kind == 2:
            exps = tuple(rng.randint(0, 5) for _ in range(ring.arity))
            p = Polynomial(ring, {exps: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))})
        else:
            p = rand_poly(rng, ring, max_degree=5, max_terms=12, coeff_bound=20)
        twin = copy.copy(p)
        assert twin is not p and twin == p
        square = p * p
        assert square == p * twin == twin * p
        assert list(square.terms()) == _oracle_product(p, p)
        assert p**2 == square
        # the square path scales as the rectangular one does
        layout = _product_layout(ring.arity, 2 * max(map(sum, p._num), default=0))
        packed = [*layout.pack_all(p._num).items()]
        acc = {}
        layout.add_product(acc, packed, packed, -3)
        assert layout.to_polynomial(ring, acc, p.integer_form()[0] ** 2) == -3 * square


# 2^k - 1, 2^k and 2^k + 1 for k = 3..8
DEGREES_NEAR_POWERS_OF_TWO = [2**k + s for k in range(3, 9) for s in (-1, 0, 1)]


def test_square_cancellation_and_wide_exponents():
    R2 = Ring(("x", "y"))
    x, y = R2.gens()
    # the diagonal term (xy)^2 cancels against the cross term 2 * x^2 * (-1/2 y^2)
    p = x**2 + x * y - Fraction(1, 2) * y**2
    assert str(p * p) == "x^4 + 2*x^3*y - x*y^3 + 1/4*y^4"
    # the square's x^400 takes a field wider than its operand's x^200
    for e in (200, 2**70):
        p = Polynomial(R2, {(e, 0): 1, (0, 1): 1})
        assert list((p * p).terms()) == [((2 * e, 0), 1), ((e, 1), 2), ((0, 2), 1)]
        assert p * p == p * copy.copy(p)
    # product degrees d at and next to 2^k, where the fields gain a bit: x^d
    # fills its field, and y^(d - 1) = y^a * y^(d - 1 - a) nearly does
    for d in DEGREES_NEAR_POWERS_OF_TWO:
        a = d // 2
        p = Polynomial(R2, {(a, 0): 1, (1, a - 1): -2, (0, a): Fraction(1, 3), (0, 0): 5})
        q = p * x ** (d - 2 * a) + y ** (d - 1 - a)
        for left, right in ((p, p), (p, copy.copy(p)), (p, q), (q, p)):
            want = reference_product(left, right)
            assert left * right == want, d
        assert (p * q).total_degree() == d and (p * q).degree_in(0) == d


def test_power_is_the_product_of_distinct_copies_random():
    x2, y2 = R2.gens()
    rng = random.Random(66)
    bases = [rand_poly(rng, Ring(tuple(f"x{i}" for i in range(1 + trial % 3))), max_degree=3, max_terms=4)
             for trial in range(60)]
    for p in bases + [R3.zero(), R3.const(Fraction(-3, 2))]:
        for n in range(14):
            product = fold(mul, [copy.copy(p) for _ in range(n)], p.ring.one())
            assert p**n == product
    # powers of degree d at and next to 2^k, where the fields gain a bit: a
    # linear base to the d-th power, and a binomial of degree 3 or 4 where d
    # has that factor, against the product of n - 1 distinct copies times
    # one more, taken by the code and by the Fraction reference
    for d in DEGREES_NEAR_POWERS_OF_TWO:
        bases = [(x2 - Fraction(1, 2) * y2, d)]
        bases += [(x2**2 * y2 - 3 * y2**3, d // 3)] if d % 3 == 0 else []
        bases += [(x2**4 - 2 * x2 * y2, d // 4)] if d % 4 == 0 else []
        for p, n in bases:
            below = fold(mul, [copy.copy(p) for _ in range(n - 1)])
            assert p**n == below * copy.copy(p) == reference_product(below, p), d
            assert (p**n).total_degree() == d
    # a one-term base: exponents scale by n, which no field of 8 bits holds;
    # 2**1100 takes more squarings than the interpreter's recursion limit
    for n, sign in itertools.product((2**70, 2**1100), (1, -1)):
        assert (sign * X * Z**2) ** n == Polynomial(R3, {(n, 0, 2 * n): 1})
        assert (sign * X * Z**2) ** (n + 1) == Polynomial(R3, {(n + 1, 0, 2 * n + 2): sign})


def test_compose_matches_evaluation_random():
    rng = random.Random(9)
    two = Ring(("a", "b"))
    for _ in range(40):
        p = rand_poly(rng, R3, max_degree=4, max_terms=5)
        images = [rand_poly(rng, two, max_degree=3, max_terms=4) for _ in range(3)]
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        composed = p.compose(images)
        assert composed.evaluate(pt) == p.evaluate([g.evaluate(pt) for g in images])
    # product degrees d at and next to 2^k; z is unused, and its image has
    # a higher degree than the composition, so its exponents fit no field
    a, b = two.gens()
    for d in DEGREES_NEAR_POWERS_OF_TWO:
        p = X ** (d - 2) * Y - 3 * X**2 + Fraction(1, 2) * Y
        images = [a - 2 * b, Fraction(2, 3) * a * b, a ** (2 * d) - b]
        composed = p.compose(images)
        assert composed == reference_compose(p, images), d
        assert composed.total_degree() == d
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        assert composed.evaluate(pt) == p.evaluate([g.evaluate(pt) for g in images])


def test_compose_matches_the_term_by_term_reference_random():
    rng = random.Random(10)
    seen = dict.fromkeys(("zero image", "constant image", "zero p", "constant p"), 0)
    for _ in range(300):
        source = Ring(("x", "y", "z", "w")[: rng.randint(1, 4)])
        target = Ring(("a", "b", "c")[: rng.randint(1, 3)])
        images = []
        for _ in range(source.arity):
            kind = rng.random()
            if kind < 0.15:
                images.append(target.zero())
            elif kind < 0.3:
                images.append(target.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
            else:
                images.append(rand_poly(rng, target, max_degree=3, max_terms=4))
        kind = rng.random()
        if kind < 0.1:
            p = source.zero()
        elif kind < 0.2:
            p = source.const(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
        else:
            p = rand_poly(rng, source, max_degree=4, max_terms=5)
        composed = p.compose(images)
        assert composed.ring == target
        assert composed == reference_compose(p, images), (p, images)
        for _ in range(2):
            pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(target.arity)]
            assert composed.evaluate(pt) == p.evaluate([g.evaluate(pt) for g in images])
        seen["zero image"] += any(g.is_zero for g in images)
        seen["constant image"] += any(g.is_constant and not g.is_zero for g in images)
        seen["zero p"] += p.is_zero
        seen["constant p"] += p.is_constant and not p.is_zero
    assert min(seen.values()) >= 20, seen


def test_partial_derivative():
    assert (X**2).partial_derivative(0) == 2 * X
    assert (X4 * U4 + Y4 * V4).partial_derivative(2) == X4
    assert R3.const(5).partial_derivative(1) == R3.zero()
    with pytest.raises(IndexError):
        X.partial_derivative(3)


def test_partial_derivative_matches_the_term_by_term_reference_random():
    rng = random.Random(35)
    polys = [R3.zero(), R3.const(Fraction(7, 3)), R4.zero(), R4.const(-2)]
    polys += [rand_poly(rng, (R3, R4)[trial % 2], max_degree=5, max_terms=6) for trial in range(100)]
    for p in polys:
        for i in range(p.ring.arity):
            assert p.partial_derivative(i) == reference_partial_derivative(p, i)


def test_compose_identity_and_substitution():
    assert X.compose(list(R3.gens())) == X
    t_ring = Ring(("t",))
    t = t_ring.var(0)
    two = Ring(("a", "b"))
    p = two.var(0) + two.var(1)
    assert p.compose([t**2, t**3]) == t**2 + t**3
    # an exponent that takes more squarings than the recursion limit
    n = 2**1100
    assert Polynomial(two, {(n, 1): 1}).compose([-t, t**2]) == Polynomial(t_ring, {(n + 2,): 1})


def test_compose_group_action_invariant():
    # substitute the flow (x, y, u - t*y, v + t*x) into x*u + y*v
    ext = Ring(("x", "y", "u", "v", "t"))
    x, y, u, v, t = ext.gens()
    p = X4 * U4 + Y4 * V4
    images = [x, y, u - t * y, v + t * x]
    assert p.compose(images) == x * u + y * v


def test_evaluate():
    assert (1 + X * Z).evaluate([0, 0, 0]) == 1
    assert R3.zero().evaluate([1, 2, 3]) == 0
    assert (X4 * U4 + Y4 * V4).evaluate([1, 1, 2, 3]) == 5
    with pytest.raises(ValueError):
        X.evaluate([1, 2])


def test_evaluate_is_hom():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng, R3)
        q = rand_poly(rng, R3)
        a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
        assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(100):
        p, q, r = (rand_poly(rng, R3) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_leibniz_rule_random():
    rng = random.Random(2)
    for _ in range(100):
        p, q = rand_poly(rng, R3), rand_poly(rng, R3)
        i = rng.randrange(3)
        lhs = (p * q).partial_derivative(i)
        rhs = p * q.partial_derivative(i) + q * p.partial_derivative(i)
        assert lhs == rhs


def test_compose_associativity_random():
    rng = random.Random(3)
    two = Ring(("a", "b"))
    for _ in range(30):
        p = rand_poly(rng, two, max_degree=2, max_terms=3)
        g = [rand_poly(rng, two, max_degree=2, max_terms=2) for _ in range(2)]
        h = [rand_poly(rng, two, max_degree=2, max_terms=2) for _ in range(2)]
        lhs = p.compose(g).compose(h)
        rhs = p.compose([gi.compose(h) for gi in g])
        assert lhs == rhs


def test_degrees():
    assert R3.zero().total_degree() == NEG_INF
    assert (X * Y**2 + Z).total_degree() == 3
    assert (X * Y**2 + Z).degree_in(1) == 2
    assert R3.one().total_degree() == 0


def test_grevlex_term_order_iteration():
    p = Y**2 + X**2 + X * Y + X + 1
    monomials = [e for e, _ in p.terms()]
    assert monomials == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 0), (0, 0, 0)]
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))


def test_terms_come_in_descending_grevlex_key_order_random():
    rng = random.Random(64)
    for trial in range(300):
        ring = Ring(tuple(f"x{i}" for i in range(1 + trial % 5)))
        p = rand_poly(rng, ring, max_degree=6, max_terms=12)
        monomials = [e for e, _ in p.terms()]
        assert monomials == sorted(p._num, key=grevlex_key, reverse=True)


def test_jacobian_det_identity_and_repeat():
    assert det(jacobian_rows(R3.gens())) == R3.one()
    f = X + Y * Z
    assert det(jacobian_rows([f, f, Z])) == R3.zero()


def test_jacobian_det_slice_of_bilinear_map():
    # rows (u, x, y, x*u + y*v), variables ordered (x, y, u, v)
    rows = jacobian_rows([U4, X4, Y4, X4 * U4 + Y4 * V4])
    assert det(rows) == Y4
    assert cofactor_det(rows) == Y4


def test_det_matches_cofactor_oracle_random():
    rng = random.Random(4)
    for n in (2, 3, 4):
        ring = Ring(tuple(f"x{i}" for i in range(n)))
        for _ in range(15):
            fs = [rand_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(n)]
            rows = jacobian_rows(fs)
            assert det(rows) == cofactor_det(rows)


def test_jacobian_alternating_random():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        ring = Ring(tuple(f"x{i}" for i in range(n)))
        fs = [rand_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(n)]
        base = det(jacobian_rows(fs))
        i, j = rng.sample(range(n), 2)
        swapped = list(fs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det(jacobian_rows(swapped)) == -base
        repeated = list(fs)
        repeated[i] = repeated[j]
        assert det(jacobian_rows(repeated)).is_zero


def test_maximal_minors_match_cofactor_oracle_random():
    rng = random.Random(6)
    for n in (3, 4):
        ring = Ring(tuple(f"x{i}" for i in range(n)))
        for _ in range(10):
            fs = [rand_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(n - 1)]
            jac = [[f.partial_derivative(j) for j in range(n)] for f in fs]
            want = tuple(cofactor_det([row[:j] + row[j + 1 :] for row in jac]) for j in range(n))
            assert PolyMap(ring, fs).maximal_minors() == want
    # 1 x 1 minors; a constant component, a zero Jacobian row; a map free
    # of z, a zero Jacobian column in every minor but the one dropping it
    R2 = Ring(("x", "y"))
    x, y = R2.gens()
    assert PolyMap(R2, (x**2 * y - 3 * y,)).maximal_minors() == (x**2 - 3, 2 * x * y)
    assert PolyMap(R3, (X * Y + Z, R3.const(5))).maximal_minors() == (R3.zero(),) * 3
    assert PolyMap(R3, (X * Y, X + Y**2)).maximal_minors() == (R3.zero(), R3.zero(), 2 * Y**2 - X)


def _gauss_det(matrix):
    """Determinant of a square matrix of Fractions by Gaussian elimination
    with row swaps, an oracle for `det` that shares no code with it."""
    m = [list(row) for row in matrix]
    n, value = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            value = -value
        value *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return value


def test_det_matches_gaussian_elimination_at_rational_points_random():
    # matrices up to 5 x 5 with small and with large fractional entries,
    # about one entry in five zero, so zero entries and zero minors are
    # skipped; det's value at a point is the determinant of the values
    rng = random.Random(27)
    for n in range(1, 6):
        for big in (False, True):
            for _ in range(4):
                ring = Ring(("x", "y", "z")[: rng.randint(1, 3)])
                primes = _distinct_primes(rng, 3 * n * n) if big else None

                def entry():
                    if rng.random() < 0.2:
                        return ring.zero()
                    if big:
                        return _rand_big_poly(rng, ring, primes, max_degree=1, max_terms=3)
                    return rand_poly(rng, ring, max_degree=2, max_terms=3)

                rows = [[entry() for _ in range(n)] for _ in range(n)]
                d = det(rows)
                for _ in range(3):
                    pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in ring.variables]
                    assert d.evaluate(pt) == _gauss_det([[e.evaluate(pt) for e in row] for row in rows])


DIVISION_ORDERS = [GREVLEX, LEX, block_order(1)]


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=str)
def test_divide_rebuilds_p_with_an_irreducible_remainder_random(order):
    rng = random.Random(14)
    for _ in range(300):
        p, divisors = rand_division_case(rng, order)
        quotients, r = _divide_oracle(p, divisors, order.key, Counter())
        assert reduce(p, divisors, order) == r
        rebuilt = r
        for q, d in zip(quotients, divisors):
            rebuilt = rebuilt + Polynomial(p.ring, q) * d
        assert rebuilt == p
        lms = [leading_term(d, order)[0] for d in divisors]
        for e, _ in r.terms():
            assert not any(all(a <= b for a, b in zip(lm, e)) for lm in lms)


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=str)
def test_divide_exact_multiples_random(order):
    rng = random.Random(15)
    for _ in range(100):
        ring = Ring(("x", "y", "z", "w")[: rng.randint(1, 4)])
        p, q = rand_poly(rng, ring), rand_nonzero_poly(rng, ring, max_degree=2)
        assert reduce(p * q, [q], order).is_zero
        (quotient,), r = _divide_oracle(p * q, [q], order.key, Counter())
        assert Polynomial(ring, quotient) == p and r.is_zero
        if not q.is_constant:
            assert not reduce(p * q + 1, [q], order).is_zero


def test_jacobian_det_shape_errors():
    with pytest.raises(ValueError):
        det(jacobian_rows([X, Y]))  # 2 x 3
    with pytest.raises(ValueError):
        det([])
    with pytest.raises(RingMismatchError):
        det([[X, Y], [X4, Y4]])  # mixed rings


def test_embed_by_name():
    big = Ring(("t", "x", "y", "z"))
    q = embed(X * Y + 1, big)
    assert q.ring == big
    assert q == big.var(1) * big.var(2) + 1
    # into a ring lacking a variable that does not occur
    wide = Ring(("x", "y", "t_"))
    x, y, t = wide.gens()
    narrow = Ring(("y", "x"))
    q = embed(x * y + 1, narrow)
    assert q.ring == narrow and q == narrow.var(0) * narrow.var(1) + 1
    assert embed(wide.const(Fraction(3, 2)), Ring(("a",))) == Fraction(3, 2)
    with pytest.raises(KeyError, match="t_"):
        embed(x * t + 1, narrow)


def test_embed_projects_onto_the_trailing_variables_like_a_slice():
    """The projection subalgebra_membership makes of a normal form in the
    tag variables alone equals slicing off the leading exponents."""
    rng = random.Random(41)
    big = Ring(("x", "y", "t1", "t2"))
    tags = Ring(("t1", "t2"))
    for _ in range(20):
        nf = embed(rand_poly(rng, tags), big)
        sliced = Polynomial(tags, {e[2:]: c for e, c in nf.terms()})
        assert embed(nf, tags) == sliced


def test_polymap_validation_and_helpers():
    F = PolyMap(R4, (X4, Y4, X4 * U4 + Y4 * V4))
    assert F.target_names == ("t1", "t2", "t3")
    assert len(F.maximal_minors()) == 4
    assert F.evaluate([1, 1, 2, 3]) == (1, 1, 5)
    with pytest.raises(ValueError):
        PolyMap(R4, (X4,), target_names=("a", "b"))
    with pytest.raises(ValueError):
        PolyMap(R4, (X4, Y4), target_names=("a", "a"))
    G = PolyMap(R3, (X,))
    with pytest.raises(ValueError, match="expected 2 components over a 3-variable ring, got 1"):
        G.maximal_minors()


def test_immutability():
    p = X + Y
    for name in ("ring", "_num", "_den", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, R4)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == X + Y and hash(p) == hash(X + Y)


def _head_oracle(p, key):
    lm = max((e for e, _ in p.terms()), key=key)
    lc = p.coefficient(lm)
    return lm, lc, [(e, c / lc) for e, c in p.terms() if e != lm]


def test_value_does_not_depend_on_term_insertion_order_random():
    # one value built from shuffled dicts or unreduced coefficients, and
    # reached through arithmetic whose denominators cancel, must look the
    # same to every observer, and values with other terms must differ
    orders = [GREVLEX, LEX, block_order(1)]
    rng = random.Random(19)
    previous = R4.zero()
    for _ in range(100):
        p = rand_nonzero_poly(rng, R4, max_degree=4, max_terms=8)
        items = list(p.terms())
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        den, num = p.integer_form()
        twins = [
            p + X4 - X4,
            (p * 2) * Fraction(1, 2),
            (p * Fraction(2, 3)) * Fraction(3, 2),
            p + c - c,
            Polynomial(R4, {e: f"{2 * v.numerator}/{2 * v.denominator}" for e, v in items}),
            pickle.loads(pickle.dumps(p)),
            Polynomial._from_integers(R4, {e: 6 * n for e, n in num.items()}, 6 * den),
        ]
        for _ in range(3):
            rng.shuffle(items)
            twins.append(Polynomial(R4, dict(items)))
        descending = sorted(items, key=lambda t: grevlex_key(t[0]), reverse=True)
        for q in twins:
            assert q == p and hash(q) == hash(p) and str(q) == str(p)
            assert list(q.terms()) == list(p.terms()) == descending
            for order in orders:
                assert leading_term(q, order) == leading_term(p, order)
        if list(p.terms()) != list(previous.terms()):
            assert p != previous and previous != p
        previous = p
    for _ in range(200):
        c = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        assert R4.const(c) == c and hash(R4.const(c)) == hash(c)


def _distinct_primes(rng, count):
    """count distinct random primes below 10**6, so pairwise coprime."""
    primes = set()
    while len(primes) < count:
        n = rng.randrange(1000, 10**6)
        if all(n % k for k in range(2, int(n**0.5) + 1)):
            primes.add(n)
    return list(primes)


def _rand_big_poly(rng, ring, primes, **kw):
    """A random nonzero polynomial whose coefficients have numerators up to
    10**30, either sign, each over its own prime taken from primes."""
    shape = rand_nonzero_poly(rng, ring, **kw)
    return Polynomial(
        ring,
        {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**30), primes.pop()) for e, _ in shape.terms()},
    )


def test_head_is_an_integer_monic_form_random():
    # the packed head (lm, a, tail, top) of `_Layout.head_of`, for every
    # order: p = lc * (x^lm + tail/a) with lm the leading monomial, a > 0,
    # tail integers whose content is coprime to a, and top the fieldwise
    # maximum of the tail's packed monomials
    orders = [GREVLEX, LEX, block_order(1), block_order(2), block_order(3)]
    rng = random.Random(20)
    for _ in range(60):
        primes = _distinct_primes(rng, 8)
        p = _rand_big_poly(rng, R4, primes, max_degree=4, max_terms=8)
        for order in orders:
            layout = order._layout(4, 16)
            lm, a, tail, top = layout.head_of(p)
            want_lm, lc, _ = _head_oracle(p, order.key)
            assert layout.unpack(lm) == want_lm and leading_term(p, order) == (want_lm, lc)
            assert type(a) is int and a > 0 and all(type(t) is int for _, t in tail)
            assert gcd(a, *(t for _, t in tail)) == 1
            fields = range(0, layout.guard.bit_length(), 16)
            assert top == sum(max((e >> s & 0xFFFF for e, _ in tail), default=0) << s for s in fields)
            monic = Polynomial(R4, {want_lm: 1, **{layout.unpack(e): Fraction(t, a) for e, t in tail}})
            assert monic * lc == p


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
@pytest.mark.parametrize(
    "text",
    [
        "x*y + 2*x + 3*u",  # content 1
        "6*x*y - 4*x + 10*u - 2",  # content 2
        "-6*x*y + 4*x - 10",  # content 2 under a negative lead
        "-x*y + 2*u",  # content 1 under a negative lead
        "-4*x^2*y",  # no tail
        "3*x^2*y",
        "9*x*v - 6*u^2",  # a one-term tail, content 3
        "-x*v + u^2",  # a one-term tail, content 1 under a negative lead
    ],
)
def test_head_edge_cases(order, text):
    """`_Layout.head` divides only by a content other than 1 and reads top
    off a one-term tail directly; in each case a is positive, the tail is
    the rest of p over the content signed like the lead, and top is the
    fieldwise maximum of the tail's packed monomials."""
    p = parse_polynomial(text, R4)
    layout = order._layout(4, 8)
    h = layout.pack_all(p._num)
    lm, a, tail, top = layout.head(dict(h))
    want_lm, lc, _ = _head_oracle(p, order.key)
    assert lm == max(h) and layout.unpack(lm) == want_lm
    g = gcd(*h.values()) * (1 if h[lm] > 0 else -1)
    assert a == h[lm] // g > 0
    assert sorted(tail) == sorted((e, c // g) for e, c in h.items() if e != lm)
    assert all(type(c) is int for _, c in tail)
    fields = range(0, layout.guard.bit_length(), 8)
    assert top == sum(max((e >> s & 0xFF for e, _ in tail), default=0) << s for s in fields)


def test_grevlex_key_matches_the_generator_formula_random():
    rng = random.Random(21)
    for _ in range(500):
        exps = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 6)))
        want = (sum(exps), tuple(-e for e in reversed(exps)))
        assert grevlex_key(exps) == want and GREVLEX.key(exps) == want


def test_copies_and_pickles_rebuild_from_ring_and_terms():
    import copy
    import pickle

    q = X**2 * Y - Fraction(3, 4) * Z + 1
    for p in (X * Y - Fraction(3, 4) * Z + 1, q, R3.zero(), R3.const(5)):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and hash(twin) == hash(p) and str(twin) == str(p)
            assert list(twin.terms()) == list(p.terms())
    F = PolyMap(R3, (q, X + Y))
    assert copy.deepcopy(F) == F and pickle.loads(pickle.dumps(F)) == F
    # a probed map keeps its packed components; a copy or pickle leaves them
    fiber_probe(F, (1, Fraction(-2, 3)))
    assert F._packings
    for twin in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
        assert twin == F and hash(twin) == hash(F) and not twin._packings


def test_scalar_negated_and_monomial_products_keep_grevlex_order_random():
    rng = random.Random(17)
    for _ in range(100):
        p = rand_nonzero_poly(rng, R4, max_degree=4, max_terms=8)
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        m = tuple(rng.randint(0, 2) for _ in range(R4.arity))
        shifted = {tuple(a + b for a, b in zip(e, m)): v * c for e, v in p.terms()}
        term = Polynomial(R4, {m: c})  # constant when m is all zero
        for result, want in (
            (p * c, {e: v * c for e, v in p.terms()}),
            (R4.const(c) * p, {e: v * c for e, v in p.terms()}),
            (-p, {e: -v for e, v in p.terms()}),
            (p.mul_monomial(m, c), shifted),
            (p * term, shifted),
            (term * p, shifted),
        ):
            assert list(result.terms()) == list(Polynomial(R4, want).terms())


def _divide_oracle(p, divisors, key, events):
    """The division on Fractions, with no packed monomials and no integer
    numerators: each call rebuilds the divisors' heads and each step calls
    key on every working monomial.  events counts monomials cancelled
    to zero and later created again."""
    heads = [_head_oracle(d, key) for d in divisors]
    quotients = [{} for _ in divisors]
    remainder = {}
    h = dict(p.terms())
    cancelled = set()
    while h:
        hm = max(h, key=key)
        hc = h.pop(hm)
        for (lm, lc, tail), quotient in zip(heads, quotients):
            if all(a <= b for a, b in zip(lm, hm)):
                shift = tuple(a - b for a, b in zip(hm, lm))
                quotient[shift] = hc / lc
                for te, tc in tail:
                    e = tuple(a + b for a, b in zip(te, shift))
                    was = e in h
                    c = h.pop(e, 0) - hc * tc
                    if c:
                        h[e] = c
                        events["recreated"] += not was and e in cancelled
                    else:
                        cancelled.add(e)
                break
        else:
            remainder[hm] = hc
    return quotients, Polynomial(p.ring, remainder)


@pytest.mark.parametrize("order", DIVISION_ORDERS + [block_order(2)], ids=str)
def test_divide_matches_uncached_division_random(order):
    # p is a combination of the divisors plus a few terms, so tails cancel
    # working monomials, and later steps create some of them again
    from collections import Counter

    rng = random.Random(18)
    events = Counter()
    for _ in range(150):
        p, divisors = rand_division_case(rng, order)
        for d in divisors:
            p = p + rand_poly(rng, p.ring, max_degree=2, max_terms=3) * d
        assert reduce(p, divisors, order) == _divide_oracle(p, divisors, order.key, events)[1]
        # division keeps no state between calls: a second call agrees
        assert reduce(p, divisors, order) == _divide_oracle(p, divisors, order.key, events)[1]
    assert events["recreated"] > 0


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=str)
def test_divide_matches_fraction_division_with_large_coefficients_random(order):
    # coprime prime denominators and 30-digit numerators give most divisors a
    # monic denominator a > 1 and keep the integers from cancelling
    from collections import Counter

    rng = random.Random(22)
    seen = Counter()
    for _ in range(40):
        primes = _distinct_primes(rng, 30)
        ring = Ring(("x", "y", "z", "w")[: rng.randint(1, 4)])
        divisors = [_rand_big_poly(rng, ring, primes, max_degree=2) for _ in range(rng.randint(1, 3))]
        p = _rand_big_poly(rng, ring, primes, max_degree=4)
        for d in divisors:
            p = p + _rand_big_poly(rng, ring, primes, max_degree=2, max_terms=3) * d
            # a is the denominator of d's monic form
            lc = leading_term(d, order)[1]
            a = lcm(*((c / lc).denominator for _, c in d.terms()))
            seen["negative lc"] += lc < 0
            seen["a > 1"] += a > 1
        assert reduce(p, divisors, order) == _divide_oracle(p, divisors, order.key, Counter())[1]
    assert seen["negative lc"] > 0 and seen["a > 1"] > 0


def test_det_of_large_fractional_entries_matches_cofactor_oracle_random():
    # every minor is a sum of products of large fractions with coprime
    # denominators, so the products and sums run on the integer path
    rng = random.Random(23)
    for n in (2, 3, 4):
        ring = Ring(("x", "y", "z")[: rng.randint(1, 3)])
        for _ in range(6):
            primes = _distinct_primes(rng, 3 * n * n)
            rows = [[_rand_big_poly(rng, ring, primes, max_degree=1, max_terms=3) for _ in range(n)] for _ in range(n)]
            assert det(rows) == cofactor_det(rows)


def test_packed_monomials_follow_the_order_random():
    """For n = 1..5 and every order: integer comparison of packed monomials
    is the order's, a product packs to the sum, divisibility is the
    guard-bit test, and unpacking inverts packing."""
    rng = random.Random(24)
    for n in range(1, 6):
        for order in [LEX, GREVLEX] + [block_order(k) for k in range(1, n)]:
            layout = order._layout(n, 8)
            monomials = [tuple(rng.randint(0, 12) for _ in range(n)) for _ in range(40)]
            monomials += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(20)]
            for a in monomials:
                pa = packed_monomial(layout, a)
                assert layout.unpack(pa) == a
                for b in rng.sample(monomials, 15):
                    pb = packed_monomial(layout, b)
                    assert (pa < pb) == (order.key(a) < order.key(b)), (order, a, b)
                    assert (pa == pb) == (a == b)
                    assert pa + pb == packed_monomial(layout, tuple(map(add, a, b)))
                    assert (not (pb - pa) & layout.guard) == all(x <= y for x, y in zip(a, b)), (order, a, b)
    assert order._layout(5, 8) is order._layout(5, 8)


def _split(rng, total, n):
    """A random exponent tuple of n entries summing to total."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@pytest.mark.parametrize("width", [8, 16])
def test_packed_lcm_divisibility_and_coprimality_match_tuples_random(width):
    """The fieldwise maximum, the lcm with the order's rows, the guard-bit
    divisibility test and coprimality as lcm == product, against exponent
    tuples, with fields at and next to the top of their range, where a carry
    or a borrow leaking into the next field would show."""
    rng = random.Random(26)
    for n in range(1, 5):
        for order in [LEX, GREVLEX] + [block_order(k) for k in range(1, n)]:
            layout = order._layout(n, width)
            top = (1 << layout.limit) - 1
            fields = layout.guard.bit_length() // width
            guard, exponents = layout.guard, layout.exponents

            def pack_fields(e):
                return sum(x << s for x, s in zip(e, layout.shifts))

            # exponent fields alone: any value up to top in every field
            values = [0, 1, top - 1, top]
            tuples = [tuple(rng.choice(values + [rng.randint(0, top)]) for _ in range(n)) for _ in range(30)]
            for a in tuples:
                for b in rng.sample(tuples, 10):
                    ea, eb = pack_fields(a), pack_fields(b)
                    m = layout.fieldwise_max(ea, eb)
                    assert m == pack_fields(tuple(map(max, a, b))), (order, a, b)
                    assert (not (eb - ea) & guard) == all(map(le, a, b)), (order, a, b)
                    assert (m == ea + eb) == (not any(map(min, a, b))), (order, a, b)
            # packed monomials: the degree, which bounds every field, below 1 << limit
            monomials = [_split(rng, rng.choice(values + [rng.randint(0, top)]), n) for _ in range(30)]
            for a in monomials:
                pa = packed_monomial(layout, a)
                for b in rng.sample(monomials, 10):
                    pb = packed_monomial(layout, b)
                    m = tuple(map(max, a, b))
                    # m packed with no range check: every field below 2 << limit, so no carry
                    packed = sum(map(mul, m, layout.cols))
                    if any(packed >> f * width & layout.mask > top for f in range(fields)):
                        with pytest.raises(_Overflow):
                            layout.lcm(pa, pb)
                    else:
                        assert layout.lcm(pa, pb) == packed and layout.unpack(packed) == m, (order, a, b)
                    assert layout.fieldwise_max(pa, pb) & exponents == pack_fields(m)
                    divides = all(map(le, a, b))
                    assert (not (pb - pa) & guard) == divides, (order, a, b)
                    assert (not (pb - (pa & exponents)) & guard) == divides, (order, a, b)
                    coprime = layout.fieldwise_max(pa, pb) & exponents == (pa + pb) & exponents
                    assert coprime == (not any(map(min, a, b))), (order, a, b)


R2 = Ring(("x", "y"))
X2, Y2 = R2.gens()
N64 = 2**64


def _widths(order, arity):
    """The field widths the order has packed `arity` variables at."""
    return sorted(width for a, width in order._layouts if a == arity)


@pytest.mark.parametrize(
    "kind, p, divisors, widths, overflow",
    [
        # y^130 needs more than 7 bits, so packing at 8 bits overflows
        ("lex", X2 * Y2**130 + Y2**3, [X2 * Y2 - 1, Y2**2 + X2], [8, 16], "packing"),
        # x^2 = (x + y^100)(x - y^100) + y^200, and y^200 appears mid-division
        ("lex", X2**2, [X2 - Y2**100], [8, 16], "division"),
        # the block order's second degree row reaches 130 mid-division
        (1, X**2 * Y**60, [X - Y**40 * Z**30], [8, 16], "division"),
        ("grevlex", X2**N64 * Y2 + Y2, [X2**N64 - Y2**2], [8, 16, 32, 64, 128], "packing"),
    ],
    ids=["lex-at-packing", "lex-in-division", "block", "exponent-2^64"],
)
def test_divide_restarts_at_double_width(kind, p, divisors, widths, overflow):
    order = block_order(kind) if isinstance(kind, int) else MonomialOrder(kind)  # no layout built yet
    got = reduce(p, divisors, order)
    assert got == _divide_oracle(p, divisors, order.key, Counter())[1]
    assert _widths(order, p.ring.arity) == widths
    layout = order._layout(p.ring.arity, 8)
    if overflow == "packing":
        with pytest.raises(_Overflow):
            [layout.pack_all(q._num) for q in [p] + divisors]
    else:
        [layout.pack_all(q._num) for q in [p] + divisors]
    if p == X2**2:
        assert got == Y2**200


@pytest.mark.parametrize("kind, widths", [("lex", [8]), (1, [8]), ("grevlex", [8, 16])], ids=str)
def test_packing_checks_the_largest_field(kind, widths):
    """x^70*y^70 has degree 140, but no exponent and no block degree past 70:
    lex and block(1) pack it at 8 bits, and only grevlex, whose degree row
    holds 140, restarts at 16."""
    order = block_order(kind) if isinstance(kind, int) else MonomialOrder(kind)  # no layout built yet
    p, divisors = X2**70 * Y2**70, [X2 * Y2 - 1]
    assert reduce(p, divisors, order) == _divide_oracle(p, divisors, order.key, Counter())[1]
    assert _widths(order, 2) == widths
