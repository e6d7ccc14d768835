import copy
import itertools
import math
import pickle
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from conftest import (
    _criterion_free_basis,
    _scaling_interreduce,
    _scaling_s_polynomial,
    ideal_contains,
    leading_term,
    packed_monomial,
    rand_division_case,
    rand_nonzero_poly,
    rand_poly,
)
from gaql import groebner
from gaql.groebner import (
    GREVLEX,
    LEX,
    MonomialOrder,
    _buchberger,
    _echelon_add,
    _interreduce,
    block_order,
    buchberger_criterion_holds,
    eliminate,
    groebner_basis,
    reduce,
    subalgebra_membership,
)
from gaql.geometry import fiber_probe
from gaql.poly import PolyMap, Polynomial, Ring, RingMismatchError, _Overflow, _packed, embed, grevlex_key

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("weird")
    with pytest.raises(ValueError):
        MonomialOrder("block")
    with pytest.raises(ValueError):
        MonomialOrder("lex", front_size=1)
    with pytest.raises(ValueError):
        block_order(0)
    for bad in (1.5, True):
        with pytest.raises(TypeError, match=type(bad).__name__):
            block_order(bad)


def test_order_key_is_chosen_once():
    assert GREVLEX.key is grevlex_key
    assert LEX.key is tuple
    assert block_order(2) == block_order(2) and hash(block_order(2)) == hash(block_order(2))
    assert block_order(2) != block_order(1) and block_order(2) != GREVLEX
    assert str(block_order(2)) == "block(2)"
    assert repr(GREVLEX) == "MonomialOrder(kind='grevlex', front_size=None)"


def test_leading_monomial_matches_the_order_key_random():
    """An order's `leading_monomial`, with C keys under lex and grevlex, is
    the exponent tuple of `leading_term`, which maximizes the order's key:
    on one-term, constant and random polynomials, for lex, grevlex and
    every block(1..n-1)."""
    assert LEX.leading_monomial is max
    rng = random.Random(41)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        ring = Ring(("x", "y", "z", "u", "v")[:n])
        p = rand_nonzero_poly(rng, ring, max_degree=4, max_terms=rng.choice([1, 1, 2, 6, 12]))
        if rng.random() < 0.1:
            p = ring.const(rng.randint(-9, 9) or 1)
        seen.add(min(p.num_terms(), 2) - p.is_constant)
        for order in [LEX, GREVLEX] + [block_order(k) for k in range(1, n)]:
            assert order.leading_monomial(p._num) == leading_term(p, order)[0], (p, order)
    # constants, other one-term polynomials and longer ones all ran
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("order", [LEX, GREVLEX, block_order(2)], ids=str)
def test_order_copies_and_pickles(order):
    rng = random.Random(31)
    monomials = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(50)]
    for twin in (copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
        assert twin == order and hash(twin) == hash(order) and str(twin) == str(order)
        assert [twin.key(m) for m in monomials] == [order.key(m) for m in monomials]


def test_order_axioms_random():
    """Total, 1 minimal, multiplicative on random monomial triples."""
    rng = random.Random(11)
    orders = [LEX, GREVLEX, block_order(2)]
    for _ in range(200):
        a, b, c = (
            tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(3)
        )
        for order in orders:
            ka, kb = order.key(a), order.key(b)
            assert (ka > kb) or (ka < kb) or a == b
            assert order.key((0, 0, 0, 0)) <= ka
            if ka > kb:
                shifted_a = tuple(x + y for x, y in zip(a, c))
                shifted_b = tuple(x + y for x, y in zip(b, c))
                assert order.key(shifted_a) > order.key(shifted_b)


def test_block_order_eliminates_front():
    order = block_order(1)
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def test_reduce_examples():
    assert reduce(X**2, [X], LEX).is_zero
    # both monomials of x*u + y*v - 1 die against {x, y}
    p = X4 * U4 + Y4 * V4 - 1
    assert reduce(p, [X4, Y4], LEX) == R4.const(-1)
    q = X * Y + Z
    assert reduce(q, [], GREVLEX) == q


def test_reduce_idempotent_random():
    rng = random.Random(12)
    for _ in range(40):
        p = rand_poly(rng, R3)
        basis = [rand_poly(rng, R3, max_degree=2) for _ in range(2)]
        basis = [b for b in basis if not b.is_zero]
        r = reduce(p, basis)
        assert reduce(r, basis) == r


def _polynomial_reduce(p, basis, order):
    """The normal form computed on whole Polynomial values, one division step
    at a time, re-deriving the working polynomial's leading term each step:
    the reference the coefficient-dict division must reproduce term for term."""
    divisors = [(*leading_term(b, order), b) for b in basis if not b.is_zero]
    if not divisors:
        return p
    remainder = {}
    h = p
    while not h.is_zero:
        hm, hc = leading_term(h, order)
        for bm, bc, b in divisors:
            if all(x <= y for x, y in zip(bm, hm)):
                h = h - b.mul_monomial(tuple(x - y for x, y in zip(hm, bm)), hc / bc)
                break
        else:
            remainder[hm] = hc
            h = h - Polynomial(p.ring, {hm: hc})
    return Polynomial(p.ring, remainder)


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_reduce_matches_polynomial_division_random(order):
    rng = random.Random(13)
    for _ in range(300):
        p, divisors = rand_division_case(rng, order)
        assert reduce(p, divisors, order) == _polynomial_reduce(p, divisors, order)


def _minimal(polys, order):
    """The polys whose leading monomial no other's divides, keeping the
    first of those that share one: a minimal set, as `_interreduce` takes
    from `_buchberger`."""
    lms = [leading_term(p, order)[0] for p in polys]
    return [p for i, (p, m) in enumerate(zip(polys, lms))
            if not any(_monomial_divides(n, m) and (n != m or j < i) for j, n in enumerate(lms) if j != i)]


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_interreduce_matches_scaling_by_the_leading_coefficient_random(order, monkeypatch):
    """On minimal sets: about half of a division case's divisors share an
    earlier one's leading monomial, and those are left out."""
    reduce_packed, divisions = groebner._reduce_packed, []

    def counted(*args):
        divisions.append(None)
        return reduce_packed(*args)

    monkeypatch.setattr(groebner, "_reduce_packed", counted)
    rng = random.Random(19)
    elements = 0
    for _ in range(150):
        polys = _minimal(rand_division_case(rng, order)[1], order)
        want = _scaling_interreduce(polys, order)
        got = _packed(order, polys[0].ring.arity,
                      lambda layout: _interreduce(list(map(layout.head_of, polys)), layout, polys[0].ring))
        assert got == want
        assert [list(p.terms()) for p in got] == [list(p.terms()) for p in want]
        assert all(leading_term(p, order)[1] == 1 for p in got)
        elements += len(got)
    # both branches ran: elements divided by the others, and elements left
    # as they were because no other leading monomial divides a tail term
    assert 0 < len(divisions) < elements


def test_interreduce_scans_the_tail_when_a_leading_monomial_divides_top(monkeypatch):
    """x*y divides top = x^2*y^2, the fieldwise maximum of the tail x^2,
    y^2 of x^3 + x^2 + y^2, but neither tail monomial: the scan of the tail
    runs, finds nothing to divide, and the elements are kept as they are."""
    polys = [X2**3 + X2**2 + Y2**2, 3 * X2 * Y2]
    orders = [GREVLEX, LEX, block_order(1)]
    wants = [_scaling_interreduce(polys, order) for order in orders]
    divisions = []
    monkeypatch.setattr(groebner, "_reduce_packed", lambda *args: divisions.append(args))

    def run(layout):
        heads = list(map(layout.head_of, polys))
        (_, _, _, top), (xy, *_) = heads
        assert not (top - xy) & layout.guard
        return _interreduce(heads, layout, R2)

    for order, want in zip(orders, wants):
        got = _packed(order, 2, run)
        assert got == want
        assert [list(p.terms()) for p in got] == [list(p.terms()) for p in want]
    assert not divisions


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_buchberger_hands_interreduce_a_minimal_set_random(order, monkeypatch):
    """`_interreduce` keeps every head it is given, so the live elements that
    `_buchberger` hands it must have distinct leading monomials, none
    dividing another.  Checked on every call: through groebner_basis, lex
    Buchberger called directly, and the fibers of random maps, on random
    ideals and on division cases, whose generators often share a leading
    monomial."""
    interreduce, inputs = groebner._interreduce, []

    def recorded(heads, layout, ring):
        inputs.append([layout.unpack(head[0]) for head in heads])
        return interreduce(heads, layout, ring)

    monkeypatch.setattr(groebner, "_interreduce", recorded)
    rng = random.Random(31)
    for _ in range(30):
        ring = Ring(("x", "y", "z", "w")[: rng.randint(2, 4)])
        cases = [[rand_nonzero_poly(rng, ring, max_degree=3) for _ in range(rng.randint(2, 4))],
                 rand_division_case(rng, order)[1]]
        for gens in cases:
            groebner_basis(gens, order)
            _packed_buchberger(gens, order)
            point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in gens]
            fiber_probe(PolyMap(gens[0].ring, gens), point, order)
    assert sum(len(lms) > 2 for lms in inputs) > 30
    for lms in inputs:
        assert len(set(lms)) == len(lms), lms
        assert not any(_monomial_divides(a, b) for a, b in itertools.permutations(lms, 2)), lms


def test_groebner_simple():
    gb = groebner_basis([X + 0 * Y, X + Y])
    assert gb.basis == (X, Y)
    assert buchberger_criterion_holds(gb)
    # the one pair is coprime, so only interreduction changes the input: the
    # tail y^2 of x^2 + y^2 is divisible by the other leading monomial
    gb = groebner_basis([X**2 + Y**2, Y**2 + 1])
    assert gb.basis == (X**2 - 1, Y**2 + 1)


def test_groebner_zero_ideal():
    gb = groebner_basis([])
    assert gb.basis == ()
    gb2 = groebner_basis([R3.zero()])
    assert gb2.basis == ()


def test_groebner_fiber_of_nonsurjective_map():
    # (1 + x*z, y + z + x*y*z) at the origin has no solutions: z lies in the
    # ideal, forcing 1 + x*z to collapse to 1
    f1 = 1 + X * Z
    f2 = Y + Z + X * Y * Z
    gb = groebner_basis([f1, f2])
    assert gb.basis == (R3.one(),)
    assert gb.is_unit


def test_membership():
    assert ideal_contains(groebner_basis([X, X + Y]), Y)
    assert ideal_contains(groebner_basis([X4, Y4, X4 * U4 + Y4 * V4 - 1]), R4.one())
    assert not ideal_contains(groebner_basis([X4, Y4, X4 * U4 + Y4 * V4]), R4.one())
    assert not groebner_basis([]).is_unit


def test_membership_soundness_random():
    rng = random.Random(13)
    for _ in range(50):
        gens = [rand_poly(rng, R3, max_degree=2, max_terms=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        p = R3.zero()
        for g in gens:
            p = p + rand_poly(rng, R3, max_degree=1, max_terms=2) * g
        assert ideal_contains(groebner_basis(gens), p)


def test_eliminate_examples():
    out = eliminate([Y - X**2, X], drop={0})
    assert out == (Y,)
    assert eliminate([X], drop={0}) == ()
    # inconsistent system collapses to the unit ideal
    t_ring = Ring(("t", "x"))
    t, x = t_ring.gens()
    out = eliminate([t * x - 1, x], drop={0})
    assert out == (t_ring.one(),)


def test_eliminate_random_properties():
    rng = random.Random(14)
    for _ in range(25):
        gens = [rand_poly(rng, R3, max_degree=2, max_terms=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        drop = {rng.randrange(3)}
        for p in eliminate(gens, drop):
            assert ideal_contains(groebner_basis(gens), p)
            assert not (p.support_variables() & drop)


def test_dimension():
    assert groebner_basis([X, Z]).dimension == 1
    assert groebner_basis([R3.zero()]).dimension == 3
    # minors of the Jacobian of (1 + x*z, y + z + x*y*z): the ideal is (x, z)
    minors = [Z * (1 + X * Z), Z, X * (1 + X * Z)]
    assert groebner_basis(minors).dimension == 1
    assert groebner_basis([R3.one()]).dimension == -1
    with pytest.raises(ValueError):
        groebner_basis([]).dimension


def test_dimension_memo_keys_on_the_arity():
    """(x) has the support mask 1 in every ring, and dimension 1 in Q[x, y]
    but 2 in Q[x, y, z]; the memo of the subset walk holds a bounded number
    of support sets."""
    assert groebner_basis([X2]).dimension == 1
    assert groebner_basis([X]).dimension == 2
    assert groebner_basis([X2]).dimension == 1
    memo = groebner._combinatorial_dimension
    maxsize = memo.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 10):
        memo(40, frozenset([k + 1]))
    assert memo.cache_info().currsize == maxsize


def test_dimension_unit_iff_membership_of_one_random():
    rng = random.Random(15)
    for _ in range(30):
        gens = [rand_poly(rng, R2, max_degree=2, max_terms=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        assert (groebner_basis(gens).dimension == -1) == ideal_contains(groebner_basis(gens), R2.one())


def test_dimension_is_the_same_in_every_order_random():
    """dim R/I = dim R/in(I) for every monomial order, so lex and block
    bases give the grevlex dimension."""
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 4)
        ring = Ring(("x", "y", "z", "w")[:n])
        gens = [rand_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(1, n))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        want = groebner_basis(gens, GREVLEX).dimension
        for order in [LEX] + [block_order(k) for k in range(1, n)]:
            assert groebner_basis(gens, order).dimension == want, (gens, order)


def _dimension_by_bitmask(gb):
    """The 2^n subset walk GroebnerBasis.dimension replaced, kept as its oracle."""
    if gb.is_unit:
        return -1
    n = gb.ring.arity
    supports = [
        frozenset(i for i, e in enumerate(leading_term(p, gb.order)[0]) if e) for p in gb.basis
    ]
    best = 0
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        if len(subset) <= best:
            continue
        if all(not s <= subset for s in supports):
            best = len(subset)
    return best


def test_dimension_matches_the_bitmask_walk_random():
    rng = random.Random(11)  # the ideals of test_dimension_is_the_same_in_every_order_random
    seen = set()
    for _ in range(100):
        n = rng.randint(2, 4)
        ring = Ring(("x", "y", "z", "w")[:n])
        gens = [rand_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(1, n))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        for order in [GREVLEX, LEX] + [block_order(k) for k in range(1, n)]:
            gb = groebner_basis(gens, order)
            assert gb.dimension == _dimension_by_bitmask(gb), (gens, order)
            seen.add(gb.dimension)
    assert {-1, 0, 1, 2} <= seen


def _radical_membership(p, gens) -> bool:
    """True iff some power of p lies in the ideal of gens: iff gens and
    1 - w*p, w a fresh variable, generate the unit ideal (Rabinowitsch)."""
    big = p.ring.extended(("w",))
    w = big.var(big.arity - 1)
    return groebner_basis([embed(g, big) for g in gens] + [1 - w * embed(p, big)]).is_unit


def test_radical_membership():
    assert _radical_membership(X, [X**2])
    assert not _radical_membership(Y, [X**2])
    # 1 + x*z equals 1 on the common zeros of z and x*(1 + x*z)
    assert not _radical_membership(1 + X * Z, [Z, X * (1 + X * Z)])
    assert _radical_membership(X * Z, [X])


def test_subalgebra_membership_witness():
    fs = [X4, Y4, X4 * U4 + Y4 * V4]
    g = X4**2 * U4 + X4 * Y4 * V4
    s = subalgebra_membership(g, fs)
    assert s is not None
    tr = s.ring
    assert tr == Ring(("t1", "t2", "t3"))
    assert s == tr.var(0) * tr.var(2)
    # round trip
    assert s.compose(fs) == g
    # the generators themselves and the constants are members too
    for h in (*fs, R4.one()):
        s = subalgebra_membership(h, fs)
        assert s is not None and s.compose(fs) == h


def test_subalgebra_membership_negative():
    assert subalgebra_membership(U4, [X4, Y4, X4 * U4 + Y4 * V4]) is None


def test_subalgebra_membership_trivial():
    fs = [X + Y, Z**2]
    s = subalgebra_membership(fs[0], fs)
    assert s == Ring(("t1", "t2")).var(0)


def test_subalgebra_membership_round_trip_random():
    rng = random.Random(16)
    fs = [X4, Y4, X4 * U4 + Y4 * V4]
    target = Ring(("t1", "t2", "t3"))
    for _ in range(20):
        s_in = rand_poly(rng, target, max_degree=2, max_terms=3)
        g = s_in.compose(fs)
        s_out = subalgebra_membership(g, fs)
        assert s_out is not None
        assert s_out.compose(fs) == g
        # fs are algebraically independent, so the witness is unique
        assert s_out == s_in


def test_subalgebra_tag_collision_rejected():
    with pytest.raises(ValueError):
        subalgebra_membership(X, [X, Y], target_names=("x", "q"))


def test_subalgebra_default_tags_avoid_ring_variables():
    ring = Ring(("x", "y", "t1"))
    x, y, _ = ring.gens()
    s = subalgebra_membership(x**2, [x, y])
    assert s.ring == Ring(("t1_", "t2"))
    assert s == s.ring.var(0) ** 2


def test_buchberger_criterion_on_assorted_ideals():
    ideals = [
        [X**2 + Y, X * Y - Z],
        [1 + X * Z, Y + Z + X * Y * Z],
        [X4 * U4 + Y4 * V4, X4**2 - Y4],
        [X**3 - 2 * X * Y, X**2 * Y - 2 * Y**2 + X],
    ]
    for gens in ideals:
        for order in (GREVLEX, LEX, block_order(1)):
            gb = groebner_basis(gens, order)
            assert buchberger_criterion_holds(gb)
            for g in gens:
                assert ideal_contains(gb, g)


RA = Ring(("a", "b", "c", "d"))
A, B, C, D = RA.gens()
# the C4 and K3 systems of bench/workloads.py's gb-stress, at the point whose
# last coordinate is 1
CYCLIC_4 = [A + B + C + D, A * B + B * C + C * D + D * A,
            A * B * C + B * C * D + C * D * A + D * A * B, A * B * C * D - 1]
KATSURA_3 = [D * D + C * C + B * B + A * A + B * B + C * C + D * D - A,
             C * D + B * C + A * B + B * A + C * B + D * C - B,
             B * D + A * C + B * B + C * A + D * B - C,
             A + 2 * B + 2 * C + 2 * D - 1]


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_groebner_basis_matches_the_criterion_free_oracle(order):
    """The pair update skips only pairs whose S-polynomials the oracle
    reduces to zero, so both give the same reduced basis.  The cases: ideals
    whose first S-polynomial has a leading monomial dividing both
    generators' (x^2*y - 1, x*y^2 - 1 gives x - y in grevlex), so that the
    basis reduced against drops earlier elements; the cyclic-4 and
    katsura-3 systems; random ideals; rand_division_case's generators,
    about half of which repeat an earlier generator's leading monomial, so
    that an equal leading monomial drops the earlier element and new pairs
    share an lcm (criterion F); and pairs of multiples of one linear
    polynomial plus low-degree terms."""
    rng = random.Random(23)
    cases = [[X**2 * Y - 1, X * Y**2 - 1], [X**2 * Y - Z, X * Y**2 - Z, Y * Z**2 - X],
             [X**3 - Y * Z, X**2 * Y - 1, Y**2 - X], CYCLIC_4, KATSURA_3]
    for _ in range(25):
        ring = Ring(("x", "y", "z")[: rng.randint(2, 3)])
        cases.append([rand_nonzero_poly(rng, ring, max_degree=3) for _ in range(rng.randint(2, 3))])
        cases.append(rand_division_case(rng, order)[1])
        f = rand_nonzero_poly(rng, ring, max_degree=1)
        cases.append([f * rand_nonzero_poly(rng, ring, max_degree=2) + rand_poly(rng, ring, max_degree=1)
                      for _ in range(2)])
    for gens in cases:
        assert groebner_basis(gens, order).basis == _criterion_free_basis(gens, order), (gens, order)


def _monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _coprime(a, b) -> bool:
    return not any(map(min, a, b))


def _head_polynomial(head, layout, ring):
    """The monic polynomial x^lm + tail/a of the packed head (lm, a, tail, top)."""
    lm, a, tail, _ = head
    terms = {layout.unpack(e): Fraction(c, a) for e, c in tail}
    return Polynomial(ring, {**terms, layout.unpack(lm): 1})


def _tuple_update_buchberger(gens, order, layout):
    """groebner._buchberger with the Gebauer-Moeller update run on exponent
    tuples, one unpack per new element, and each generator entering as its
    public `reduce` by the elements before it: the oracle for the update on
    packed ints, which must form, skip and order the same pairs."""
    guard, ring = layout.guard, gens[0].ring
    heads, lms, live, pairs = [], [], [], []

    def add(head):
        lm = layout.unpack(head[0])
        new = len(heads)
        if pairs:
            old = [
                pair
                for pair in pairs
                if not _monomial_divides(lm, pair[3])
                or pair[3] == _monomial_lcm(lms[pair[1]], lm)
                or pair[3] == _monomial_lcm(lms[pair[2]], lm)
            ]
            if len(old) < len(pairs):
                pairs[:] = old
                heapify(pairs)
        candidates = [(_monomial_lcm(lms[k], lm), k) for k in live]
        kept = []
        for n, (m, k) in enumerate(candidates):
            coprime = _coprime(lms[k], lm)
            if coprime or not any(
                _monomial_divides(c[0], m) for c in itertools.chain(kept, candidates[n + 1 :])
            ):
                kept.append((m, k, coprime))
        for m, k, coprime in kept:
            if not coprime:
                heappush(pairs, (packed_monomial(layout, m), k, new, m))
        live[:] = [k for k in live if not _monomial_divides(lm, lms[k])]
        live.append(new)
        heads.append(head)
        lms.append(lm)

    for g in sorted(gens, key=lambda g: order.key(leading_term(g, order)[0])):
        g = reduce(g, [_head_polynomial(heads[k], layout, ring) for k in live], order)
        if not g.is_zero:
            add(layout.head_of(g))
    while pairs:
        plcm, i, j, _ = heappop(pairs)
        r = groebner._s_remainder(heads[i], heads[j], plcm, [heads[k] for k in live], guard)
        if r:
            add(layout.head(r))
    return _interreduce([heads[k] for k in live], layout, gens[0].ring)


def _packed_buchberger(gens, order):
    """groebner._buchberger on nonzero gens, packed by the caller as
    groebner_basis packs them, under the order itself even for lex."""
    ring = gens[0].ring
    return _packed(order, ring.arity,
                   lambda layout: _buchberger([layout.pack_all(g._num) for g in gens], ring, layout))


def _count_s_remainders(monkeypatch) -> list:
    """The argument tuples of every `_s_remainder` call from now on, with
    the basis verification, which reduces S-polynomials too, turned off."""
    calls = []
    s_remainder = groebner._s_remainder
    monkeypatch.setattr(groebner, "_s_remainder", lambda *args: calls.append(args) or s_remainder(*args))
    monkeypatch.setattr(groebner, "_verify_bases", False)
    return calls


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1), block_order(2)], ids=str)
def test_packed_pair_update_matches_the_tuple_update_random(order, monkeypatch):
    """The same S-polynomial reductions, in the same order with the same
    arguments, and the same basis, on the hand-made cases of the
    criterion-free test, cyclic-4, katsura-3 and random ideals, some with
    generators sharing a leading monomial.  Buchberger is called directly,
    because groebner_basis computes a lex basis from the grevlex one."""
    calls = _count_s_remainders(monkeypatch)
    rng = random.Random(29)
    cases = [[X**2 * Y - 1, X * Y**2 - 1], [X**2 * Y - Z, X * Y**2 - Z, Y * Z**2 - X],
             [X**3 - Y * Z, X**2 * Y - 1, Y**2 - X], CYCLIC_4, KATSURA_3]
    for _ in range(40):
        ring = Ring(("x", "y", "z", "w")[: rng.randint(2, 4)])
        cases.append([rand_nonzero_poly(rng, ring, max_degree=3) for _ in range(rng.randint(2, 4))])
        cases.append(rand_division_case(rng, order)[1])
    for gens in cases:
        calls.clear()
        want = _packed(order, gens[0].ring.arity, lambda layout: _tuple_update_buchberger(gens, order, layout))
        want_calls = calls[:]
        calls.clear()
        assert _packed_buchberger(gens, order) == want, (gens, order)
        assert calls == want_calls, (gens, order)


def test_determinism_identical_inputs():
    gens = [X**2 - Y, X * Y - Z, Y * Z - X]
    a = groebner_basis(gens)
    b = groebner_basis(list(gens))
    assert a.basis == b.basis
    c = groebner_basis(list(reversed(gens)))
    assert a.basis == c.basis  # reduced basis is unique for the order


def test_reduced_basis_shape_and_input_order_random():
    """Each element is monic, leading monomials strictly descend, no term is
    divisible by another element's leading monomial, and the generators'
    order does not matter."""
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 4)
        ring = Ring(("x", "y", "z", "w")[:n])
        gens = [rand_nonzero_poly(rng, ring, max_degree=2) for _ in range(rng.randint(1, 3))]
        for order in (GREVLEX, LEX, block_order(1)):
            basis = groebner_basis(gens, order).basis
            lts = [leading_term(p, order) for p in basis]
            assert all(c == 1 for _, c in lts), (gens, order)
            keys = [order.key(m) for m, _ in lts]
            assert all(a > b for a, b in zip(keys, keys[1:])), (gens, order)
            for i, p in enumerate(basis):
                for j, (m, _) in enumerate(lts):
                    if i != j:
                        assert not any(
                            all(a <= b for a, b in zip(m, e)) for e, _ in p.terms()
                        ), (gens, order)
            for perm in itertools.permutations(gens):
                assert groebner_basis(perm, order).basis == basis, (gens, order)


def _packed_s_polynomial(f, g, order):
    """groebner._s_polynomial of the packed heads of nonzero f and g,
    unpacked."""

    def run(layout):
        fh, gh = layout.head_of(f), layout.head_of(g)
        s, den = groebner._s_polynomial(fh, gh, layout.lcm(fh[0], gh[0]), layout.guard)
        return {layout.unpack(e): c for e, c in s.items()}, den

    return Polynomial._from_integers(f.ring, *_packed(order, f.ring.arity, run))


def test_s_polynomial_cancels_leading_terms():
    f = X**2 + Y
    g = X * Y + Z
    s = _packed_s_polynomial(f, g, GREVLEX)
    lm_f = leading_term(f, GREVLEX)[0]
    lm_g = leading_term(g, GREVLEX)[0]
    lcm = tuple(max(a, b) for a, b in zip(lm_f, lm_g))
    assert all(e != lcm for e, _ in s.terms())


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1), block_order(2)], ids=str)
def test_s_polynomial_matches_scaled_difference_random(order):
    # the divisors of a division case often share a leading monomial, so
    # some pairs cancel beyond their leading terms, some down to zero
    rng = random.Random(23)
    zeros = 0
    for _ in range(150):
        p, divisors = rand_division_case(rng, order)
        polys = divisors + [p, p * Fraction(-2, 3)] * (not p.is_zero)
        for f, g in itertools.product(polys, repeat=2):
            s = _packed_s_polynomial(f, g, order)
            assert s == _scaling_s_polynomial(f, g, order)
            zeros += s.is_zero
    assert zeros > 150


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        groebner_basis([X, X4])
    with pytest.raises(RingMismatchError):
        reduce(X, [X4])


R2 = Ring(("x", "y"))
X2, Y2 = R2.gens()


@pytest.mark.parametrize(
    "kind, gens, want",
    [
        # y^130 overflows 8-bit fields when the generators are packed
        ("lex", [X2 - Y2**130, Y2**2 - 1], [X2 - 1, Y2**2 - 1]),
        # the S-polynomial x^2 - x*(x - y^100) = x*y^100 reduces to y^200
        ("lex", [X2**2, X2 - Y2**100], [X2 - Y2**100, Y2**200]),
        # the block order's second degree row outgrows 8 bits mid-reduction
        (1, [X - Y**40 * Z**30, X**2 * Y**60 - Z], None),
        ("grevlex", [X2**2**64 - Y2, Y2**2 - 1, X2 * Y2 - X2], None),
        # the generators fit 8-bit fields, their lcm x^100*y^100 does not
        ("grevlex", [X2**100 * Y2 - 1, X2 * Y2**100 - 1], [Y2**199 - X2**98, X2 * Y2**100 - 1, X2**99 - Y2**99]),
    ],
    ids=["lex-at-packing", "lex-in-reduction", "block", "exponent-2^64", "grevlex-pair-lcm"],
)
def test_groebner_basis_restarts_at_double_width(kind, gens, want):
    """Both lex ideals are zero-dimensional, so groebner_basis takes their
    lex bases from the grevlex ones by FGLM; lex Buchberger runs on its own
    here to show that it restarts too."""
    order = block_order(kind) if isinstance(kind, int) else MonomialOrder(kind)  # no layout built yet
    basis = groebner_basis(gens, order).basis
    if kind == "lex":
        order = MonomialOrder("lex")
        assert _packed_buchberger(gens, order) == basis
    assert max(width for _, width in order._layouts) > 8
    assert basis == _criterion_free_basis(gens, order)
    if want is not None:
        assert basis == tuple(want)


@pytest.mark.parametrize("kind", ["lex", 1], ids=str)
def test_s_polynomial_overflow_restarts_at_double_width(kind, monkeypatch):
    """x*y + z^100 and x*z^28 fit 8-bit fields, but their S-polynomial's
    tail z^128 does not: `_s_polynomial` raises _Overflow once, and the
    basis is computed again at 16 bits.  Lex Buchberger is called directly,
    since groebner_basis would start lex from the grevlex basis."""
    monkeypatch.setattr(groebner, "_verify_bases", False)  # it builds S-polynomials too
    s_polynomial, overflows = groebner._s_polynomial, []

    def guarded(*args):
        try:
            return s_polynomial(*args)
        except _Overflow:
            overflows.append(args)
            raise

    monkeypatch.setattr(groebner, "_s_polynomial", guarded)
    gens = [X * Y + Z**100, X * Z**28]
    order = block_order(kind) if isinstance(kind, int) else MonomialOrder(kind)  # no layout built yet
    basis = _packed_buchberger(gens, order) if kind == "lex" else groebner_basis(gens, order).basis
    assert len(overflows) == 1
    assert sorted(width for _, width in order._layouts) == [8, 16]
    assert basis == _criterion_free_basis(gens, order)


def _fraction_rank(vectors, ncols) -> int:
    """Rank of sparse vectors over columns 0 .. ncols - 1, by dense Gaussian
    elimination on Fractions."""
    rows = [[Fraction(v.get(col, 0)) for col in range(ncols)] for v in vectors]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _linear_combination(t, vectors) -> dict:
    total = {}
    for k, c in t.items():
        for col, x in vectors[k].items():
            total[col] = total.get(col, 0) + c * x
    return {col: x for col, x in total.items() if x}


def test_echelon_add_matches_a_dense_rank_oracle_random():
    """`_echelon_add`, the echelon that FGLM and the slice search share, on
    random sparse integer vectors, about a third of them combinations of
    earlier ones: a vector is reported dependent exactly when the rank stops
    growing, the combination returned then sums the vectors to zero with a
    nonzero weight on the new one, and every stored row is the combination
    its comb names, primitive and positive at its largest key."""
    rng = random.Random(37)
    seen = {"dependent": 0, "independent": 0}
    for _ in range(80):
        ncols = rng.randint(1, 6)
        echelon, vectors, rank = {}, [], 0
        for k in range(rng.randint(1, 10)):
            if vectors and rng.random() < 0.3:
                v = _linear_combination({j: rng.randint(-3, 3) for j in range(k)}, vectors)
            else:
                cols = rng.sample(range(ncols), rng.randint(0, ncols))
                v = {col: rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 12)) for col in cols}
            vectors.append(v)
            grown = _fraction_rank(vectors, ncols)
            t = _echelon_add(echelon, dict(v), {k: 1})
            assert (t is None) == (grown > rank), vectors
            rank = grown
            if t is not None:
                assert t.get(k, 0) != 0 and not _linear_combination(t, vectors), vectors
            seen["independent" if t is None else "dependent"] += 1
            assert len(echelon) == rank
            for pivot, (row, comb) in echelon.items():
                assert max(row) == pivot and row[pivot] > 0
                assert math.gcd(*row.values(), *comb.values()) == 1
                assert _linear_combination(comb, vectors) == row
    assert min(seen.values()) > 100, seen


def test_lex_basis_by_fglm_matches_the_oracles(monkeypatch):
    """A zero-dimensional ideal's lex basis comes from its grevlex basis by
    FGLM, and equals both the criterion-free oracle's and lex Buchberger's
    on the generators.  The cases: katsura-3; gb-stress's K3 fiber, in a
    ring with a fifth variable that no generator uses; a fiber with a
    two-element lex basis; a non-radical ideal; random ideals made
    zero-dimensional by x_i^d plus lower terms for each variable; and two
    ideals that overflow 8-bit fields: y^130 when Buchberger packs the
    generators, and x^2*y^126 in FGLM's own shift of x*y^125 by y, after a
    grevlex run that fits 8 bits.  FGLM packs under grevlex only, so a
    fresh lex order builds no layout, while cyclic-4, of dimension 1, runs
    lex Buchberger from the grevlex basis."""
    monkeypatch.setattr(groebner, "_verify_bases", False)  # it packs under lex
    rng = random.Random(31)
    R5 = Ring(("x1", "x2", "x3", "x4", "x5"))
    k3 = _katsura(R5.gens()[:4])
    wide = [[X2 - Y2**130, Y2**2 - 1], [Y2**126 - X2, X2**3 - 1]]
    cases = [KATSURA_3, k3[:-1] + [k3[-1] - 1], [X2**2 - Y2**3, X2 * Y2 - 1],
             [(X - Y) ** 2, (Y - 1) ** 3, Z**2 - X * Y]] + wide
    for _ in range(15):
        ring = Ring(("x", "y", "z")[: rng.randint(2, 3)])
        gens = [v ** rng.randint(2, 3) + rand_poly(rng, ring, max_degree=1) for v in ring.gens()]
        cases.append(gens + [rand_poly(rng, ring, max_degree=2) for _ in range(rng.randint(0, 1))])
    for gens in cases:
        grevlex, order = MonomialOrder("grevlex"), MonomialOrder("lex")
        monkeypatch.setattr(groebner, "GREVLEX", grevlex)
        basis = groebner_basis(gens, order).basis
        assert not order._layouts, gens
        if gens in wide:
            assert sorted(width for _, width in grevlex._layouts) == [8, 16], gens
        assert basis == _criterion_free_basis(gens, LEX), gens
        assert basis == _packed_buchberger(gens, LEX), gens
    order = MonomialOrder("lex")
    groebner_basis(CYCLIC_4, order)
    assert order._layouts


def _cyclic(xs):
    n = len(xs)
    comps = [sum(math.prod(xs[(i + j) % n] for j in range(k)) for i in range(n)) for k in range(1, n)]
    return comps + [math.prod(xs)]


def _katsura(xs):
    n = len(xs) - 1
    u = {k: xs[abs(k)] for k in range(-n, n + 1)}
    comps = [sum(u[l] * u[m - l] for l in range(-n, n + 1) if m - l in u) - xs[m] for m in range(n)]
    return comps + [xs[0] + 2 * sum(xs[1:])]


def test_s_polynomial_reductions_of_the_gb_stress_systems(monkeypatch):
    """The fibers of bench/workloads.py's gb-stress, seed 1: the reductions
    that Buchberger runs are pinned, so a change to pair selection, to the
    criteria or to the generators' entry shows here."""
    calls = _count_s_remainders(monkeypatch)
    R5 = Ring(("x1", "x2", "x3", "x4", "x5"))
    xs = R5.gens()
    cases = {
        "C5": (_cyclic(xs), 1, GREVLEX),
        "K4": (_katsura(xs), -1, GREVLEX),
        "C4": (_cyclic(xs[:4]), -1, LEX),
        "K3": (_katsura(xs[:4]), -1, LEX),
    }
    counts = {}
    for name, (comps, constant, order) in cases.items():
        calls.clear()
        groebner_basis(comps[:-1] + [comps[-1] + constant], order)
        counts[name] = len(calls)
    # a lex basis starts from the grevlex one: C4's 8 grevlex reductions,
    # then 6 by lex Buchberger, whose generators are that reduced basis, so
    # none of them reduces on entry; K3 is zero-dimensional, so FGLM, which
    # reduces no S-polynomial, follows its 8 grevlex ones
    assert counts == {"C5": 102, "K4": 26, "C4": 8 + 6, "K3": 8}


def test_a_generator_that_an_earlier_one_divides_forms_no_pair(monkeypatch):
    """Each generator enters as its remainder by the elements before it.
    In the fiber of P = (1 + x*z, y + z + x*y*z) over (a, b), x*z divides
    x*y*z, so the second generator enters as a*y + z - b: for a != 0 the
    two leading monomials are coprime and no S-polynomial is reduced; over
    the origin it enters as z, whose one pair with x*z + 1 gives 1.  x
    divides x*y and x*y*z, which enter as zero."""
    calls = _count_s_remainders(monkeypatch)
    P = (1 + X * Z, Y + Z + X * Y * Z)
    gb = groebner_basis([P[0] + 14, P[1] + 6])
    assert gb.basis == (X * Z + 15, Y - Fraction(1, 14) * Z - Fraction(3, 7)) and not calls
    assert groebner_basis(P).basis == (R3.one(),) and len(calls) == 1
    calls.clear()
    assert groebner_basis([X, X * Y, X * Y * Z]).basis == (X,) and not calls


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1), block_order(2)], ids=str)
def test_a_generator_in_the_ideal_of_the_others_changes_no_basis_random(order):
    """Appending a*g1 + b*g2 to random generators leaves the ideal as it
    was: it enters as zero or as a remainder that the pairs reduce away,
    and the basis is the criterion-free oracle's on the generators alone."""
    rng = random.Random(37)
    for _ in range(25):
        ring = Ring(("x", "y", "z")[: rng.randint(2, 3)])
        gens = [rand_nonzero_poly(rng, ring, max_degree=2) for _ in range(rng.randint(2, 3))]
        g1, g2 = rng.sample(gens, 2)
        extra = rand_poly(rng, ring, max_degree=1) * g1 + rand_poly(rng, ring, max_degree=1) * g2
        assert groebner_basis(gens + [extra], order).basis == _criterion_free_basis(gens, order), (gens, order)
