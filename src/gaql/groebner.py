"""Reduced Groebner bases and the ideal-theoretic decision procedures.

Buchberger's algorithm with the normal selection strategy, the pending pairs
on a heap, and the Gebauer-Moeller pair update (the product criterion and
the chain criteria M, F and B; Gebauer and Moeller, J. Symbolic Comput. 6,
1988), followed by full interreduction.  Generators enter ascending by
leading monomial, ties in input order, and each generator enters as its
remainder by the elements before it: with them it generates the same ideal
(Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, 2.7), and a
generator that an earlier leading monomial divides forms no pair, so the
pair update runs on elements that are already reduced.  The reduced basis
is unique for the monomial order, so the entry order does not change it.

The whole computation runs on packed monomials (see `poly`'s docstring;
Monagan and Pearce, CASC 2007): one int per monomial, whose integer order is
the monomial order, so that a product of monomials is an addition and a
divisibility test one subtraction and one mask.  Each basis element is a
packed monic head (lm, a, tail, top) from the moment it enters: the monic
form x^lm + tail/a with an integer tail.  S-polynomials are built from the
heads, each remainder of `poly._reduce_packed`, a generator's or an
S-polynomial's, becomes a head directly, and interreduction runs packed,
dividing only the elements that a tail monomial shows to be unreduced.
The Gebauer-Moeller criteria run on packed ints too: a pair's lcm is the
fieldwise maximum of the exponent fields of its two leading monomials
(`_Layout.fieldwise_max`, the helper that also gives a head's `top`),
divisibility is the guard-bit test, and two monomials are coprime iff
their lcm is their product, whose fields are the sums.  Only a pair that
the criteria keep gets the order's rows added to its lcm
(`_Layout.with_rows`), for the key of the pair heap.  Each output
polynomial is made once, from the integers of its packed head or
remainder.  A field that outgrows its width (8 bits at first) raises
`poly._Overflow`, and the computation starts again at double the width;
the basis does not depend on it.  Public `reduce` packs on entry and
unpacks once.  Coefficients are read only through `poly`'s accessors.

Generators enter packed, too.  `_groebner`, the one entry to the
computation, takes a function that returns the generators packed under
the layout of each width it tries: `groebner_basis` packs its polynomials'
numerators, and `geometry.fiber_probe` shifts a map's packed components
by the point, building no polynomial.  A generator only counts up to a
nonzero factor, since each element is made monic.  So a `GroebnerBasis`
holds its `ring`, which its dimension needs, and not its generators.

A lex basis starts from the reduced grevlex basis, which Buchberger finds
far sooner.  When the ideal is zero-dimensional in the variables that the
generators use, FGLM (Faugere, Gianni, Lazard and Mora, J. Symbolic
Comput. 16, 1993) converts it: the lex basis is read off the linear
dependencies among the grevlex normal forms of monomials taken in
increasing lex order, in the finite-dimensional quotient ring, found by
`_echelon_add`, the fraction-free echelon that `quotient`'s slice search
shares.  Otherwise lex Buchberger runs from the grevlex basis instead of
the generators; the two generate the same ideal, whose reduced basis is
unique.

Built on top: the unit-ideal test (`GroebnerBasis.is_unit`), elimination
via block orders, combinatorial Krull dimension, and subalgebra membership
via tag variables.
"""

from __future__ import annotations

from functools import cache, reduce as _fold
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, compress, repeat
from math import gcd, lcm
from operator import and_, itemgetter, le
from typing import Iterable, Sequence

from .poly import (  # the orders are re-exported from here
    GREVLEX,
    LEX,
    MonomialOrder,
    PolyMap,
    Polynomial,
    Ring,
    RingMismatchError,
    _Overflow,
    _Record,
    _packed,
    _reduce_packed,
    embed,
)

_verify_bases = False


def set_basis_verification(flag: bool):
    """Toggle checking the Buchberger criterion on every computed basis."""
    global _verify_bases
    _verify_bases = bool(flag)


def block_order(front_size: int) -> MonomialOrder:
    return MonomialOrder("block", front_size)


def reduce(p: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> Polynomial:
    """Normal form of p modulo basis: full multivariate division.

    No term of the result is divisible by any basis leading term, and
    p minus the result lies in the ideal generated by the basis.
    """
    if any(b.ring != p.ring for b in basis):
        raise RingMismatchError("basis polynomial over a different ring")
    divisors = [b for b in basis if not b.is_zero]
    if not divisors:
        return p

    def run(layout):
        heads = [layout.head_of(d) for d in divisors]
        return layout, _reduce_packed(layout.pack_all(p._num), p._den, heads, layout.guard)

    layout, (r, den) = _packed(order, p.ring.arity, run)
    unpack = layout.unpack
    return Polynomial._from_integers(p.ring, {unpack(e): c for e, c in r.items()}, den)


def _s_polynomial(f, g, plcm: int, guard: int) -> tuple[dict[int, int], int]:
    """(s, den): the S-polynomial of the packed heads f and g, whose leading
    monomials have the packed lcm plcm, as packed int numerators s over den.
    The two leading terms cancel, so it is built from the monic tails over
    the lcm of their denominators."""
    fm, fa, f_tail, f_top = f
    gm, ga, g_tail, g_top = g
    f_shift, g_shift = plcm - fm, plcm - gm
    if (f_top + f_shift) & guard or (g_top + g_shift) & guard:
        raise _Overflow
    den = lcm(fa, ga)
    f_scale, g_scale = den // fa, den // ga
    out = {e + f_shift: c * f_scale for e, c in f_tail}
    get = out.get
    for e, c in g_tail:
        e += g_shift
        out[e] = get(e, 0) - c * g_scale
    return {e: c for e, c in out.items() if c}, den


def _s_remainder(f, g, plcm: int, divisors, guard: int) -> dict[int, int]:
    """Packed int numerators of the S-polynomial of the packed heads f and g
    reduced by the packed heads `divisors`, up to a positive factor."""
    return _reduce_packed(_s_polynomial(f, g, plcm, guard)[0], 1, divisors, guard)[0]


@cache
def _subset_masks(n: int, size: int) -> tuple[int, ...]:
    """The bitmasks of the subsets of `size` of n variables, variable i at
    bit i.  `GroebnerBasis.dimension` asks for a table only when its search
    reaches that size, so a table is never larger than the search's walk."""
    return tuple(map(sum, combinations([1 << i for i in range(n)], size)))


class GroebnerBasis(_Record):
    """The reduced basis of an ideal of `ring` in `order`; ring is None for
    the ideal with no generators."""

    __slots__ = ("order", "ring", "basis")

    def __init__(self, order: MonomialOrder, ring: Ring | None, basis: tuple[Polynomial, ...]):
        self._init(order, ring, basis)

    @property
    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant and not self.basis[0].is_zero

    @property
    def dimension(self) -> int:
        """Krull dimension of R/I; -1 for the unit ideal.

        Read off the leading monomials (combinatorial dimension): the largest
        variable subset containing no leading monomial's support, searched
        from the largest size down.  This holds for every monomial order
        (Greuel-Pfister, A Singular Introduction to Commutative Algebra,
        Cor. 5.3.14).
        """
        if self.is_unit:
            return -1
        if self.ring is None:
            raise ValueError("an ideal with no generators has no ring")
        n = self.ring.arity
        key = self.order.key
        # each leading monomial's support as a bitmask, variable i at bit i
        bits = _subset_masks(n, 1)
        supports = [sum(compress(bits, max(p._num, key=key))) for p in self.basis]
        for size in range(n, 0, -1):
            # a subset holds no support iff every support meets its complement
            for rest in _subset_masks(n, n - size):
                if all(map(and_, supports, repeat(rest))):
                    return size
        return 0


def buchberger_criterion_holds(gb: GroebnerBasis) -> bool:
    """Every S-polynomial of basis pairs reduces to zero against the basis."""
    basis = gb.basis
    if len(basis) < 2:
        return True

    def run(layout):
        heads = [layout.head_of(p) for p in basis]
        return not any(
            _s_remainder(f, g, layout.lcm(f[0], g[0]), heads, layout.guard)
            for f, g in combinations(heads, 2)
        )

    return _packed(gb.order, basis[0].ring.arity, run)


def _interreduce(heads, layout, ring: Ring) -> tuple[Polynomial, ...]:
    """Reduce each of the packed monic heads of nonzero polynomials by the
    others: for a minimal Groebner basis, the unique reduced basis.  The
    heads must be minimal, no leading monomial dividing another's, as
    `_buchberger`'s live elements are."""
    guard, unpack = layout.guard, layout.unpack
    minimal = sorted(heads, key=itemgetter(0))
    lms = [head[0] for head in minimal]
    # No other leading monomial divides an element's own, so reducing it
    # against the others keeps its monic leading term lm: r[lm] = den.  An
    # element none of whose tail monomials a leading monomial divides (its
    # own divides none, being larger) is already reduced, so its numerators
    # are its head's, over a.  The leading monomials stay distinct and
    # ascending, and reversed they descend.
    out = []
    for i, (lm, a, tail, _) in enumerate(minimal):
        if any(not (e - m) & guard for e, _ in tail for m in lms):
            r, den = _reduce_packed({lm: a, **dict(tail)}, a, minimal[:i] + minimal[i + 1 :], guard)
            num = {unpack(e): c for e, c in r.items()}
        else:
            num, den = {unpack(lm): a}, a
            for e, c in tail:
                num[unpack(e)] = c
        out.append(Polynomial._from_integers(ring, num, den))
    return tuple(reversed(out))


def _buchberger(gens: Iterable[dict[int, int]], ring: Ring, layout) -> tuple[Polynomial, ...]:
    """The reduced basis over `ring` of the ideal of gens, nonzero packed
    polynomials of `layout` with int numerators, which are consumed."""
    guard, exponents, fmax = layout.guard, layout.exponents, layout.fieldwise_max
    heads = []  # every element added, as a packed head; pairs index into it
    live: list[int] = []  # indices of the current basis G, ascending
    # heap of (packed lcm, i, j, lcm), i < j; the criteria read the lcm as
    # its exponent fields alone (`_Layout.lcm` without the rows): equal
    # fields are equal lcms, and the guard test divides as on packed ints
    pairs = []

    def add(head):
        lm = head[0] & exponents  # the new leading monomial's exponent fields
        new = len(heads)
        # criterion B: drop an old pair when lm divides its lcm and that lcm
        # differs from both of its members' lcms with lm
        if pairs:
            old = [
                pair
                for pair in pairs
                if (pair[3] - lm) & guard
                or pair[3] == fmax(heads[pair[1]][0], lm) & exponents
                or pair[3] == fmax(heads[pair[2]][0], lm) & exponents
            ]
            if len(old) < len(pairs):
                pairs[:] = old
                heapify(pairs)
        # criteria M and F: drop a new pair (g, h) whose lcm is a multiple of
        # the lcm of a new pair still to be looked at or already kept; a
        # coprime pair is kept here, so that it can cover the others, and
        # only then dropped by the product criterion
        candidates = [(fmax(heads[k][0], lm) & exponents, k) for k in live]
        kept = []
        for n, (m, k) in enumerate(candidates):
            # coprime iff the lcm is the product, whose fields are the sums
            coprime = m == (heads[k][0] + lm) & exponents
            if coprime or all((m - c[0]) & guard for c in chain(kept, candidates[n + 1 :])):
                kept.append((m, k, coprime))
        for m, k, coprime in kept:
            if not coprime:
                heappush(pairs, (layout.with_rows(m), k, new, m))
        live[:] = [k for k in live if (heads[k][0] - lm) & guard]
        live.append(new)
        heads.append(head)

    # each generator enters as its remainder by the live elements, as an
    # S-polynomial does; sorted is stable, so equal leading monomials keep
    # the input order
    for h in sorted(gens, key=max):
        if live:
            h = _reduce_packed(h, 1, [heads[k] for k in live], guard)[0]
        if h:
            add(layout.head(h))
    while pairs:
        plcm, i, j, _ = heappop(pairs)
        r = _s_remainder(heads[i], heads[j], plcm, [heads[k] for k in live], guard)
        if r:
            add(layout.head(r))
    return _interreduce([heads[k] for k in live], layout, ring)


def _combine(x: dict, a: int, b: int, y: dict) -> dict:
    """a * x - b * y for sparse integer vectors, with no zero entries; x is
    consumed."""
    if a != 1:
        x = {k: c * a for k, c in x.items()}
    for k, c in y.items():
        c = x.pop(k, 0) - b * c
        if c:
            x[k] = c
    return x


def _echelon_add(echelon: dict, v: dict, t: dict) -> dict | None:
    """Reduce the sparse integer vector v against `echelon`, a dict pivot ->
    (row, comb) of rows whose largest key is the pivot, with a positive
    entry there.  t is the combination of the caller's vectors whose value
    is v, and comb that of row; both ride along, fraction-free.  If v
    reduces to zero, return t, now a combination whose value is zero.
    Otherwise insert v as a pivot row, primitive (the content of row and
    comb together is 1) and positive at its pivot, and return None.  v and
    t are consumed."""
    while v:
        pivot = max(v)
        if pivot not in echelon:
            g = gcd(*v.values(), *t.values()) if v[pivot] > 0 else -gcd(*v.values(), *t.values())
            echelon[pivot] = {k: c // g for k, c in v.items()}, {k: c // g for k, c in t.items()}
            return None
        row, comb = echelon[pivot]
        g = gcd(row[pivot], v[pivot])
        a, b = row[pivot] // g, v[pivot] // g
        v, t = _combine(v, a, b, row), _combine(t, a, b, comb)
    return t


def _fglm(basis, used: Sequence[int], layout) -> tuple[Polynomial, ...]:
    """The reduced lex basis of the zero-dimensional ideal whose reduced
    grevlex basis is `basis`, by FGLM (Faugere, Gianni, Lazard and Mora,
    J. Symbolic Comput. 16, 1993), on packed grevlex monomials of `layout`.

    The monomials in the variables `used` are walked in increasing lex
    order from 1, skipping the multiples of the lex leading monomials found
    so far, so each is x_j * s for a lex-standard s.  Its grevlex normal
    form is the normal form of s shifted by x_j and reduced once more.  A
    fraction-free echelon of the standard monomials' normal forms
    (`_echelon_add`) decides whether it depends on them: if it does, m
    minus that combination is the next basis element, else m is standard.
    The ideal is zero-dimensional in `used`, so the walk ends."""
    guard, cols, ring = layout.guard, layout.cols, basis[0].ring
    heads = [layout.head_of(p) for p in basis]
    one = (0,) * len(cols)
    normal = {}  # lex-standard monomial -> (numerators, den, top) of its normal form
    # pivot -> (row, comb): a packed grevlex vector and the ints over
    # lex-standard monomials k with row = sum(comb[k] * NF(k))
    echelon = {}
    leads, out = [], []
    todo, seen = [(one, None, None)], {one}  # heap of (m, j, s), m = x_j * s
    while todo:
        m, j, s = heappop(todo)
        if any(all(map(le, lead, m)) for lead in leads):
            continue
        if s is None:
            h, den = {0: 1}, 1
        else:
            nf, den, top = normal[s]
            if (top + cols[j]) & guard:
                raise _Overflow
            h = {e + cols[j]: c for e, c in nf.items()}
        nf, den = _reduce_packed(h, den, heads, guard)
        # nf = den * NF(m), the combination {m: den} of the normal forms
        t = _echelon_add(echelon, dict(nf), {m: den})
        if t is None:
            normal[m] = nf, den, _fold(layout.fieldwise_max, nf, 0)
            for j in used:
                n = m[:j] + (m[j] + 1,) + m[j + 1 :]
                if n not in seen:
                    seen.add(n)
                    heappush(todo, (n, j, m))
        else:
            # sum(t[k] * k) lies in the ideal, and t[m] is den times the
            # row pivots' factors, not 0: m is a lex leading monomial
            sign = 1 if t[m] > 0 else -1
            out.append(Polynomial._from_integers(ring, {k: sign * c for k, c in t.items()}, sign * t[m]))
            leads.append(m)
    return tuple(reversed(out))


def _lex_basis(ring: Ring, order: MonomialOrder, generators) -> tuple[Polynomial, ...]:
    """The reduced lex basis of the ideal of generators(layout) (see
    `_groebner`), from its reduced grevlex basis: by FGLM when the ideal is
    zero-dimensional in the variables the generators use, which is when
    each of them has a pure power among the grevlex leading monomials;
    otherwise by lex Buchberger."""

    def grevlex(layout):
        gens = generators(layout)
        # the fields of the generators' fieldwise maximum that are not zero
        # are the variables they use
        top = layout.unpack(_fold(layout.fieldwise_max, chain.from_iterable(gens), 0))
        return _buchberger(gens, ring, layout), [i for i, e in enumerate(top) if e]

    basis, used = _packed(GREVLEX, ring.arity, grevlex)
    if not basis or basis[0].is_constant:  # the zero or the unit ideal
        return basis
    lms = [max(p._num, key=GREVLEX.key) for p in basis]
    # x_i^d is the leading monomial whose degree d is one of its exponents
    if set(used) <= {lm.index(sum(lm)) for lm in lms if sum(lm) in lm}:
        return _packed(GREVLEX, ring.arity, lambda layout: _fglm(basis, used, layout))
    return _packed(order, ring.arity,
                   lambda layout: _buchberger([layout.pack_all(p._num) for p in basis], ring, layout))


def _groebner(ring: Ring, order: MonomialOrder, generators) -> GroebnerBasis:
    """The reduced Groebner basis in `order` of the ideal over `ring` whose
    nonzero generators generators(layout) returns as new packed polynomials
    of `layout` with int numerators, each up to a nonzero factor.  The one
    entry of `groebner_basis` and `geometry.fiber_probe`."""
    if order.kind == "lex":
        basis = _lex_basis(ring, order, generators)
    else:
        basis = _packed(order, ring.arity, lambda layout: _buchberger(generators(layout), ring, layout))
    result = GroebnerBasis(order, ring, basis)
    if _verify_bases and not buchberger_criterion_holds(result):
        raise AssertionError("computed basis fails the Buchberger criterion")
    return result


def groebner_basis(gens: Iterable[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Buchberger's algorithm with normal selection: the pending pairs sit on a
    heap keyed by their packed lcm, so the smallest lcm comes first.  Each
    new element goes through the Gebauer-Moeller pair update
    (Becker-Weispfenning, Groebner Bases, 1993, UPDATE on p. 230), which
    keeps only the pairs that the product and chain criteria cannot skip
    and drops the elements whose leading monomial the new one divides from
    the set that S-polynomials are reduced against.  Each pair's lcm is
    computed once, when the pair is formed, and packed with the order's rows
    only if the pair is kept.  Generators enter ascending by leading
    monomial, ties in input order, and each generator enters as its
    remainder by the elements before it, which generates the same ideal
    with them (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    2.7).  A zero remainder is dropped, a generator that an earlier leading
    monomial divides forms no pair, and the pair update (Gebauer and
    Moeller, J. Symbolic Comput. 6, 1988) runs on reduced elements.  The
    final interreduction makes the output unique whatever that order.

    A lex basis starts from the grevlex basis.  If every variable that a
    generator uses has a pure power among its leading monomials, the ideal
    is zero-dimensional in those variables and FGLM converts it by linear
    algebra (Faugere, Gianni, Lazard and Mora, J. Symbolic Comput. 16,
    1993); otherwise lex Buchberger runs from it.  Block orders run
    Buchberger from the generators.
    """
    gens = tuple(gens)
    if not gens:
        return GroebnerBasis(order, None, ())
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators over different rings")
    nonzero = [g._num for g in gens if g._num]
    return _groebner(ring, order, lambda layout: [layout.pack_all(num) for num in nonzero])


def eliminate(gens: Sequence[Polynomial], drop: Iterable[int]) -> tuple[Polynomial, ...]:
    """Generators of the elimination ideal with the given variables removed.

    Computed with a block order placing the dropped variables first; the
    returned polynomials live in the original ring but involve none of the
    dropped variables.
    """
    gens = tuple(gens)
    if not gens:
        return ()
    ring = gens[0].ring
    drop = sorted(set(drop))
    for i in drop:
        if not 0 <= i < ring.arity:
            raise IndexError(f"variable index {i} out of range")
    if not drop:
        return tuple(groebner_basis(gens).basis)
    keep = [i for i in range(ring.arity) if i not in drop]
    permuted = Ring(tuple(ring.variables[i] for i in drop + keep))
    gb = groebner_basis([embed(g, permuted) for g in gens], block_order(len(drop)))
    return tuple(
        embed(p, ring) for p in gb.basis if all(i >= len(drop) for i in p.support_variables())
    )


def subalgebra_membership(
    g: Polynomial,
    fs: Sequence[Polynomial],
    target_names: Sequence[str] | None = None,
) -> Polynomial | None:
    """Express g as a polynomial in fs, if possible.

    Adjoins one tag variable per f, computes a basis of (tag_i - f_i) under
    a block order eliminating the original variables, and takes the normal
    form of g.  If that normal form involves only tag variables it is the
    witness S with S(f_1, .., f_m) = g, returned over the tag ring; otherwise
    None.
    """
    ring = g.ring
    tagged = PolyMap(ring, fs, tuple(target_names or ()))
    names = tagged.target_names
    collisions = set(names) & set(ring.variables)
    if collisions:
        raise ValueError(f"tag names collide with ring variables: {sorted(collisions)}")
    big = ring.extended(names)
    n = ring.arity
    gens = [big.var(n + i) - embed(f, big) for i, f in enumerate(tagged.components)]
    order = block_order(n)
    gb = groebner_basis(gens, order)
    nf = reduce(embed(g, big), gb.basis, order)
    if any(i < n for i in nf.support_variables()):
        return None
    return embed(nf, Ring(names))
