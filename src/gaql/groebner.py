"""Reduced Groebner bases and the ideal-theoretic decision procedures.

Buchberger's algorithm with the normal selection strategy, the pending pairs
on a heap, and the Gebauer-Moeller pair update (the product criterion and
the chain criteria M, F and B), followed by full interreduction.  Generators
enter ascending by leading monomial, ties in input order; the reduced basis
is unique for the monomial order, so the entry order does not change it.
Normal forms (`reduce`) come from `poly._divide`, the package's one
multivariate division.  Division, S-polynomials and interreduction run on
integers, reading each polynomial's cached head: its monic form
x^lm + tail/a, an integer tail over a positive integer a.  Coefficients are
read only through `poly`'s accessors.

Decision procedures built on top: ideal membership, unit-ideal test,
elimination via block orders, combinatorial Krull dimension, radical
membership (Rabinowitsch trick), and subalgebra membership via tag
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from math import lcm
from operator import add, le, sub
from typing import Callable, Iterable, Sequence

from .poly import (
    PolyMap,
    Polynomial,
    Ring,
    RingMismatchError,
    _divide,
    embed,
    fresh_names,
    grevlex_key,
)

_verify_bases = False


def set_basis_verification(flag: bool):
    """Toggle checking the Buchberger criterion on every computed basis."""
    global _verify_bases
    _verify_bases = bool(flag)


def _block_key(front_size: int, exponents: Sequence[int]):
    return (grevlex_key(exponents[:front_size]), grevlex_key(exponents[front_size:]))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: lex, grevlex, or a block order.

    The block order compares the first `front_size` exponents (grevlex)
    before the rest (grevlex), so it eliminates the front variables.
    `key` is its sort key, chosen once: a bigger key means a bigger monomial.
    """

    kind: str
    front_size: int | None = None
    key: Callable[[Sequence[int]], object] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order kind: {self.kind!r}")
        if self.kind == "block":
            k = self.front_size
            if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
                raise TypeError(f"block order front_size {k!r} is a {type(k).__name__}, not an int")
            if k is None or k < 1:
                raise ValueError("block order needs front_size >= 1")
            key = partial(_block_key, k)
        elif self.front_size is not None:
            raise ValueError(f"{self.kind} order takes no front_size")
        else:
            key = grevlex_key if self.kind == "grevlex" else tuple
        object.__setattr__(self, "key", key)

    def __str__(self):
        if self.kind == "block":
            return f"block({self.front_size})"
        return self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(front_size: int) -> MonomialOrder:
    return MonomialOrder("block", front_size)


def _monomial_divides(a, b) -> bool:
    return all(map(le, a, b))


def _monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _coprime(a, b) -> bool:
    return not any(map(min, a, b))


def leading_term(p: Polynomial, order: MonomialOrder):
    """(exponents, coefficient) of the order-largest term; p must be nonzero."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    lm = p._head(order.key)[0]
    return lm, p.coefficient(lm)


def reduce(p: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> Polynomial:
    """Normal form of p modulo basis: full multivariate division.

    No term of the result is divisible by any basis leading term, and
    p minus the result lies in the ideal generated by the basis.
    """
    if any(b.ring != p.ring for b in basis):
        raise RingMismatchError("basis polynomial over a different ring")
    divisors = [b for b in basis if not b.is_zero]
    return _divide(p, divisors, order.key)[1] if divisors else p


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, lcm the leading monomials' lcm: the
    two leading terms cancel, so it is built from the cached integer monic
    tails over the lcm of their denominators."""
    if f.ring != g.ring:
        raise RingMismatchError("S-polynomial of polynomials over different rings")
    if f.is_zero or g.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    (fm, fa, f_tail), (gm, ga, g_tail) = f._head(order.key), g._head(order.key)
    m = _monomial_lcm(fm, gm)
    f_shift, g_shift = tuple(map(sub, m, fm)), tuple(map(sub, m, gm))
    den = lcm(fa, ga)
    f_scale, g_scale = den // fa, den // ga
    out = {tuple(map(add, e, f_shift)): c * f_scale for e, c in f_tail}
    for e, c in g_tail:
        e = tuple(map(add, e, g_shift))
        out[e] = out.get(e, 0) - c * g_scale
    return Polynomial._from_integers(f.ring, {e: c for e, c in out.items() if c}, den)


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]

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
        if not self.generators:
            raise ValueError("an ideal with no generators has no ring")
        n = self.generators[0].ring.arity
        supports = [{i for i, e in enumerate(p._head(self.order.key)[0]) if e} for p in self.basis]
        for size in range(n, 0, -1):
            for subset in map(set, combinations(range(n), size)):
                if not any(s <= subset for s in supports):
                    return size
        return 0

    def contains(self, p: Polynomial) -> bool:
        return reduce(p, self.basis, self.order).is_zero


def buchberger_criterion_holds(gb: GroebnerBasis) -> bool:
    """Every S-polynomial of basis pairs reduces to zero against the basis."""
    basis = gb.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], gb.order)
            if not reduce(s, basis, gb.order).is_zero:
                return False
    return True


def _interreduce(polys: list[Polynomial], order: MonomialOrder) -> tuple[Polynomial, ...]:
    """Minimalize and fully reduce nonzero polys, yielding the unique reduced basis."""
    minimal: list[Polynomial] = []
    lms = []
    heads = sorted((p._head(order.key) for p in polys), key=lambda head: order.key(head[0]))
    for lm, a, tail in heads:
        if not any(_monomial_divides(m, lm) for m in lms):
            minimal.append(Polynomial._monic_from_head(polys[0].ring, order.key, lm, a, tail))
            lms.append(lm)
    # No other leading monomial divides an element's own, so reducing it
    # against the others keeps its monic leading term; the leading monomials
    # stay distinct and ascending, and reversed they descend.
    reduced = [reduce(p, minimal[:i] + minimal[i + 1 :], order) for i, p in enumerate(minimal)]
    return tuple(reversed(reduced))


def groebner_basis(gens: Iterable[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Buchberger's algorithm with normal selection: the pending pairs sit on a
    heap keyed by the order key of their lcm, so the smallest lcm comes
    first.  Each new element goes through the Gebauer-Moeller pair update
    (Becker-Weispfenning, Groebner Bases, 1993, UPDATE on p. 230), which
    keeps only the pairs that the product and chain criteria cannot skip
    and drops the elements whose leading monomial the new one divides from
    the set that S-polynomials are reduced against.  Each pair's lcm and
    order key are computed once, when the pair is formed.  Generators enter
    ascending by leading monomial, ties in input order; the final
    interreduction makes the output unique whatever that order.
    """
    gens = tuple(gens)
    if gens:
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generators over different rings")
    basis: list[Polynomial] = []  # every element added; pairs index into it
    lms = []
    live: list[int] = []  # indices of the current basis G, ascending
    pairs = []  # heap of (order key of the lcm, i, j, lcm), i < j
    key = order.key

    def add(h: Polynomial):
        lm = h._head(key)[0]
        new = len(basis)
        # criterion B: drop an old pair when lm divides its lcm and that lcm
        # differs from both of its members' lcms with lm
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
        # criteria M and F: drop a new pair (g, h) whose lcm is a multiple of
        # the lcm of a new pair still to be looked at or already kept; a
        # coprime pair is kept here, so that it can cover the others, and
        # only then dropped by the product criterion
        candidates = [(_monomial_lcm(lms[k], lm), k) for k in live]
        kept = []
        for n, (m, k) in enumerate(candidates):
            coprime = _coprime(lms[k], lm)
            if coprime or not any(
                _monomial_divides(c[0], m) for c in chain(kept, candidates[n + 1 :])
            ):
                kept.append((m, k, coprime))
        for m, k, coprime in kept:
            if not coprime:
                heappush(pairs, (key(m), k, new, m))
        live[:] = [k for k in live if not _monomial_divides(lm, lms[k])]
        live.append(new)
        basis.append(h)
        lms.append(lm)

    for g in sorted((g for g in gens if not g.is_zero), key=lambda g: key(g._head(key)[0])):
        add(g)
    while pairs:
        _, i, j, _ = heappop(pairs)
        h = reduce(s_polynomial(basis[i], basis[j], order), [basis[k] for k in live], order)
        if not h.is_zero:
            add(h)

    result = GroebnerBasis(order, gens, _interreduce([basis[k] for k in live], order))
    if _verify_bases and not buchberger_criterion_holds(result):
        raise AssertionError("computed basis fails the Buchberger criterion")
    return result


def ideal_membership(p: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> bool:
    """True iff p lies in the ideal generated by gens."""
    return groebner_basis(gens, order).contains(p)


def is_unit_ideal(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> bool:
    """True iff the generated ideal is the whole ring (no common zero)."""
    return groebner_basis(gens, order).is_unit


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


def radical_membership(p: Polynomial, gens: Sequence[Polynomial]) -> bool:
    """True iff some power of p lies in the ideal (Rabinowitsch trick)."""
    ring = p.ring
    (w,) = fresh_names(("w",), ring.variables)
    big = ring.extended((w,))
    w_var = big.var(big.arity - 1)
    lifted = [embed(g, big) for g in gens]
    lifted.append(big.one() - w_var * embed(p, big))
    return is_unit_ideal(lifted)


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
    return Ring(names).from_terms({e[n:]: c for e, c in nf.terms()})
