"""Shared test helpers: random polynomial generation, random division
problems, a leading-term oracle, and a cofactor-expansion determinant that
shares no code with `poly.det`.  `det` expands minors too, so the
determinant oracle with another method is `test_poly`'s Gaussian
elimination at rational points."""

import random
from fractions import Fraction

import pytest

from gaql import groebner
from gaql.poly import Polynomial, Ring


@pytest.fixture(autouse=True)
def verify_groebner_bases():
    """Check the Buchberger criterion on every basis computed during tests."""
    groebner.set_basis_verification(True)
    yield
    groebner.set_basis_verification(False)


def leading_term(p: Polynomial, order):
    """(exponents, coefficient) of the order-largest term, found by the
    order's sort key rather than on packed monomials; p must be nonzero."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    lm = max(p._num, key=order.key)
    return lm, p.coefficient(lm)


def rand_poly(rng: random.Random, ring: Ring, max_degree=3, max_terms=4,
              coeff_bound=6) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.arity
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.arity)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 4)
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(num, den)
    return Polynomial(ring, terms)


def rand_nonzero_poly(rng, ring, **kw) -> Polynomial:
    while True:
        p = rand_poly(rng, ring, **kw)
        if not p.is_zero:
            return p


def rand_division_case(rng: random.Random, order):
    """A random p and 1-4 nonzero divisors in 1-4 variables.  About half of
    the divisors after the first copy an earlier divisor's leading term
    (scaled) above smaller random terms, so that several divisors share a
    leading monomial and the choice among them shows in the remainder."""
    ring = Ring(("x", "y", "z", "w")[: rng.randint(1, 4)])
    p = rand_poly(rng, ring, max_degree=4, max_terms=6)
    divisors = []
    for _ in range(rng.randint(1, 4)):
        d = rand_nonzero_poly(rng, ring, max_degree=2)
        if divisors and rng.random() < 0.5:
            lm, lc = leading_term(rng.choice(divisors), order)
            lower = {e: c for e, c in d.terms() if order.key(e) < order.key(lm)}
            d = Polynomial(ring, {**lower, lm: lc * rng.randint(1, 3)})
        divisors.append(d)
    return p, divisors


def cofactor_det(rows) -> Polynomial:
    """Laplace expansion along the first row, recomputing every minor."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    total = ring.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        contrib = entry * cofactor_det(minor)
        total = total + contrib if j % 2 == 0 else total - contrib
    return total
