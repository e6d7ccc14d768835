"""Shared test helpers: random polynomial generation, random division
problems, a leading-term oracle, a cofactor-expansion determinant that
shares no code with `poly.det`, and the criterion-free Buchberger oracle
with its scaling S-polynomial and interreduction, which `test_groebner`
and `test_geometry` both compare against.  `det` expands minors too, so
the determinant oracle with another method is `test_poly`'s Gaussian
elimination at rational points.  `jacobian_rows` builds the Jacobian
matrix whose determinant the tests take, by `det` or by `cofactor_det`.
`reference_str` is the printer oracle, on Fractions and `grevlex_key`.
`reference_apply` and `reference_compose` are the oracles for the packed
`derivation.apply` and `Polynomial.compose`, built from public operations.
`is_invariant` is the invariance oracle on a flow's t-degree, and
`ideal_contains` the ideal-membership oracle on a reduced basis."""

import itertools
import random
from fractions import Fraction

import pytest

from gaql import groebner
from gaql.action import deg_function
from gaql.derivation import DEFAULT_DEGREE_CAP, DegreeExplosionError
from gaql.groebner import reduce
from gaql.poly import Polynomial, Ring, grevlex_key


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


def reference_str(p: Polynomial) -> str:
    """The canonical form of p, written from its Fraction coefficients with
    the terms sorted by `grevlex_key`: the reference for
    `Polynomial.__str__`, which sorts with C keys and writes each term from
    the stored integers."""
    terms = sorted(dict(p.terms()).items(), key=lambda t: grevlex_key(t[0]), reverse=True)
    chunks = []
    for exps, c in terms:
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(p.ring.variables, exps) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if chunks:
            chunks.append(("+ " if c > 0 else "- ") + body)
        else:
            chunks.append(body if c > 0 else "-" + body)
    return " ".join(chunks) or "0"


def reference_apply(D, p: Polynomial, k: int = 1, degree_cap=DEFAULT_DEGREE_CAP) -> Polynomial:
    """The k-th iterate of D on p by the Leibniz rule, sum_i D(x_i) * dp/dx_i,
    one public product and one public sum per image, with the degree-cap
    check after each iterate: the reference for `derivation.apply`."""
    out = p
    for _ in range(k):
        step = D.ring.zero()
        for i, img in enumerate(D.images):
            if not img.is_zero:
                step = step + img * out.partial_derivative(i)
        out = step
        if not out.is_zero and out.total_degree() > degree_cap:
            raise DegreeExplosionError(out.total_degree(), degree_cap)
    return out


def is_invariant(action, p: Polynomial) -> bool:
    """True iff p is unchanged along the flow, that is iff `deg_function`
    reads 0 (or NEG_INF, for p = 0)."""
    return deg_function(action, p) <= 0


def ideal_contains(gb, p: Polynomial) -> bool:
    """True iff p lies in the ideal of the Groebner basis gb, that is iff p
    reduces to zero by it."""
    return reduce(p, gb.basis, gb.order).is_zero


def reference_compose(p: Polynomial, images) -> Polynomial:
    """p with images[i] substituted for variable i, term by term: each
    term's Fraction coefficient times the public powers of the images,
    added to the sum one term at a time: the reference for
    `Polynomial.compose`."""
    target = images[0].ring
    total = target.zero()
    for exps, c in p.terms():
        term = target.const(c)
        for img, e in zip(images, exps):
            if e:
                term = term * img**e
        total = total + term
    return total


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


def jacobian_rows(fs) -> list[list[Polynomial]]:
    """The Jacobian matrix of fs: row i the gradient of fs[i], columns in
    the ring's variable order."""
    return [[f.partial_derivative(j) for j in range(f.ring.arity)] for f in fs]


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


def _scaling_interreduce(polys, order):
    """Interreduction that makes each minimal element monic by a product
    with 1/lc, finding leading terms with a fresh max: the reference for the
    monic elements that `_interreduce` builds from packed heads."""
    minimal, lms = [], []
    heads = [(max(p.terms(), key=lambda t: order.key(t[0])), p) for p in polys]
    for (lm, c), p in sorted(heads, key=lambda head: order.key(head[0][0])):
        if not any(all(a <= b for a, b in zip(m, lm)) for m in lms):
            minimal.append(p * (Fraction(1) / c))
            lms.append(lm)
    reduced = [reduce(p, minimal[:i] + minimal[i + 1 :], order) for i, p in enumerate(minimal)]
    return tuple(reversed(reduced))


def _scaling_s_polynomial(f, g, order):
    """The S-polynomial as the difference of two monomial multiples: the
    reference for `groebner._s_polynomial`, which builds it from the packed
    monic tails."""
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    lcm = tuple(map(max, fm, gm))
    f_multiple = f.mul_monomial(tuple(a - b for a, b in zip(lcm, fm)), 1 / fc)
    return f_multiple - g.mul_monomial(tuple(a - b for a, b in zip(lcm, gm)), 1 / gc)


def _criterion_free_basis(gens, order):
    """Buchberger with no pair criteria and no pair order: every pair of the
    growing list, in the order formed, is reduced against the whole list,
    and the list is interreduced by the scaling reference at the end.  The
    oracle for groebner_basis's pair heap and pair update; it builds its
    S-polynomials by `_scaling_s_polynomial`, not by the code under test."""
    basis = [g for g in gens if not g.is_zero]
    pending = list(itertools.combinations(range(len(basis)), 2))
    for i, j in pending:  # grows while it is iterated
        h = reduce(_scaling_s_polynomial(basis[i], basis[j], order), basis, order)
        if not h.is_zero:
            pending.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(h)
    return _scaling_interreduce(basis, order)
