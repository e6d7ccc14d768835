"""Quotient-map constructions: the Jacobian derivation of a polynomial map,
local-slice search, expression of the slice coefficient in the map's
components, and verification of the localization identity.

For a map F = (f_1, .., f_{n-1}) on an n-variable ring, the associated
derivation sends R to the Jacobian determinant of (R, f_1, .., f_{n-1}).
Every component of F is annihilated (a repeated row), so when the
derivation is certified locally nilpotent its flow leaves F invariant.

The slice search puts the candidate monomials' images under D^2 in echelon
form one at a time, as sparse vectors, and stops at the first certificate.
That is exact: a free column's nullspace vector is fixed once the search
reaches it, so this is the slice a scan of the whole nullspace finds.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd

from .derivation import Derivation, apply, kernel_check
from .groebner import _echelon_add, subalgebra_membership
from .poly import (
    GREVLEX,
    PolyMap,
    Polynomial,
    Ring,
    _REVERSED,
    _Record,
    fresh_names,
)

DEFAULT_SLICE_DEGREE_BOUND = 3
DEFAULT_POWER_BOUND = 8


def jacobian_derivation(F: PolyMap) -> Derivation:
    """The derivation R -> det Jacobian(R, f_1, .., f_{n-1}).

    Its image on x_i is the Jacobian determinant with first row the gradient
    of x_i; by multilinearity of the determinant this pins down the whole
    derivation.
    """
    # Laplace expansion along the unit first row: image i is (-1)^i minor i.
    minors = F.maximal_minors()
    return Derivation(F.ring, tuple(-m if i % 2 else m for i, m in enumerate(minors)))


class LocalSlice(_Record):
    """A polynomial f with D(f) = c nonzero and D(c) = 0.

    A slice depends on D alone.  P with c = P(f_1, .., f_m) depends on a
    map as well, and `slice_coefficient_as_P` finds it.
    """

    __slots__ = ("f", "c")

    def __init__(self, f: Polynomial, c: Polynomial):
        self._init(f, c)


def _monomials_upto(ring: Ring, degree: int):
    """Exponent tuples of total degree <= degree: degree ascending, and the
    grevlex-largest monomial first within each degree."""
    monomials = []
    for d in range(degree + 1):
        block = []
        for combo in combinations_with_replacement(range(ring.arity), d):
            exps = [0] * ring.arity
            for i in combo:
                exps[i] += 1
            block.append(tuple(exps))
        # within a degree, grevlex puts first the monomial whose reversed
        # exponents are lexicographically smallest
        block.sort(key=_REVERSED)
        monomials += block
    return monomials


def _integral_normalize(p: Polynomial) -> Polynomial:
    """Scale nonzero p to integer coefficients with content 1 and positive
    grevlex-leading coefficient: p divided by its content signed like that
    coefficient."""
    num = p._num
    g = gcd(*num.values()) if num[GREVLEX.leading_monomial(num)] > 0 else -gcd(*num.values())
    return Polynomial._from_integers(p.ring, {e: c // g for e, c in num.items()}, 1)


def find_local_slice(
    D: Derivation, degree_bound: int = DEFAULT_SLICE_DEGREE_BOUND
) -> LocalSlice | None:
    """Search polynomials of bounded degree for f with D(f) != 0, D^2(f) = 0.

    The second condition is linear in the coefficients of f, so the search
    is an exact sparse echelon over the candidate monomials, in
    `_monomials_upto` order.  Each candidate's image D^2(m) is reduced
    against the pivots so far, tracking the combination of candidates whose
    image it is, and becomes a pivot unless it reduces to zero.  If it does,
    the combination f has D^2(f) = 0 and lives on this candidate and the
    earlier pivot candidates, whose images are independent: f is a multiple
    of the reduced-echelon nullspace vector of this free column.  That
    vector is fixed once its column is reached, so the first f with
    D(f) != 0 is the one a scan of the whole nullspace basis in column order
    finds, and the search stops there.  Linearity makes the scan complete:
    if no basis vector has a nonzero image under D, neither does any
    combination.
    """
    if D.is_zero:
        raise ValueError("the zero derivation admits no slice")
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    ring = D.ring
    # pivot -> (image, combination): integer vectors over exponent tuples,
    # image = D^2 of the combination (see `groebner._echelon_add`)
    echelon = {}
    for exps in _monomials_upto(ring, degree_bound):
        den, image = apply(D, Polynomial(ring, {exps: 1}), 2).integer_form()
        combination = _echelon_add(echelon, image, {exps: den})
        if combination is None:
            continue
        f = Polynomial(ring, combination)
        if not apply(D, f).is_zero:
            f = _integral_normalize(f)
            return LocalSlice(f=f, c=apply(D, f))
    return None


def slice_coefficient_as_P(
    D: Derivation, slc: LocalSlice, F: PolyMap
) -> Polynomial | None:
    """Express the slice coefficient c in F's components, when possible.

    Requires c to be annihilated by D and F to be componentwise invariant;
    the witness P satisfies P(f_1, .., f_m) = c and lives over F's target
    ring.
    """
    if not kernel_check(D, slc.c):
        raise ValueError("slice coefficient is not annihilated by the derivation")
    for f in F.components:
        if not kernel_check(D, f):
            raise ValueError("map component is not annihilated by the derivation")
    return subalgebra_membership(slc.c, F.components, F.target_names)


def verify_localization_identity(
    slc: LocalSlice,
    F: PolyMap,
    R: Polynomial,
    power_bound: int = DEFAULT_POWER_BOUND,
) -> tuple[int, Polynomial] | None:
    """Smallest k with c^k R expressible in (f, f_1, .., f_m), plus the witness.

    The witness T lives over the tag ring whose first variable stands for the
    slice polynomial f and whose remaining variables are F's target names, so
    c^k R = T(f, f_1, .., f_m) exactly.  None if no k up to the bound works.
    The search reads only f, c and F: T is exact whether or not c is known
    to lie in Q[f_1, .., f_m].
    """
    if power_bound < 0:
        raise ValueError("power bound must be nonnegative")
    (slice_tag,) = fresh_names(("s",), F.target_names + F.ring.variables)
    tags = (slice_tag,) + F.target_names
    gens = (slc.f,) + F.components
    power = R.ring.one()
    for k in range(power_bound + 1):
        witness = subalgebra_membership(power * R, gens, tags)
        if witness is not None:
            return k, witness
        power = power * slc.c
    return None
