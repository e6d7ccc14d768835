"""Derivations of the polynomial ring: application, iteration, bounded
local-nilpotency certification, kernel tests, and the fixed locus.

A derivation is determined by its images on the variables and extends to
everything by the Leibniz rule.  Local nilpotency is only ever certified
(by exhibiting vanishing chains on the generators), never refuted: if the
chains do not terminate within the bound the result is inconclusive.
"""

from __future__ import annotations

from itertools import islice
from math import lcm

from . import groebner
from .poly import Polynomial, Ring, RingMismatchError, _product_layout, _Record, _set

DEFAULT_BOUND = 64
DEFAULT_DEGREE_CAP = 512


class DegreeExplosionError(RuntimeError):
    """Iterated application exceeded the configured total-degree cap."""

    def __init__(self, degree, cap):
        super().__init__(
            f"iterated derivation reached total degree {degree}, cap is {cap}"
        )
        self.degree = degree
        self.cap = cap


class Derivation(_Record):
    """A derivation given by the images of the ring variables.  `_packings`
    keeps image i packed under a layout at (layout, i); it is not a field."""

    __slots__ = ("ring", "images", "_packings")
    _fields = ("ring", "images")

    def __init__(self, ring: Ring, images: tuple[Polynomial, ...]):
        images = tuple(images)
        if len(images) != ring.arity:
            raise ValueError(f"expected {ring.arity} images, got {len(images)}")
        for img in images:
            if img.ring != ring:
                raise RingMismatchError("derivation images over a different ring")
        self._init(ring, images)
        _set(self, "_packings", {})

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images)

    def __str__(self):
        pairs = ", ".join(
            f"{name} -> {img}" for name, img in zip(self.ring.variables, self.images)
        )
        return f"Derivation({pairs})"


def _iterates(D: Derivation, p: Polynomial, degree_cap):
    """D(p), D^2(p), .. up to and including the first zero; an iterate past
    degree_cap raises DegreeExplosionError.  Each iterate packs once under
    the `poly._product_layout` of its degree plus the images' largest, adds
    every image times a partial derivative over the images' lcm
    denominator, and unpacks once; D keeps each image packed per layout."""
    ring = D.ring
    images = [(i, img) for i, img in enumerate(D.images) if img._num]
    den = lcm(*[img._den for _, img in images])
    # an iterate's degree grows by less than the largest image degree
    growth = max([img.total_degree() for _, img in images], default=0)
    degree = p.total_degree()
    while not p.is_zero:
        layout = _product_layout(ring.arity, degree + growth)
        packed = layout.pack_all(p._num).items()
        acc: dict[int, int] = {}
        for i, img in images:
            part = layout.partial(packed, i)
            if part:
                image = D._packings.get((layout, i))
                if image is None:
                    image = D._packings[layout, i] = [*layout.pack_all(img._num).items()]
                layout.add_product(acc, part, image, den // img._den)
        p = layout.to_polynomial(ring, acc, p._den * den)
        degree = p.total_degree()  # NEG_INF, below every cap, for zero
        if degree > degree_cap:
            raise DegreeExplosionError(degree, degree_cap)
        yield p


def apply(
    D: Derivation,
    p: Polynomial,
    k: int = 1,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Polynomial:
    """k-th iterate of the Leibniz extension of D on p, taken from
    `_iterates`; an iterate past degree_cap raises DegreeExplosionError."""
    if p.ring != D.ring:
        raise RingMismatchError("polynomial over a different ring")
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    # past the first zero every iterate is zero, the last one taken
    for p in islice(_iterates(D, p, degree_cap), k):
        pass
    return p


class NilpotencyCertificate(_Record):
    """Bounded nilpotency certification of `derivation`, stored as its
    witness: chains[i] holds D(x_i), D^2(x_i), .. up to the first zero,
    within `bound` steps and short of an iterate past the degree cap.  It is
    "certified" when it has a chain per variable, each nonempty and ending
    in zero; orders[i], the length of chains[i], is then the least n with
    D^n(x_i) = 0.  Otherwise it is "inconclusive" and orders is None."""

    __slots__ = ("derivation", "bound", "chains")

    def __init__(self, derivation: Derivation, bound: int, chains: tuple[tuple[Polynomial, ...], ...]):
        self._init(derivation, bound, chains)

    @property
    def certified(self) -> bool:
        chains = self.chains
        return len(chains) == self.derivation.ring.arity and all(c and c[-1].is_zero for c in chains)

    @property
    def status(self) -> str:
        return "certified" if self.certified else "inconclusive"

    @property
    def orders(self) -> tuple[int, ...] | None:
        return tuple(map(len, self.chains)) if self.certified else None


def certify_locally_nilpotent(
    D: Derivation,
    bound: int = DEFAULT_BOUND,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> NilpotencyCertificate:
    """Drive each variable through D until it vanishes, up to `bound` steps.

    Vanishing on every generator extends to all polynomials by Leibniz, so a
    certificate is conclusive; running out of budget only yields
    "inconclusive", never a refutation.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    chains = []
    for x in D.ring.gens():
        chain: list[Polynomial] = []
        try:
            chain.extend(islice(_iterates(D, x, degree_cap), bound))
        except DegreeExplosionError:
            pass  # the chain stops short of zero: inconclusive
        chains.append(tuple(chain))
    return NilpotencyCertificate(D, bound, tuple(chains))


def kernel_check(D: Derivation, p: Polynomial) -> bool:
    """True iff p is annihilated by D."""
    return apply(D, p).is_zero


class FixedLocus(_Record):
    """The zeros of a derivation's images `generators`, with its witness,
    the images' reduced Groebner basis, off which dimension and freedom
    from fixed points are read."""

    __slots__ = ("generators", "witness")

    def __init__(self, generators: tuple[Polynomial, ...], witness: groebner.GroebnerBasis):
        self._init(generators, witness)

    @property
    def dimension(self) -> int:
        return self.witness.dimension

    @property
    def is_fixed_point_free(self) -> bool:
        """Whether the images generate the unit ideal."""
        return self.witness.is_unit


def fixed_locus(D: Derivation) -> FixedLocus:
    """The vanishing locus of the vector field (D(x_1), .., D(x_n))."""
    return FixedLocus(D.images, groebner.groebner_basis(D.images))
