"""Derivations of the polynomial ring: application, iteration, bounded
local-nilpotency certification, kernel tests, and the fixed locus.

A derivation is determined by its images on the variables and extends to
everything by the Leibniz rule.  Local nilpotency is only ever certified
(by exhibiting vanishing chains on the generators), never refuted: if the
chains do not terminate within the bound the result is inconclusive.
"""

from __future__ import annotations

from math import lcm

from . import groebner
from .poly import Polynomial, Ring, RingMismatchError, _ProductLayout, _Record

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
    """A derivation given by the images of the ring variables."""

    __slots__ = ("ring", "images")

    def __init__(self, ring: Ring, images: tuple[Polynomial, ...]):
        images = tuple(images)
        if len(images) != ring.arity:
            raise ValueError(f"expected {ring.arity} images, got {len(images)}")
        for img in images:
            if img.ring != ring:
                raise RingMismatchError("derivation images over a different ring")
        self._init(ring, images)

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images)

    def __str__(self):
        pairs = ", ".join(
            f"{name} -> {img}" for name, img in zip(self.ring.variables, self.images)
        )
        return f"Derivation({pairs})"


def apply(
    D: Derivation,
    p: Polynomial,
    k: int = 1,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Polynomial:
    """k-th iterate of the Leibniz extension of D on p.

    Each iterate packs once (`poly._ProductLayout`), reads its partial
    derivatives off the packed terms, adds every image times one of them
    into one accumulator over the lcm of the images' denominators, and
    unpacks once; an iterate past degree_cap raises DegreeExplosionError."""
    if p.ring != D.ring:
        raise RingMismatchError("polynomial over a different ring")
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    ring = D.ring
    images = [(i, img) for i, img in enumerate(D.images) if img._num]
    den = lcm(*[img._den for _, img in images])
    # an iterate's degree grows by less than the largest image degree
    growth = max([img.total_degree() for _, img in images], default=0)
    out = p
    for _ in range(k):
        if out.is_zero:
            break
        layout = _ProductLayout(ring.arity, out.total_degree() + growth)
        packed = layout.pack(out._num)
        acc: dict[int, int] = {}
        for i, img in images:
            part = layout.partial(packed, i)
            if part:
                layout.add_product(acc, part, layout.pack(img._num), den // img._den)
        out = layout.unpack(ring, acc, out._den * den)
        if not out.is_zero and out.total_degree() > degree_cap:
            raise DegreeExplosionError(out.total_degree(), degree_cap)
    return out


class NilpotencyCertificate(_Record):
    """Outcome of bounded nilpotency certification: status "certified" or
    "inconclusive".

    chains[i] holds D(x_i), D^2(x_i), .. ; for a certified result each chain
    ends with the zero polynomial and orders[i] is its length, so that
    D^(orders[i]) kills x_i while D^(orders[i] - 1) does not; orders is None
    for an inconclusive result.
    """

    __slots__ = ("derivation", "status", "bound", "orders", "chains")

    def __init__(self, derivation: Derivation, status: str, bound: int,
                 orders: tuple[int, ...] | None, chains: tuple[tuple[Polynomial, ...], ...]):
        self._init(derivation, status, bound, orders, chains)

    @property
    def certified(self) -> bool:
        return self.status == "certified"


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
    chains: list[tuple[Polynomial, ...]] = []
    orders: list[int] = []
    certified = True
    for i in range(D.ring.arity):
        chain: list[Polynomial] = []
        current = D.ring.var(i)
        found = False
        for step in range(1, bound + 1):
            try:
                current = apply(D, current, 1, degree_cap)
            except DegreeExplosionError:
                certified = False
                break
            chain.append(current)
            if current.is_zero:
                orders.append(step)
                found = True
                break
        chains.append(tuple(chain))
        if not found:
            certified = False
    return NilpotencyCertificate(
        derivation=D,
        status="certified" if certified else "inconclusive",
        bound=bound,
        orders=tuple(orders) if certified else None,
        chains=tuple(chains),
    )


def kernel_check(D: Derivation, p: Polynomial) -> bool:
    """True iff p is annihilated by D."""
    return apply(D, p).is_zero


class FixedLocus(_Record):
    __slots__ = ("generators", "dimension", "is_fixed_point_free")

    def __init__(self, generators: tuple[Polynomial, ...], dimension: int, is_fixed_point_free: bool):
        self._init(generators, dimension, is_fixed_point_free)


def fixed_locus(D: Derivation) -> FixedLocus:
    """The vanishing locus of the vector field (D(x_1), .., D(x_n)).

    The derivation has no fixed points exactly when the images generate the
    unit ideal.
    """
    dim = groebner.groebner_basis(D.images).dimension
    return FixedLocus(
        generators=D.images,
        dimension=dim,
        is_fixed_point_free=dim == -1,
    )
