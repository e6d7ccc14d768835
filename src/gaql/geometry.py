"""Geometric probes on polynomial maps: fiber ideals at rational points,
singular loci, and image-complement scans.

A fiber over a rational point is empty over the complex numbers exactly
when its ideal contains 1, which a reduced Groebner basis detects as the
basis {1}; the certificate is valid over any field extension, so rational
arithmetic settles the complex question.  A `FiberReport` holds the point
and that basis, its witness, and reads emptiness and dimension off the
witness when asked; a scan decides emptiness only.

Only a fiber's constant terms depend on its point.  So a map's components
are packed once per packed layout (`PolyMap._packed_components`), and each
fiber's generators are made from those packings by scaling and moving the
constant term, in component order; Buchberger orders them as it orders any
generators.  The fiber's basis comes from the same Buchberger, FGLM and
lex code as `groebner.groebner_basis`, through their shared entry
`groebner._groebner`, in every monomial order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .groebner import GREVLEX, GroebnerBasis, MonomialOrder, _groebner, groebner_basis
from .poly import PolyMap, Polynomial, _Record, _exact

Point = tuple[Fraction, ...]


class FiberReport(_Record):
    """The fiber F^{-1}(point) and its witness, the reduced Groebner basis
    of its ideal, off which emptiness and dimension are read when asked."""

    __slots__ = ("point", "witness")

    def __init__(self, point: Point, witness: GroebnerBasis):
        self._init(point, witness)

    @property
    def empty(self) -> bool:
        """Whether the witness is the unit ideal's basis {1}."""
        return self.witness.is_unit

    @property
    def dimension(self) -> int:
        """The witness's Krull dimension: -1 exactly when empty."""
        return self.witness.dimension


class SingularityReport(_Record):
    """Rank-drop locus of the Jacobian, where all maximal `minors` vanish,
    with its witness `basis`, their reduced Groebner basis, off which the
    dimension and codimension are read: an empty locus has dimension -1 and
    codimension n + 1, so codimension >= 2 holds vacuously."""

    __slots__ = ("minors", "basis")

    def __init__(self, minors: tuple[Polynomial, ...], basis: GroebnerBasis):
        self._init(minors, basis)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def codimension(self) -> int:
        return self.basis.ring.arity - self.dimension

    @property
    def nonsingular_in_codim_1(self) -> bool:
        return self.codimension >= 2


class GridSpec(_Record):
    """A rational-box grid: `steps` evenly spaced samples per axis."""

    __slots__ = ("box", "steps")

    def __init__(self, box: Sequence[tuple], steps: int):
        box = tuple((_exact(lo), _exact(hi)) for lo, hi in box)
        if not box:
            raise ValueError("grid needs at least one axis")
        if steps < 1:
            raise ValueError("grid needs at least one step per axis")
        for lo, hi in box:
            if lo > hi:
                raise ValueError(f"malformed grid axis: [{lo}, {hi}]")
        self._init(box, steps)

    def axis_values(self, i: int) -> list[Fraction]:
        lo, hi = self.box[i]
        if self.steps == 1:
            return [lo]
        h = (hi - lo) / (self.steps - 1)
        return [lo + k * h for k in range(self.steps)]

    def points(self) -> Iterable[Point]:
        axes = [self.axis_values(i) for i in range(len(self.box))]
        return (tuple(p) for p in itertools.product(*axes))


def fiber_probe(F: PolyMap, point: Sequence, order: MonomialOrder = GREVLEX) -> FiberReport:
    """Groebner certificate for the fiber of F over a rational point.

    The witness basis is computed in the requested order; the report's
    dimension is read off it when asked: dim R/I = dim R/in(I) for every
    monomial order (Greuel-Pfister, A Singular Introduction to Commutative
    Algebra, Cor. 5.3.14).

    The generators f_i - v_i are never built as polynomials.  Each layout's
    packing of F's components is made once per map
    (`PolyMap._packed_components`); for f_i = num/den and v_i = n/d, the
    generator enters Buchberger as d * num - n * den, whose constant term
    is at the packed monomial 0: den * d times f_i - v_i, the same ideal.
    A generator that comes out zero (f_i is the constant v_i) is dropped.
    """
    if len(point) != len(F.components):
        raise ValueError(
            f"point has {len(point)} coordinates, map has {len(F.components)}"
        )
    values = tuple(_exact(v) for v in point)

    def generators(layout):
        gens = []
        for (num, den), v in zip(F._packed_components(layout), values):
            d = v.denominator
            h = dict(num) if d == 1 else {e: c * d for e, c in num.items()}
            c = h.pop(0, 0) - v.numerator * den
            if c:
                h[0] = c
            if h:
                gens.append(h)
        return gens

    return FiberReport(values, _groebner(F.ring, order, generators))


def singular_locus(F: PolyMap, order: MonomialOrder = GREVLEX) -> SingularityReport:
    """The ideal of all maximal minors of F's Jacobian matrix, with its
    reduced basis in `order`."""
    minors = F.maximal_minors()
    return SingularityReport(minors, groebner_basis(minors, order))


def complement_scan(
    F: PolyMap,
    probe: GridSpec | Iterable[Sequence],
    order: MonomialOrder = GREVLEX,
) -> tuple[FiberReport, ...]:
    """Probe many points and keep the empty fibers, in input order.  Only
    emptiness is decided; no fiber's dimension is computed."""
    points = probe.points() if isinstance(probe, GridSpec) else probe
    empties = []
    for point in points:
        report = fiber_probe(F, point, order)
        if report.empty:
            empties.append(report)
    return tuple(empties)
