import random
from fractions import Fraction

import pytest

from conftest import _criterion_free_basis, ideal_contains, rand_nonzero_poly
from gaql import groebner
from gaql.geometry import GridSpec, complement_scan, fiber_probe, singular_locus
from gaql.groebner import GREVLEX, LEX, GroebnerBasis, MonomialOrder, block_order, groebner_basis
from gaql.poly import PolyMap, Ring, _Layout

R2 = Ring(("x", "y"))
X2, Y2 = R2.gens()
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()

F_PUNCTURED = PolyMap(R3, (1 + X * Z, Y + Z + X * Y * Z))
F_BILINEAR = PolyMap(R4, (X4, Y4, X4 * U4 + Y4 * V4))
F_PARABOLIC = PolyMap(R3, (X, 2 * X * Z - Y**2))


def test_fiber_probe_missing_origin():
    report = fiber_probe(F_PUNCTURED, (0, 0))
    assert report.empty
    assert report.dimension == -1
    assert report.witness.basis == (R3.one(),)


def test_fiber_probe_generic_point():
    report = fiber_probe(F_PUNCTURED, (1, 1))
    assert not report.empty
    assert report.dimension == 1
    # the witness basis is re-checkable: each generator reduces to zero
    gens = [f - F_PUNCTURED.ring.const(v) for f, v in zip(F_PUNCTURED.components, (1, 1))]
    for g in gens:
        assert ideal_contains(report.witness, g)


def test_fiber_probe_fat_fiber():
    report = fiber_probe(F_BILINEAR, (0, 0, 0))
    assert not report.empty
    assert report.dimension == 2


def test_fiber_probe_empty_iff_unit_witness():
    report = fiber_probe(F_BILINEAR, (0, 0, 1))
    assert report.empty
    gens = [
        f - F_BILINEAR.ring.const(v)
        for f, v in zip(F_BILINEAR.components, (0, 0, 1))
    ]
    assert groebner_basis(gens).is_unit


def test_fiber_probe_point_shape():
    with pytest.raises(ValueError):
        fiber_probe(F_PUNCTURED, (0, 0, 0))


def _big_rational(rng) -> Fraction:
    """A negative rational with a large numerator and denominator."""
    return Fraction(-rng.randint(1, 10**12), rng.randint(2, 10**12))


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=str)
def test_fiber_probe_matches_the_oracle_on_the_shifted_components(order):
    """fiber_probe never builds f - v: it shifts F's packed components by
    the point.  Its witness must be the criterion-free oracle's basis of the
    polynomials f - v, and its emptiness and dimension those of
    groebner_basis on them.  Components carry their own denominators and
    points have negative coordinates with large numerators and
    denominators, so a shift that mishandles either denominator changes the
    ideal.  The cases: random maps, at random points and at the images of
    random source points (nonempty fibers); a map with a constant
    component, at a point off that constant (the unit ideal) and at one on
    it (the generator is dropped); (1, 2) over (1, 2), every generator
    dropped, the zero ideal; and x^200 - y, y, which does not fit 8-bit
    fields."""
    rng = random.Random(43)
    cases = [(PolyMap(R2, (R2.const(1), R2.const(2))), (1, 2))]
    wide = PolyMap(R2, (X2**200 - Y2, Y2))
    cases += [(wide, (0, 0)), (wide, (_big_rational(rng), _big_rational(rng)))]
    for _ in range(8):
        ring = Ring(("x", "y", "z")[: rng.randint(2, 3)])
        comps = [rand_nonzero_poly(rng, ring, max_degree=2, max_terms=3) * _big_rational(rng)
                 for _ in range(rng.randint(1, ring.arity))]
        F = PolyMap(ring, comps)
        source = [_big_rational(rng) for _ in range(ring.arity)]
        cases += [(F, [_big_rational(rng) for _ in comps]), (F, F.evaluate(source))]
        c = _big_rational(rng)
        G = PolyMap(ring, [*comps[: ring.arity - 1], ring.const(c)])
        cases += [(G, [*G.evaluate(source)[:-1], c]), (G, [*G.evaluate(source)[:-1], c - 1])]
    seen = set()
    for F, point in cases:
        report = fiber_probe(F, point, order)
        gens = [f - Fraction(v) for f, v in zip(F.components, point)]
        want = groebner_basis(gens, order)
        assert report.witness.basis == _criterion_free_basis(gens, order), (F, point)
        assert (report.empty, report.dimension) == (want.is_unit, want.dimension), (F, point)
        seen.add(report.dimension)
    assert {-1, 0, 1, 2} <= seen


def test_a_second_fiber_of_a_map_packs_nothing(monkeypatch):
    """The components are packed once per layout and kept on the map: a
    second probe, at another point, calls `_Layout.pack_all` not at all."""
    monkeypatch.setattr(groebner, "_verify_bases", False)  # it packs the basis
    pack_all, calls = _Layout.pack_all, []
    monkeypatch.setattr(_Layout, "pack_all", lambda self, num: calls.append(num) or pack_all(self, num))
    F = PolyMap(R3, (1 + X * Z, Y + Z + X * Y * Z))
    want = groebner_basis([F.components[0] + Fraction(3, 7), F.components[1] - 5]).basis
    calls.clear()
    first = fiber_probe(F, (0, 0))
    assert len(calls) == 2
    calls.clear()
    assert fiber_probe(F, (Fraction(-3, 7), 5)).witness.basis == want
    assert fiber_probe(F, (0, 0)) == first
    assert calls == []


def test_a_wide_component_restarts_before_anything_is_kept():
    """x^200 does not fit 8-bit fields: packing raises at 8 bits and the
    probe restarts at 16, the one layout whose packing the map keeps.  The
    map's equality and hash do not read what it keeps."""
    order = MonomialOrder("grevlex")  # no layout built yet
    F = PolyMap(R2, (X2**200 - Y2, Y2))
    twin = PolyMap(R2, (X2**200 - Y2, Y2))
    report = fiber_probe(F, (1, Fraction(-2, 3)), order)
    assert report.witness.basis == (X2**200 - Fraction(1, 3), Y2 + Fraction(2, 3))
    assert sorted(width for _, width in order._layouts) == [8, 16]
    assert list(F._packings) == [order._layout(2, 16)] and not twin._packings
    assert F == twin and hash(F) == hash(twin)


def test_bilinear_image_complement_on_grid():
    """Fibers are empty exactly on the punctured axis x = y = 0, value != 0."""
    vals = [Fraction(-1), Fraction(0), Fraction(1)]
    for a in vals:
        for b in vals:
            for c in vals:
                report = fiber_probe(F_BILINEAR, (a, b, c))
                should_be_empty = a == 0 and b == 0 and c != 0
                assert report.empty == should_be_empty


def test_singular_locus_punctured_map():
    report = singular_locus(F_PUNCTURED)
    assert report.basis.basis == groebner_basis([X, Z]).basis
    assert report.dimension == 1
    assert report.codimension == 2
    assert report.nonsingular_in_codim_1


def test_singular_locus_projection_is_empty():
    F = PolyMap(R3, (X, Y))
    report = singular_locus(F)
    assert report.dimension == -1
    assert report.codimension == 4
    assert report.nonsingular_in_codim_1
    # the record stores its witness; an empty locus has codimension n + 1
    assert report._fields == ("minors", "basis") and report.basis.is_unit
    for n in (2, 4):
        ring = Ring(tuple(f"x{i}" for i in range(n)))
        assert singular_locus(PolyMap(ring, ring.gens()[:-1])).codimension == n + 1


def test_singular_locus_rank_drop_on_hypersurface():
    F = PolyMap(R3, (X**2, Y))
    report = singular_locus(F)
    assert report.codimension == 1
    assert not report.nonsingular_in_codim_1


def test_singular_locus_where_every_minor_vanishes():
    report = singular_locus(PolyMap(R3, (X, X)))
    assert all(m.is_zero for m in report.minors)
    assert report.dimension == 3
    assert report.codimension == 0
    assert not report.nonsingular_in_codim_1


def test_singular_locus_shape_check():
    with pytest.raises(ValueError):
        singular_locus(PolyMap(R3, (X,)))


def test_singular_locus_invariant_under_target_change():
    """Composing with an invertible linear map of the target does not change
    the rank-drop flag."""
    rng = random.Random(51)
    base = singular_locus(F_PUNCTURED)
    f1, f2 = F_PUNCTURED.components
    for _ in range(10):
        while True:
            a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
            if a * d - b * c != 0:
                break
        moved = PolyMap(R3, (a * f1 + b * f2, c * f1 + d * f2))
        report = singular_locus(moved)
        assert report.nonsingular_in_codim_1 == base.nonsingular_in_codim_1
        assert report.basis.basis == base.basis.basis


def test_grid_spec():
    grid = GridSpec(box=((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(2))), steps=3)
    pts = list(grid.points())
    assert len(pts) == 9
    assert pts[0] == (Fraction(-1), Fraction(0))
    assert pts[-1] == (Fraction(1), Fraction(2))
    single = GridSpec(box=((Fraction(2), Fraction(2)),), steps=1)
    assert list(single.points()) == [(Fraction(2),)]
    with pytest.raises(ValueError):
        GridSpec(box=(), steps=2)
    with pytest.raises(ValueError):
        GridSpec(box=((Fraction(1), Fraction(0)),), steps=2)
    with pytest.raises(ValueError):
        GridSpec(box=((Fraction(0), Fraction(1)),), steps=0)
    # a steps that is not an int, or is a bool, would be stored and fail
    # later inside range
    for bad in (2.5, True, Fraction(3)):
        with pytest.raises(TypeError, match=type(bad).__name__):
            GridSpec(box=((0, 1), (0, 1)), steps=bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fiber_probe(F_PUNCTURED, (0.1, 0)),
        lambda: GridSpec(box=((0, 0.5),), steps=2),
    ],
    ids=["fiber_probe_point", "grid_box"],
)
def test_floats_are_rejected(call):
    with pytest.raises(TypeError, match="float"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda value: fiber_probe(PolyMap(R3, (X, Y)), (value, 0)),
        lambda value: GridSpec(box=((0, value),), steps=2),
    ],
    ids=["fiber_probe_point", "grid_box"],
)
def test_decimal_exponent_is_bounded(call):
    # Fraction("1e3000000") alone takes seconds; the exponent is refused first
    for text in ("1e4301", "-7E+4301", "2.5e-04301"):
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            call(text)
    assert call("1e4300") == call(10**4300)
    assert call("1e-4300") == call(Fraction(1, 10**4300))


def test_complement_scan_explicit_points():
    reports = complement_scan(F_BILINEAR, [(0, 0, 1), (1, 0, 0), (0, 0, -2)])
    assert [r.point for r in reports] == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(0), Fraction(-2)),
    ]


@pytest.mark.parametrize("F", [F_PUNCTURED, F_BILINEAR], ids=["punctured", "bilinear"])
def test_complement_scan_decides_emptiness_only(F, monkeypatch):
    # the grid holds the origin, over which both maps have empty fibers
    grid = GridSpec(box=((-1, 1),) * F.arity, steps=3)
    dimension, reads = GroebnerBasis.dimension, []
    monkeypatch.setattr(GroebnerBasis, "dimension", property(lambda gb: reads.append(gb) or dimension.fget(gb)))
    reports = complement_scan(F, grid)
    assert reads == []
    monkeypatch.undo()
    probes = [fiber_probe(F, point) for point in grid.points()]
    assert reports == tuple(r for r in probes if r.empty)
    assert reports
    for r in reports:
        assert r.dimension == -1
        assert r.witness.basis == (F.ring.one(),)


def test_complement_scan_surjective_quotient_map_grid():
    grid = GridSpec(
        box=((Fraction(-2), Fraction(2)), (Fraction(-2), Fraction(2))), steps=5
    )
    assert complement_scan(F_PARABOLIC, grid) == ()


def test_complement_scan_projection_never_empty():
    grid = GridSpec(
        box=((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1))), steps=3
    )
    assert complement_scan(PolyMap(R3, (X, Y)), grid) == ()
