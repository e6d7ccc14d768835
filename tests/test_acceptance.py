"""Acceptance suite: one test per criterion, exact assertions, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import random
import time
from fractions import Fraction

from conftest import is_invariant, jacobian_rows, rand_poly
from gaql.action import deg_function, exponentiate
from gaql.derivation import Derivation, apply, certify_locally_nilpotent, fixed_locus
from gaql.exprs import parse_polynomial
from gaql.geometry import GridSpec, complement_scan, fiber_probe, singular_locus
from gaql.groebner import (
    buchberger_criterion_holds,
    groebner_basis,
    subalgebra_membership,
)
from gaql.poly import PolyMap, Ring, det
from gaql.quotient import (
    find_local_slice,
    jacobian_derivation,
    slice_coefficient_as_P,
    verify_localization_identity,
)

R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()


def _criterion(name: str, budget_seconds: float, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"[acceptance] {name}: {verdict} ({elapsed:.3f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds


def test_criterion_1_punctured_plane_map():
    def body():
        F = PolyMap(R3, (1 + X * Z, Y + Z + X * Y * Z))
        assert fiber_probe(F, (0, 0)).empty

        points = [
            (1, 1),
            (1, 0),
            (0, 1),
            (2, 3),
            (-1, 2),
            (Fraction(1, 2), Fraction(1, 3)),
            (-5, 7),
            (4, -4),
            (3, Fraction(1, 2)),
            (-2, -3),
        ]
        for point in points:
            assert not fiber_probe(F, point).empty

        report = singular_locus(F)
        assert report.basis.basis == groebner_basis([X, Z]).basis
        assert report.codimension == 2
        assert report.nonsingular_in_codim_1

    _criterion("punctured-plane map: fibers and singular locus", 1.0, body)


def test_criterion_2_bilinear_quotient_map():
    def body():
        F = PolyMap(R4, (X4, Y4, X4 * U4 + Y4 * V4))
        D = jacobian_derivation(F)
        assert D.images in (
            (R4.zero(), R4.zero(), Y4, -X4),
            (R4.zero(), R4.zero(), -Y4, X4),
        )

        cert = certify_locally_nilpotent(D)
        assert cert.certified
        assert cert.orders == (1, 1, 2, 2)

        A = exponentiate(D, cert)
        ext = A.extended_ring
        x, y, u, v, t = ext.gens()
        reference = (x, y, u - t * y, v + t * x)
        flipped = [c.compose([x, y, u, v, -t]) for c in A.components]
        assert tuple(flipped) == reference or tuple(A.components) == reference

        for p in (X4, Y4, X4 * U4 + Y4 * V4):
            assert is_invariant(A, p)

        assert fiber_probe(F, (0, 0, 1)).empty
        origin = fiber_probe(F, (0, 0, 0))
        assert not origin.empty
        assert origin.dimension == 2

        locus = fixed_locus(D)
        assert not locus.is_fixed_point_free
        nonzero = [g for g in locus.generators if not g.is_zero]
        assert groebner_basis(nonzero).basis == groebner_basis([X4, Y4]).basis
        assert locus.dimension == 2

    _criterion("bilinear quotient map: derivation, flow, fibers", 1.0, body)


def test_criterion_3_surjectivity_probe_and_localization():
    def body():
        D = Derivation(R3, (R3.zero(), X, Y))
        F = PolyMap(R3, (X, 2 * X * Z - Y**2))

        grid = GridSpec(box=((Fraction(-5), Fraction(5)),) * 2, steps=11)
        assert complement_scan(F, grid) == ()

        slc = find_local_slice(D, 1)
        assert slc is not None
        assert slc.f == Y
        assert slc.c == X

        P = slice_coefficient_as_P(D, slc, F)
        assert P == Ring(F.target_names).var(0)

        out = verify_localization_identity(slc, F, Z)
        assert out is not None
        k, T = out
        assert k == 1
        assert T.compose([slc.f, *F.components]) == slc.c * Z
        assert 2 * slc.c * Z == F.components[1] + slc.f**2

    _criterion("surjective quotient map probe and localization", 5.0, body)


def test_criterion_4_coordinate_shift_flow():
    def body():
        ring = Ring(("x1", "x2", "x3"))
        D = Derivation(ring, (ring.one(), ring.zero(), ring.zero()))
        cert = certify_locally_nilpotent(D)
        A = exponentiate(D, cert)
        ext = A.extended_ring
        x1, x2, x3, t = ext.gens()
        assert A.components == (x1 + t, x2, x3)

        big = ext.extended(("s1", "s2"))
        xs = [big.var(i) for i in range(3)]
        s1, s2 = big.var(4), big.var(5)
        inner = [c.compose(xs + [s2]) for c in A.components]
        for i, c in enumerate(A.components):
            assert c.compose(inner + [s1]) == c.compose(xs + [s1 + s2])

        assert fixed_locus(D).is_fixed_point_free

    _criterion("coordinate shift flow", 0.1, body)


def test_criterion_5_property_suites():
    def body():
        rng = random.Random(99)

        # Leibniz rule, 200 random pairs
        D = Derivation(R3, (R3.zero(), X, Y))
        for _ in range(200):
            p, q = rand_poly(rng, R3), rand_poly(rng, R3)
            assert apply(D, p * q) == p * apply(D, q) + q * apply(D, p)

        # determinant alternation, 50 random instances with n <= 4
        for _ in range(50):
            n = rng.choice((2, 3, 4))
            ring = Ring(tuple(f"x{i}" for i in range(n)))
            fs = [rand_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(n)]
            base = det(jacobian_rows(fs))
            i, j = rng.sample(range(n), 2)
            swapped = list(fs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert det(jacobian_rows(swapped)) == -base
            repeated = list(fs)
            repeated[i] = repeated[j]
            assert det(jacobian_rows(repeated)).is_zero

        # identity at zero and the group law for every certified flow
        corpus = [
            Derivation(R3, (R3.zero(),) * 3),
            Derivation(R3, (R3.one(), R3.zero(), R3.zero())),
            Derivation(R3, (R3.zero(), X, Y)),
            Derivation(R3, (R3.zero(), X**2, X + Y**2)),
            Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4)),
        ]
        for D in corpus:
            A = exponentiate(D, certify_locally_nilpotent(D))
            ring = A.ring
            zero_subst = list(ring.gens()) + [ring.zero()]
            for i, comp in enumerate(A.components):
                assert comp.compose(zero_subst) == ring.var(i)
            big = A.extended_ring.extended(("s1_", "s2_"))
            n = ring.arity
            xs = [big.var(i) for i in range(n)]
            s1, s2 = big.var(n + 1), big.var(n + 2)
            inner = [c.compose(xs + [s2]) for c in A.components]
            for c in A.components:
                assert c.compose(inner + [s1]) == c.compose(xs + [s1 + s2])

        # the Buchberger criterion holds for freshly computed bases
        for gens in (
            [X**2 - Y, X * Y - Z],
            [1 + X * Z, Y + Z + X * Y * Z],
            [X4 * U4 + Y4 * V4 - 1, X4, Y4],
        ):
            assert buchberger_criterion_holds(groebner_basis(gens))

        # subalgebra membership round trip on positive answers
        fs = [X4, Y4, X4 * U4 + Y4 * V4]
        target = Ring(("t1", "t2", "t3"))
        for _ in range(20):
            s_in = rand_poly(rng, target, max_degree=2, max_terms=3)
            g = s_in.compose(fs)
            witness = subalgebra_membership(g, fs)
            assert witness is not None
            assert witness.compose(fs) == g

        # parse/format round trip on 500 random polynomials
        rings = [R3, R4, Ring(("a",))]
        for _ in range(500):
            ring = rng.choice(rings)
            p = rand_poly(rng, ring, max_degree=4, max_terms=5, coeff_bound=9)
            assert parse_polynomial(str(p), ring) == p

    _criterion("property suites", 30.0, body)


def test_criterion_6_negative_controls():
    def body():
        one_var = Ring(("x",))
        euler = Derivation(one_var, (one_var.var(0),))
        cert = certify_locally_nilpotent(euler, 10)
        assert cert.status == "inconclusive"
        assert cert.bound == 10

        assert subalgebra_membership(U4, [X4, Y4, X4 * U4 + Y4 * V4]) is None

        D = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))
        A = exponentiate(D, certify_locally_nilpotent(D))
        assert deg_function(A, V4) == 1
        assert deg_function(A, X4 * U4 + Y4 * V4) == 0
        assert is_invariant(A, X4 * U4 + Y4 * V4)
        assert not is_invariant(A, V4)

    _criterion("negative controls", 30.0, body)
