import random
from fractions import Fraction

import pytest

from conftest import rand_poly, reference_apply
from gaql.derivation import (
    Derivation,
    DegreeExplosionError,
    NilpotencyCertificate,
    apply,
    certify_locally_nilpotent,
    fixed_locus,
    kernel_check,
)
from gaql.groebner import groebner_basis
from gaql.poly import Ring, RingMismatchError

R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()

D_SHIFT = Derivation(R3, (R3.one(), R3.zero(), R3.zero()))
D_TRIANGLE = Derivation(R3, (R3.zero(), X, Y))
D_ROTOR = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))


def test_construction_validation():
    with pytest.raises(ValueError):
        Derivation(R3, (X,))
    with pytest.raises(RingMismatchError):
        Derivation(R3, (X, Y, X4))


def test_apply_basics():
    assert apply(D_SHIFT, X**2) == 2 * X
    assert apply(D_ROTOR, X4 * U4 + Y4 * V4).is_zero
    assert apply(D_TRIANGLE, Z, 2) == X
    assert apply(D_TRIANGLE, Z, 3).is_zero
    assert apply(D_TRIANGLE, Z, 0) == Z


def test_apply_leibniz_random():
    rng = random.Random(21)
    for _ in range(200):
        p = rand_poly(rng, R3)
        q = rand_poly(rng, R3)
        lhs = apply(D_TRIANGLE, p * q)
        rhs = p * apply(D_TRIANGLE, q) + q * apply(D_TRIANGLE, p)
        assert lhs == rhs


def test_apply_linearity_random():
    rng = random.Random(22)
    for _ in range(100):
        p, q = rand_poly(rng, R3), rand_poly(rng, R3)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert apply(D_TRIANGLE, a * p + b * q) == a * apply(D_TRIANGLE, p) + b * apply(
            D_TRIANGLE, q
        )


def test_certify_shift():
    cert = certify_locally_nilpotent(D_SHIFT)
    assert cert.certified
    assert cert.orders == (2, 1, 1)
    # witness chains are re-checkable
    for i, chain in enumerate(cert.chains):
        assert chain[-1].is_zero
        assert chain[0] == apply(D_SHIFT, D_SHIFT.ring.var(i))
        for a, b in zip(chain, chain[1:]):
            assert apply(D_SHIFT, a) == b


def test_certify_rotor():
    cert = certify_locally_nilpotent(D_ROTOR)
    assert cert.certified
    assert cert.orders == (1, 1, 2, 2)
    assert cert.chains[2][0] == Y4
    assert cert.chains[3][0] == -X4


def test_certify_triangle():
    cert = certify_locally_nilpotent(D_TRIANGLE)
    assert cert.certified
    assert cert.orders == (1, 2, 3)


def test_certify_never_claims_for_euler():
    euler = Derivation(Ring(("x",)), (Ring(("x",)).var(0),))
    for bound in (1, 5, 10, 40):
        cert = certify_locally_nilpotent(euler, bound)
        assert cert.status == "inconclusive"
        assert cert.bound == bound
        assert cert.orders is None


def test_certify_degree_explosion_is_inconclusive():
    one_var = Ring(("x",))
    x = one_var.var(0)
    squarer = Derivation(one_var, (x**2,))
    cert = certify_locally_nilpotent(squarer, bound=64, degree_cap=16)
    assert cert.status == "inconclusive"


def test_certify_degree_explosion_at_step_one_leaves_an_empty_chain():
    one_var = Ring(("x",))
    x = one_var.var(0)
    squarer = Derivation(one_var, (x**2,))
    cert = certify_locally_nilpotent(squarer, bound=5, degree_cap=1)
    assert cert.chains == ((),)
    assert cert.status == "inconclusive" and not cert.certified and cert.orders is None
    assert NilpotencyCertificate(squarer, 5, ((),)) == cert


def test_certificate_reads_its_verdict_off_the_chains():
    """A certificate stores its chains only; status, certified and orders
    follow them, also on a hand-built certificate."""
    cert = certify_locally_nilpotent(D_TRIANGLE)
    assert cert._fields == ("derivation", "bound", "chains")
    assert cert.chains == ((R3.zero(),), (X, R3.zero()), (Y, X, R3.zero()))
    assert cert.status == "certified" and cert.orders == (1, 2, 3)
    cut = NilpotencyCertificate(D_TRIANGLE, 64, cert.chains[:2] + ((Y, X),))
    assert cut.status == "inconclusive" and not cut.certified and cut.orders is None
    # a chain per variable: a missing one is no certificate
    for chains in ((), cert.chains[:2]):
        assert NilpotencyCertificate(D_TRIANGLE, 64, chains).status == "inconclusive"
    # every chain is D's iterates on its variable, up to the first zero
    for x, chain in zip(R3.gens(), cert.chains):
        assert chain == tuple(apply(D_TRIANGLE, x, k) for k in range(1, len(chain) + 1))


def test_apply_checks_its_arguments_before_iterating():
    for k in (0, 1, 3):
        with pytest.raises(RingMismatchError):
            apply(D_TRIANGLE, X4, k)
    with pytest.raises(ValueError):
        apply(D_TRIANGLE, Z, -1)


def test_apply_past_the_first_zero_is_zero():
    assert apply(D_TRIANGLE, Z, 30).is_zero
    assert apply(D_TRIANGLE, R3.zero(), 2).is_zero


def test_apply_degree_explosion_raises():
    one_var = Ring(("x",))
    x = one_var.var(0)
    squarer = Derivation(one_var, (x**2,))
    with pytest.raises(DegreeExplosionError):
        apply(squarer, x, 40, degree_cap=20)


def _rand_derivation(rng, ring):
    """Images that are zero, constant or random, with denominators."""
    images = []
    for _ in range(ring.arity):
        kind = rng.random()
        if kind < 0.2:
            images.append(ring.zero())
        elif kind < 0.4:
            images.append(ring.const(rng.choice([1, -2, Fraction(3, 4)])))
        else:
            images.append(rand_poly(rng, ring, max_degree=3, max_terms=3))
    return Derivation(ring, images)


def test_apply_matches_the_leibniz_reference_random():
    rng = random.Random(24)
    seen = dict.fromkeys(("zero image", "constant image", "zero p", "k = 0", "denominator"), 0)
    for _ in range(400):
        ring = Ring(("x", "y", "z", "w")[: rng.randint(1, 4)])
        D = _rand_derivation(rng, ring)
        p = ring.zero() if rng.random() < 0.1 else rand_poly(rng, ring, max_degree=4, max_terms=5)
        k = rng.randint(0, 3)
        assert apply(D, p, k) == reference_apply(D, p, k), (D, p, k)
        seen["zero image"] += any(img.is_zero for img in D.images)
        seen["constant image"] += any(img.is_constant and not img.is_zero for img in D.images)
        seen["zero p"] += p.is_zero
        seen["k = 0"] += k == 0
        seen["denominator"] += any(img.integer_form()[0] > 1 for img in D.images)
    assert min(seen.values()) >= 20, seen


def _first_explosion(fn, D, p, k, cap):
    """(iterate, degree) of the first iterate of fn(D, p, .) past the cap,
    or None when none of the first k is."""
    for j in range(1, k + 1):
        try:
            fn(D, p, j, cap)
        except DegreeExplosionError as err:
            return j, err.degree
    return None


def test_degree_explosion_comes_at_the_reference_iterate_random():
    rng = random.Random(25)
    exploded = 0
    for _ in range(150):
        ring = Ring(("x", "y", "z")[: rng.randint(1, 3)])
        D = _rand_derivation(rng, ring)
        p = rand_poly(rng, ring, max_degree=3, max_terms=3)
        cap = rng.randint(1, 6)
        found = _first_explosion(apply, D, p, 4, cap)
        assert found == _first_explosion(reference_apply, D, p, 4, cap), (D, p, cap)
        exploded += found is not None
    assert exploded >= 30


def test_certify_is_inconclusive_under_a_low_degree_cap():
    # locally nilpotent, but D^2(w) = 2*y^2*z already has degree 3
    R = Ring(("x", "y", "z", "w"))
    x, y, z, _ = R.gens()
    D = Derivation(R, (R.zero(), x, y**2, z**2))
    assert certify_locally_nilpotent(D).orders == (1, 2, 4, 8)
    low = certify_locally_nilpotent(D, degree_cap=2)
    assert low.status == "inconclusive" and low.orders is None


def test_generator_nilpotency_extends_random():
    """Certified chains bound the vanishing order of arbitrary polynomials."""
    rng = random.Random(23)
    for D in (D_SHIFT, D_TRIANGLE, D_ROTOR):
        cert = certify_locally_nilpotent(D)
        slack = sum(n - 1 for n in cert.orders)
        for _ in range(50):
            p = rand_poly(rng, D.ring, max_degree=5, max_terms=3)
            if p.is_zero:
                continue
            cap = slack * int(p.total_degree()) + 1
            steps = 0
            while not p.is_zero:
                p = apply(D, p)
                steps += 1
                assert steps <= cap
            assert steps <= cap


def test_kernel_check():
    assert kernel_check(D_ROTOR, X4)
    assert kernel_check(D_ROTOR, X4 * U4 + Y4 * V4)
    assert not kernel_check(D_ROTOR, U4)
    assert kernel_check(D_ROTOR, R4.const(7))


def test_fixed_locus():
    free = fixed_locus(D_SHIFT)
    assert free.is_fixed_point_free
    assert free.dimension == -1

    rotor = fixed_locus(D_ROTOR)
    assert not rotor.is_fixed_point_free
    assert rotor.dimension == 2
    gb = groebner_basis([g for g in rotor.generators if not g.is_zero])
    assert gb.basis == groebner_basis([X4, Y4]).basis

    tri = fixed_locus(D_TRIANGLE)
    assert not tri.is_fixed_point_free
    assert tri.dimension == 1
    # the record stores its witness, and reads its verdicts off it
    assert tri._fields == ("generators", "witness")
    assert tri.witness == groebner_basis(D_TRIANGLE.images)


def test_fixed_locus_zero_derivation():
    zero = Derivation(R3, (R3.zero(),) * 3)
    loc = fixed_locus(zero)
    assert not loc.is_fixed_point_free
    assert loc.dimension == 3
