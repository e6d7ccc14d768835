import math
import random
from fractions import Fraction

import pytest

from conftest import is_invariant, rand_poly
from gaql.action import (
    GaAction,
    UncertifiedDerivationError,
    _verify_flow,
    act,
    deg_function,
    exponentiate,
)
from gaql.derivation import (
    DEFAULT_DEGREE_CAP,
    Derivation,
    NilpotencyCertificate,
    certify_locally_nilpotent,
)
from gaql.poly import NEG_INF, Ring, embed, fresh_names

R3 = Ring(("x1", "x2", "x3"))
R4 = Ring(("x", "y", "u", "v"))
X4, Y4, U4, V4 = R4.gens()

TRI = Ring(("x", "y", "z"))
TX, TY, TZ = TRI.gens()


def exp_of(D, bound=64):
    return exponentiate(D, certify_locally_nilpotent(D, bound))


@pytest.fixture(scope="module")
def shift():
    D = Derivation(R3, (R3.one(), R3.zero(), R3.zero()))
    return exp_of(D)


@pytest.fixture(scope="module")
def rotor():
    D = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))
    return exp_of(D)


def action_corpus():
    """Certified flows exercised by the group-law and degree suites."""
    zero3 = Derivation(TRI, (TRI.zero(),) * 3)
    shift = Derivation(R3, (R3.one(), R3.zero(), R3.zero()))
    rotor = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))
    triangle = Derivation(TRI, (TRI.zero(), TX, TY))
    steep = Derivation(TRI, (TRI.zero(), TX**2, TX + TY**2))
    return [exp_of(D) for D in (zero3, shift, rotor, triangle, steep)]


def test_exponentiate_shift(shift):
    ext = shift.extended_ring
    x1, x2, x3, t = ext.gens()
    assert shift.components == (x1 + t, x2, x3)


def test_exponentiate_rotor(rotor):
    ext = rotor.extended_ring
    x, y, u, v, t = ext.gens()
    assert rotor.components == (x, y, u + t * y, v - t * x)


def test_exponentiate_zero_derivation():
    D = Derivation(R3, (R3.zero(),) * 3)
    A = exp_of(D)
    assert A.components == tuple(embed(g, A.extended_ring) for g in R3.gens())


def test_exponentiate_rejects_uncertified():
    one = Ring(("x",))
    euler = Derivation(one, (one.var(0),))
    cert = certify_locally_nilpotent(euler, 10)
    with pytest.raises(UncertifiedDerivationError):
        exponentiate(euler, cert)
    # a hand-built certificate whose last chain stops short of zero
    D = Derivation(R3, (R3.zero(), R3.var(0), R3.var(1)))
    chains = certify_locally_nilpotent(D).chains
    cut = NilpotencyCertificate(D, 64, chains[:2] + (chains[2][:-1],))
    assert cut.status == "inconclusive" and cut.orders is None
    with pytest.raises(UncertifiedDerivationError):
        exponentiate(D, cut)


def test_certificate_must_match_derivation():
    D = Derivation(R3, (R3.one(), R3.zero(), R3.zero()))
    other = Derivation(R3, (R3.zero(), R3.one(), R3.zero()))
    with pytest.raises(UncertifiedDerivationError):
        exponentiate(D, certify_locally_nilpotent(other))


def test_parameter_name_avoids_ring_variables():
    ring = Ring(("t", "s"))
    D = Derivation(ring, (ring.one(), ring.zero()))
    A = exp_of(D)
    assert A.parameter == "t_"
    assert A.extended_ring.variables == ("t", "s", "t_")
    # the record stores components and certificate; the rest is read off them
    assert A._fields == ("components", "certificate")
    assert A.ring == ring and A.parameter_index == 2 and A.derivation == D


def test_act(shift, rotor):
    ext = shift.extended_ring
    x1 = R3.var(0)
    assert act(shift, x1) == ext.var(0) + ext.var(3)
    inv = X4 * U4 + Y4 * V4
    assert act(rotor, inv) == embed(inv, rotor.extended_ring)


def test_act_identity_action():
    D = Derivation(R3, (R3.zero(),) * 3)
    A = exp_of(D)
    p = R3.var(0) * R3.var(1) + 2
    assert act(A, p) == embed(p, A.extended_ring)


def test_is_invariant(shift, rotor):
    assert is_invariant(rotor, X4)
    assert is_invariant(rotor, Y4)
    assert is_invariant(rotor, X4 * U4 + Y4 * V4)
    assert not is_invariant(rotor, U4)
    assert not is_invariant(shift, R3.var(0))
    assert is_invariant(shift, R3.const(5))


def test_deg_function(rotor):
    assert deg_function(rotor, X4 * U4 + Y4 * V4) == 0
    assert deg_function(rotor, V4) == 1
    assert deg_function(rotor, R4.zero()) == NEG_INF
    assert deg_function(rotor, U4 * V4) == 2


def flow_slice_actions():
    """The flows D, N and T of the benchmark's flow-slice workload."""
    ring = Ring(("a", "b", "c", "d", "e"))
    a, b, c, d, _ = ring.gens()
    zero = ring.zero()
    f = 2 * a * c - b**2
    r = a * c + b**2
    D = Derivation(ring, (zero,) + tuple(v * f**2 for v in (a, b, c, d)))
    N = Derivation(ring, (-2 * b * r**3, c * r**3, zero, zero, zero))
    T = Derivation(ring, (zero, a, b**2, c**2, d))
    return [exp_of(E) for E in (D, N, T)]


def _identity_at_zero_holds(A):
    """Oracle: phi(0; x) = x, by substituting 0 for the parameter."""
    ring = A.ring
    zero_subst = list(ring.gens()) + [ring.zero()]
    return all(comp.compose(zero_subst) == ring.var(i) for i, comp in enumerate(A.components))


def _group_law_holds(A):
    """Oracle: phi(a; phi(b; x)) = phi(a + b; x) as a polynomial identity, by
    composing the flow with itself in a ring with two more parameters."""
    ring = A.ring
    n = ring.arity
    p1, p2 = fresh_names((A.parameter + "1", A.parameter + "2"), ring.variables)
    big = ring.extended((p1, p2))
    a, b = big.var(n), big.var(n + 1)
    x_images = [big.var(i) for i in range(n)]
    inner = [comp.compose(x_images + [b]) for comp in A.components]
    return all(
        comp.compose(inner + [a]) == comp.compose(x_images + [a + b]) for comp in A.components
    )


def test_group_law_and_identity_for_corpus():
    """Every flow exponentiate accepts passes the compose-based oracle."""
    for A in action_corpus() + flow_slice_actions():
        assert _identity_at_zero_holds(A), A
        assert _group_law_holds(A), A


BASIC4 = Ring(("a", "b", "c", "d"))


def _basic4_last_component(coefficients, shifts=(0, 0, 0, 0)):
    """d + sum_k t^(k + shifts[k]) coefficients[k] D^k(d) for D = (0, a, b, c),
    whose chain on d is c, b, a, 0."""
    ext = BASIC4.extended(("t",))
    a, b, c, d, t = ext.gens()
    terms = zip(coefficients, (d, c, b, a), shifts)
    return sum((q * v * t ** (k + s) for k, (q, v, s) in enumerate(terms)), ext.zero())


@pytest.mark.parametrize(
    "component",
    [
        pytest.param(
            _basic4_last_component((1, 1, Fraction(1, 2), Fraction(1, 6))) + 1, id="t0-constant-coefficient"
        ),
        pytest.param(_basic4_last_component((1, 1, 1, Fraction(1, 6))), id="t2-coefficient"),
        pytest.param(_basic4_last_component((1, 1, 0, Fraction(1, 6))), id="dropped-chain-term"),
        pytest.param(_basic4_last_component((1, 1, Fraction(1, 2), 0)), id="dropped-last-chain-term"),
        pytest.param(
            _basic4_last_component((1, 1, Fraction(1, 2), Fraction(1, 6)), (0, 0, 1, 0)),
            id="t2-moved-to-t3",
        ),
        pytest.param(
            _basic4_last_component([Fraction(1, max(k, 1)) for k in range(4)]), id="one-over-k-not-over-k-factorial"
        ),
    ],
)
def test_mutated_flow_fails_the_check_and_the_oracle(component):
    a, b, c, _ = BASIC4.gens()
    A = exp_of(Derivation(BASIC4, (BASIC4.zero(), a, b, c)))
    assert A.components[3] == _basic4_last_component([Fraction(1, math.factorial(k)) for k in range(4)])
    mutated = GaAction(A.components[:3] + (component,), A.certificate)
    with pytest.raises(RuntimeError):
        _verify_flow(mutated)
    assert not (_identity_at_zero_holds(mutated) and _group_law_holds(mutated))


def test_exponentiate_rejects_a_certificate_with_a_wrong_chain():
    a, b, c, _ = BASIC4.gens()
    D = Derivation(BASIC4, (BASIC4.zero(), a, b, c))
    cert = certify_locally_nilpotent(D)
    chains = cert.chains[:3] + ((c, 2 * b, a, BASIC4.zero()),)
    with pytest.raises(RuntimeError):
        exponentiate(D, NilpotencyCertificate(cert.derivation, cert.bound, chains))


def test_exponentiate_accepts_a_certificate_issued_under_a_higher_degree_cap():
    ring = Ring(("x", "y"))
    D = Derivation(ring, (ring.zero(), ring.var(0) ** (DEFAULT_DEGREE_CAP + 1)))
    A = exponentiate(D, certify_locally_nilpotent(D, degree_cap=DEFAULT_DEGREE_CAP + 1))
    ext = A.extended_ring
    assert A.components[1] == ext.var(1) + ext.var(2) * ext.var(0) ** (DEFAULT_DEGREE_CAP + 1)


def test_degree_subadditivity_random():
    rng = random.Random(31)
    for A in action_corpus():
        for _ in range(20):
            p = rand_poly(rng, A.ring, max_degree=2, max_terms=2)
            q = rand_poly(rng, A.ring, max_degree=2, max_terms=2)
            if p.is_zero or q.is_zero:
                continue
            assert deg_function(A, p * q) == deg_function(A, p) + deg_function(A, q)


def test_invariant_times_noninvariant_is_noninvariant(rotor):
    rng = random.Random(32)
    target = Ring(("a", "b", "c"))
    invariant_gens = [X4, Y4, X4 * U4 + Y4 * V4]
    for _ in range(20):
        s = rand_poly(rng, target, max_degree=2, max_terms=2)
        p = s.compose(invariant_gens)
        if p.is_zero:
            continue
        q = U4 + rand_poly(rng, R4, max_degree=1, max_terms=2) * Y4
        if deg_function(rotor, q) <= 0:
            continue
        assert deg_function(rotor, p * q) > 0
        assert not is_invariant(rotor, p * q)


def test_act_is_ring_hom_random(rotor):
    rng = random.Random(33)
    for _ in range(30):
        p = rand_poly(rng, R4, max_degree=2, max_terms=3)
        q = rand_poly(rng, R4, max_degree=2, max_terms=3)
        assert act(rotor, p * q) == act(rotor, p) * act(rotor, q)
        assert act(rotor, p + q) == act(rotor, p) + act(rotor, q)


def test_is_invariant_matches_comparing_the_pullback_with_p():
    rng = random.Random(34)
    outcomes = set()
    for A in action_corpus():
        ring = A.ring
        candidates = [rand_poly(rng, ring, max_degree=3, max_terms=4) for _ in range(15)]
        candidates += [ring.zero(), ring.const(3), ring.var(0), ring.var(0) ** 2 - 1]
        for p in candidates:
            # the comparison is_invariant made before it read the t-degree
            want = act(A, p) == embed(p, A.extended_ring)
            assert is_invariant(A, p) == want, (A, p)
            outcomes.add(want)
    assert outcomes == {True, False}


def _components_by_running_t_power(D, cert, ext):
    """exponentiate's components as built before with a running power of t."""
    t = ext.var(ext.arity - 1)
    components = []
    for i in range(D.ring.arity):
        comp = embed(D.ring.var(i), ext)
        t_power = ext.one()
        for k, deriv in enumerate(cert.chains[i], start=1):
            if deriv.is_zero:
                break
            t_power = t_power * t
            comp = comp + embed(deriv, ext) * t_power * Fraction(1, math.factorial(k))
        components.append(comp)
    return tuple(components)


def test_exponentiate_matches_the_running_t_power():
    for A in action_corpus():
        want = _components_by_running_t_power(A.derivation, A.certificate, A.extended_ring)
        assert A.components == want
        assert [list(c.terms()) for c in A.components] == [list(c.terms()) for c in want]
