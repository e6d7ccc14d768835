import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import cofactor_det, is_invariant, jacobian_rows, rand_poly
from gaql.action import exponentiate
from gaql.derivation import Derivation, apply, certify_locally_nilpotent
from gaql.poly import PolyMap, Polynomial, Ring, grevlex_key
from gaql.quotient import (
    _monomials_upto,
    find_local_slice,
    jacobian_derivation,
    slice_coefficient_as_P,
    verify_localization_identity,
)

R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "u", "v"))
X, Y, Z = R3.gens()
X4, Y4, U4, V4 = R4.gens()

F_BILINEAR = PolyMap(R4, (X4, Y4, X4 * U4 + Y4 * V4))
F_PARABOLIC = PolyMap(R3, (X, 2 * X * Z - Y**2))


def exp_of(D):
    return exponentiate(D, certify_locally_nilpotent(D))


def test_jacobian_derivation_bilinear():
    D = jacobian_derivation(F_BILINEAR)
    assert D.images == (R4.zero(), R4.zero(), Y4, -X4)


def test_jacobian_derivation_parabolic():
    D = jacobian_derivation(F_PARABOLIC)
    assert D.images == (R3.zero(), -2 * X, -2 * Y)


def test_jacobian_derivation_projection():
    # dropping the first coordinate leaves a sign of a permutation matrix
    F = PolyMap(R3, (Y, Z))
    D = jacobian_derivation(F)
    assert D.images[0] in (R3.one(), -R3.one())
    assert D.images[1].is_zero and D.images[2].is_zero


def test_jacobian_derivation_annihilates_components():
    for F in (F_BILINEAR, F_PARABOLIC):
        D = jacobian_derivation(F)
        for f in F.components:
            assert apply(D, f).is_zero


def test_jacobian_derivation_consistent_with_determinant_random():
    rng = random.Random(41)
    for F in (F_BILINEAR, F_PARABOLIC):
        D = jacobian_derivation(F)
        for _ in range(50):
            R = rand_poly(rng, F.ring, max_degree=4, max_terms=3)
            # det Jacobian(R, f_1, .., f_{n-1}) by an expansion that shares
            # no code with poly.det
            assert apply(D, R) == cofactor_det(jacobian_rows([R, *F.components]))


def test_check_map_invariant():
    D = jacobian_derivation(F_BILINEAR)
    A = exp_of(D)
    assert all(is_invariant(A, f) for f in F_BILINEAR.components)
    # so are x * (x*u + y*v) and the constants; u is moved
    assert is_invariant(A, X4**2 * U4 + X4 * Y4 * V4)
    assert is_invariant(A, R4.one())
    assert not is_invariant(A, U4)

    shift = exp_of(Derivation(R3, (R3.one(), R3.zero(), R3.zero())))
    assert not all(is_invariant(shift, f) for f in (X, Y))
    identity = exp_of(Derivation(R3, (R3.zero(),) * 3))
    assert all(is_invariant(identity, f) for f in (X, Y))


def test_find_local_slice_shift():
    D = Derivation(R3, (R3.one(), R3.zero(), R3.zero()))
    slc = find_local_slice(D, 1)
    assert slc.f == X
    assert slc.c == R3.one()


def test_find_local_slice_triangle():
    D = Derivation(R3, (R3.zero(), X, Y))
    slc = find_local_slice(D, 1)
    assert slc.f == Y
    assert slc.c == X
    # z is not a slice at this bound: D^2(z) = x
    assert not apply(D, Z, 2).is_zero


def test_find_local_slice_rotor_prefers_first_variable():
    D = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))
    slc = find_local_slice(D, 1)
    assert slc.f == U4
    assert slc.c == Y4


def test_find_local_slice_properties():
    for D in (
        Derivation(R3, (R3.zero(), X, Y)),
        Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4)),
        Derivation(R3, (R3.zero(), X**2, X + Y**2)),
    ):
        slc = find_local_slice(D, 2)
        assert slc is not None
        assert apply(D, slc.f) == slc.c
        assert not slc.c.is_zero
        assert apply(D, slc.c).is_zero


def _fraction_rref_nullspace(rows, ncols):
    """Gauss-Jordan on Fraction rows: the reduced-echelon nullspace basis,
    one vector per free column, in column order."""
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    basis = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[col] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -m[row_idx][col]
        basis.append(vec)
    return basis


def _dense_slice_scan(D, degree_bound):
    """The local slice by the dense route: the whole D^2 matrix over the
    candidate monomials, its nullspace basis by _fraction_rref_nullspace,
    and the first basis vector in column order with D(f) != 0, scaled to
    be monic and then to integers with content 1."""
    ring = D.ring
    candidates = _monomials_upto(ring, degree_bound)
    images = [apply(D, Polynomial(ring, {e: 1}), 2) for e in candidates]
    row_of = {}
    for q in images:
        for e, _ in q.terms():
            row_of.setdefault(e, len(row_of))
    rows = [[Fraction(0)] * len(candidates) for _ in row_of]
    for col, q in enumerate(images):
        for e, c in q.terms():
            rows[row_of[e]][col] = c
    for vec in _fraction_rref_nullspace(rows, len(candidates)):
        f = Polynomial(ring, {e: v for e, v in zip(candidates, vec) if v})
        if not apply(D, f).is_zero:
            f = f * (1 / next(f.terms())[1])
            return f * lcm(*(c.denominator for _, c in f.terms()))
    return None


def _random_triangular(rng, ring):
    """A nonzero triangular derivation, D(x_0) = 0 and D(x_i) a random
    polynomial in x_0, .., x_{i-1}, seen in coordinates changed by two
    random substitutions x_k -> x_k + s*x_l, so that its slices are not
    always single variables."""
    images = [ring.zero()]
    for i in range(1, ring.arity):
        p = rand_poly(rng, ring, max_degree=2, max_terms=3, coeff_bound=2)
        images.append(Polynomial(ring, {e: c for e, c in p.terms() if not any(e[i:])}))
    gens = ring.gens()
    for _ in range(2):
        k, l = rng.sample(range(ring.arity), 2)
        s = rng.choice([1, -1, 2, Fraction(1, 2)])
        # D' = a D a^-1 for the automorphism a: x_k -> x_k + s*x_l
        images[k] = images[k] - s * images[l]
        images = [img.compose(gens[:k] + (gens[k] + s * gens[l],) + gens[k + 1 :]) for img in images]
    D = Derivation(ring, tuple(images))
    return _random_triangular(rng, ring) if D.is_zero else D


def test_find_local_slice_matches_dense_nullspace_scan():
    five = Ring(("a", "b", "c", "d", "e"))
    a, b, c, d, e = five.gens()
    f, r = 2 * a * c - b**2, a * c + b**2
    zero = five.zero()
    cases = [
        # flow-slice's derivations B, D, N and T
        (Derivation(five, (zero, a, b, c, d)), 5),
        (Derivation(five, (zero, a * f**2, b * f**2, c * f**2, d * f**2)), 4),
        (Derivation(five, (-2 * b * r**3, c * r**3, zero, zero, zero)), 4),
        (Derivation(five, (zero, a, b**2, c**2, d)), 4),
    ]
    two = Ring(("x", "y"))
    x, y = two.gens()
    for bound in (1, 2, 3):
        cases += [
            (Derivation(R3, (R3.one(), R3.zero(), R3.zero())), bound),
            (Derivation(R3, (R3.zero(), X, Y)), bound),
            (Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4)), bound),
            (Derivation(R3, (R3.zero(), X**2, X + Y**2)), bound),
            (Derivation(two, (x * y, two.zero())), bound),
            (jacobian_derivation(F_BILINEAR), bound),
            (jacobian_derivation(F_PARABOLIC), bound),
        ]
    # slices of degree 2 found after many pivots, which reduction by the
    # largest pivot lead first must bring to zero exactly
    cases += [
        (Derivation(R3, (Fraction(2, 3) * X * Z - X, (X + 2) * Fraction(1, 4), R3.zero())), 3),
        (Derivation(R4, ((2 * Y4 * V4 + 3 * V4**2) * Fraction(-1, 6), R4.zero(),
                         (2 - X4) * Fraction(1, 3), V4 * Fraction(-1, 2))), 3),
    ]
    rng = random.Random(12)
    for _ in range(16):
        ring = (R3, R4)[rng.randint(0, 1)]
        cases.append((_random_triangular(rng, ring), rng.randint(1, 3)))
    # no slice within the bound: cyclic, Euler and rotation
    absent = [
        Derivation(five, (b, c, d, e, a)),
        Derivation(five, (a, b, c, d, e)),
        Derivation(five, (-b, a, -d, c, e)),
    ]
    cases += [(D, 3) for D in absent]
    combinations = 0
    for D, bound in cases:
        want = _dense_slice_scan(D, bound)
        slc = find_local_slice(D, bound)
        if want is None:
            assert slc is None, (D, bound)
        else:
            assert slc.f == want, (D, bound)
            assert slc.c == apply(D, want)
            combinations += want.num_terms() > 1
    assert all(find_local_slice(D, 3) is None for D in absent)
    # some slices combine several candidates, so the tracked combinations count
    assert combinations > 0


def test_find_local_slice_absent_within_bound():
    two = Ring(("x", "y"))
    x, y = two.gens()
    D = Derivation(two, (x * y, two.zero()))
    # f = a*x + b*y + c has D(f) = a*x*y and D^2(f) = a*x*y^2, so D^2(f) = 0
    # forces a = 0 and then D(f) = 0: no slice of degree <= 1 exists
    assert find_local_slice(D, 1) is None


def test_find_local_slice_rejects_zero_derivation():
    zero = Derivation(R3, (R3.zero(),) * 3)
    with pytest.raises(ValueError):
        find_local_slice(zero)


def test_slice_coefficient_as_P_triangle():
    D = Derivation(R3, (R3.zero(), X, Y))
    slc = find_local_slice(D, 1)
    P = slice_coefficient_as_P(D, slc, F_PARABOLIC)
    target = Ring(F_PARABOLIC.target_names)
    assert P == target.var(0)
    assert P.compose(list(F_PARABOLIC.components)) == slc.c


def test_slice_coefficient_as_P_rotor():
    D = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))
    slc = find_local_slice(D, 1)
    P = slice_coefficient_as_P(D, slc, F_BILINEAR)
    assert P == Ring(F_BILINEAR.target_names).var(1)


def test_slice_coefficient_as_P_constant():
    D = Derivation(R3, (R3.one(), R3.zero(), R3.zero()))
    slc = find_local_slice(D, 1)
    F = PolyMap(R3, (Y, Z))
    P = slice_coefficient_as_P(D, slc, F)
    assert P == Ring(F.target_names).one()


def test_slice_coefficient_requires_invariance():
    D = Derivation(R3, (R3.zero(), X, Y))
    slc = find_local_slice(D, 1)
    bad_map = PolyMap(R3, (Z, X))  # z is not annihilated
    with pytest.raises(ValueError):
        slice_coefficient_as_P(D, slc, bad_map)


def test_localization_identity_triangle():
    D = Derivation(R3, (R3.zero(), X, Y))
    slc = find_local_slice(D, 1)
    out = verify_localization_identity(slc, F_PARABOLIC, Z)
    assert out is not None
    k, T = out
    assert k == 1
    tags = Ring(("s", "t1", "t2"))
    s, t1, t2 = tags.gens()
    assert T == (t2 + s**2) * Fraction(1, 2)
    composed = T.compose([slc.f, *F_PARABOLIC.components])
    assert composed == slc.c * Z
    assert 2 * slc.c * Z == (
        F_PARABOLIC.components[1] + slc.f**2
    )  # 2xz = f2 + f^2


def test_localization_identity_rotor():
    D = Derivation(R4, (R4.zero(), R4.zero(), Y4, -X4))
    slc = find_local_slice(D, 1)
    out = verify_localization_identity(slc, F_BILINEAR, V4)
    assert out is not None
    k, T = out
    assert k == 1
    composed = T.compose([slc.f, *F_BILINEAR.components])
    assert composed == slc.c * V4
    # y*v = (x*u + y*v) - x*u
    assert slc.c * V4 == F_BILINEAR.components[2] - X4 * slc.f


def test_localization_identity_component_is_free():
    D = Derivation(R3, (R3.zero(), X, Y))
    slc = find_local_slice(D, 1)
    out = verify_localization_identity(slc, F_PARABOLIC, F_PARABOLIC.components[0])
    assert out is not None
    k, T = out
    assert k == 0
    assert T == Ring(("s", "t1", "t2")).var(1)


def test_localization_identity_slice_tag_avoids_ring_variables():
    ring = Ring(("x", "y", "s"))
    x, y, s = ring.gens()
    D = Derivation(ring, (ring.zero(), x, y))
    F = PolyMap(ring, (x, 2 * x * s - y**2))
    slc = find_local_slice(D, 1)
    k, T = verify_localization_identity(slc, F, s)
    assert k == 1
    assert T.ring.variables == ("s_", "t1", "t2")
    s_, _, t2 = T.ring.gens()
    assert T == (s_**2 + t2) * Fraction(1, 2)
    assert T.compose([slc.f, *F.components]) == slc.c * s


def test_localization_identity_needs_no_P():
    """The identity reads f, c and the map alone: its witness is exact
    where c = x is not a polynomial in x^2 and 2xz - y^2, so that no P
    exists."""
    D = Derivation(R3, (R3.zero(), X, Y))
    F = PolyMap(R3, (X**2, 2 * X * Z - Y**2))
    slc = find_local_slice(D, 1)
    assert slice_coefficient_as_P(D, slc, F) is None
    k, T = verify_localization_identity(slc, F, Z)
    assert k == 1
    assert T.compose([slc.f, *F.components]) == slc.c * Z


def test_localization_identity_random_round_trip():
    rng = random.Random(42)
    D = Derivation(R3, (R3.zero(), X, Y))
    slc = find_local_slice(D, 1)
    for _ in range(10):
        R = rand_poly(rng, R3, max_degree=3, max_terms=3)
        out = verify_localization_identity(slc, F_PARABOLIC, R, power_bound=8)
        assert out is not None  # localization at c covers the whole ring
        k, T = out
        assert T.compose([slc.f, *F_PARABOLIC.components]) == slc.c**k * R


def _monomials_upto_walker(ring, degree):
    """The recursive enumeration _monomials_upto replaced, kept as its oracle."""
    by_degree = {d: [] for d in range(degree + 1)}

    def walk(prefix, remaining, pos):
        if pos == ring.arity - 1:
            for d in range(remaining + 1):
                exps = prefix + (d,)
                by_degree[sum(exps)].append(exps)
            return
        for d in range(remaining + 1):
            walk(prefix + (d,), remaining - d, pos + 1)

    walk((), degree, 0)
    out = []
    for d in range(degree + 1):
        out.extend(sorted(by_degree[d], key=grevlex_key, reverse=True))
    return out


def test_monomials_upto_matches_the_recursive_walker():
    names = ("a", "b", "c", "d", "e", "f", "g")
    for n in range(1, 8):
        ring = Ring(names[:n])
        for degree in range(7):
            assert _monomials_upto(ring, degree) == _monomials_upto_walker(ring, degree), (n, degree)


def test_monomials_upto_keeps_the_order_of_a_degree_then_reversed_tuple_key():
    """One sort of every monomial by (degree, reversed exponents), the key
    the per-degree sorts by reversed tuple replaced."""
    names = ("a", "b", "c", "d", "e")
    for n in range(1, 6):
        ring = Ring(names[:n])
        for degree in range(6):
            monomials = _monomials_upto(ring, degree)
            assert monomials == sorted(monomials, key=lambda e: (sum(e), e[::-1])), (n, degree)
