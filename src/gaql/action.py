"""Additive group actions obtained by exponentiating certified locally
nilpotent derivations.

The flow of a certified derivation D is the polynomial map with components
sum_k t^k D^k(x_i) / k!, a finite sum thanks to the certificate.  Each flow
is verified at construction time by phi(0; x) = x and d(phi)/dt = D(phi).
Coefficient by coefficient in t, these force phi = exp(tD)(x); as exp(tD)
is a ring homomorphism, exp(sD) exp(tD) = exp((s + t)D) gives the group law
phi(s; phi(t; x)) = phi(s + t; x) (van den Essen, Polynomial Automorphisms,
2000; Freudenburg, Algebraic Theory of Locally Nilpotent Derivations, 2017).

A flow is assembled in one pass from the stored integers of its chains.  The
check splits each component by powers of t from its stored integers and
recomputes D of each coefficient, not reading the certificate's chains.
`apply`, and `compose` under `act`, run on `poly`'s packed product kernel.
A `GaAction` stores only its components and its certificate: the ring, the
derivation and the parameter are read off them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .derivation import Derivation, NilpotencyCertificate, apply
from .poly import NEG_INF, Polynomial, Ring, RingMismatchError, _Record, fresh_names


class UncertifiedDerivationError(ValueError):
    """Exponentiation was asked for without a valid nilpotency certificate."""


class GaAction(_Record):
    """The flow phi(t; x) = exp(tD)(x) of a certified derivation D, verified by
    phi(0; x) = x and d(phi)/dt = D(phi), which imply the group law.  The
    x-variables' `ring` is the certificate's; the components live over it
    extended by the parameter, their ring's last variable."""

    __slots__ = ("components", "certificate")

    def __init__(self, components: tuple[Polynomial, ...], certificate: NilpotencyCertificate):
        self._init(components, certificate)

    @property
    def derivation(self) -> Derivation:
        return self.certificate.derivation

    @property
    def ring(self) -> Ring:
        return self.derivation.ring

    @property
    def extended_ring(self) -> Ring:
        return self.components[0].ring

    @property
    def parameter(self) -> str:
        return self.extended_ring.variables[-1]

    @property
    def parameter_index(self) -> int:
        return self.ring.arity

    def __str__(self):
        body = ", ".join(str(c) for c in self.components)
        return f"({body})"


def exponentiate(D: Derivation, cert: NilpotencyCertificate) -> GaAction:
    """Integrate a certified derivation into a polynomial flow, whose
    parameter is `t`, renamed by `fresh_names` if the ring has a `t`."""
    if not cert.certified:
        raise UncertifiedDerivationError(
            f"nilpotency is not certified (inconclusive at bound {cert.bound})"
        )
    if cert.derivation != D:
        raise UncertifiedDerivationError(
            "certificate was issued for a different derivation"
        )
    ext = D.ring.extended(fresh_names(("t",), D.ring.variables))
    terms = [
        {e + (k,): Fraction(c, p._den * math.factorial(k)) for k, p in enumerate(chain, 1) for e, c in p._num.items()}
        for chain in cert.chains
    ]
    action = GaAction(tuple(ext.var(i) + Polynomial(ext, t) for i, t in enumerate(terms)), cert)
    _verify_flow(action)
    return action


def _verify_flow(action: GaAction):
    """phi(0; x) = x and d(phi)/dt = D(phi): for phi_i = sum_k t^k c_k with c_k
    in the base ring, c_0 = x_i and D(c_k) = (k + 1) c_(k+1), D(c_last) = 0."""
    ring = action.ring
    for i, comp in enumerate(action.components):
        by_power: dict[int, dict] = {}
        for exps, c in comp._num.items():  # the parameter is the last variable
            by_power.setdefault(exps[-1], {})[exps[:-1]] = c
        top = max(by_power, default=0)
        coeffs = [Polynomial._from_integers(ring, by_power.get(k, {}), comp._den) for k in range(top + 1)]
        if coeffs[0] != ring.var(i):
            raise RuntimeError(f"flow does not restrict to the identity at {action.parameter} = 0")
        # one application of D cannot blow up: the degree cap guards iterates,
        # and the certificate may have been issued under a higher one
        for k, (c, nxt) in enumerate(zip(coeffs, coeffs[1:] + [ring.zero()])):
            if apply(action.derivation, c, degree_cap=math.inf) != nxt * (k + 1):
                raise RuntimeError(f"flow does not satisfy d(phi)/d{action.parameter} = D(phi)")


def act(action: GaAction, p: Polynomial) -> Polynomial:
    """Pull p back along the flow: the polynomial p(phi(t; x))."""
    if p.ring != action.ring:
        raise RingMismatchError("polynomial over a different ring")
    return p.compose(list(action.components))


def deg_function(action: GaAction, p: Polynomial):
    """Degree in the flow parameter of p(phi(t; x)).

    Zero for nonzero invariants, positive otherwise, NEG_INF for p = 0.
    Exact with one pullback: exponentiate verified phi(0; x) = x (with
    d(phi)/dt = D(phi), which makes phi the flow exp(tD)), so p(phi(t; x))
    at t = 0 is p, and p(phi(t; x)) equals p exactly when it has no t.
    """
    moved = act(action, p)
    if moved.is_zero:
        return NEG_INF
    return moved.degree_in(action.parameter_index)
