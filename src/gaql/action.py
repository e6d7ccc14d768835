"""Additive group actions obtained by exponentiating certified locally
nilpotent derivations.

The flow of a certified derivation D is the polynomial map with components
sum_k t^k D^k(x_i) / k!, a finite sum thanks to the certificate.  Both
action axioms, identity at t = 0 and the one-parameter group law, are
verified symbolically at construction time so that exponentiation bugs
surface immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .derivation import Derivation, NilpotencyCertificate
from .poly import NEG_INF, Polynomial, Ring, RingMismatchError, embed, fresh_names


class UncertifiedDerivationError(ValueError):
    """Exponentiation was asked for without a valid nilpotency certificate."""


@dataclass(frozen=True)
class GaAction:
    """A polynomial flow phi(t; x) with phi(0; x) = x and the group law."""

    ring: Ring  # the x-variables
    parameter: str
    components: tuple[Polynomial, ...]  # over ring extended by the parameter
    certificate: NilpotencyCertificate

    @property
    def derivation(self) -> Derivation:
        return self.certificate.derivation

    @property
    def extended_ring(self) -> Ring:
        return self.components[0].ring

    @property
    def parameter_index(self) -> int:
        return self.extended_ring.index(self.parameter)

    def __str__(self):
        body = ", ".join(str(c) for c in self.components)
        return f"({body})"


def exponentiate(
    D: Derivation,
    cert: NilpotencyCertificate,
    parameter: str = "t",
) -> GaAction:
    """Integrate a certified derivation into a polynomial flow."""
    if not cert.certified:
        raise UncertifiedDerivationError(
            f"nilpotency is not certified (inconclusive at bound {cert.bound})"
        )
    if cert.derivation != D:
        raise UncertifiedDerivationError(
            "certificate was issued for a different derivation"
        )
    ring = D.ring
    (pname,) = fresh_names((parameter,), ring.variables)
    ext = ring.extended((pname,))
    components = []
    for i in range(ring.arity):
        comp = embed(ring.var(i), ext)
        for k, deriv in enumerate(cert.chains[i], start=1):
            if deriv.is_zero:
                break
            t_k = (0,) * ring.arity + (k,)
            comp = comp + embed(deriv, ext).mul_monomial(t_k, Fraction(1, math.factorial(k)))
        components.append(comp)
    action = GaAction(
        ring=ring,
        parameter=pname,
        components=tuple(components),
        certificate=cert,
    )
    _verify_identity_at_zero(action)
    _verify_group_law(action)
    return action


def _verify_identity_at_zero(action: GaAction):
    ring = action.ring
    images = list(ring.gens()) + [ring.zero()]
    for i, comp in enumerate(action.components):
        if comp.compose(images) != ring.var(i):
            raise RuntimeError(
                f"flow does not restrict to the identity at {action.parameter} = 0"
            )


def _verify_group_law(action: GaAction):
    """Check phi(a; phi(b; x)) = phi(a + b; x) as a polynomial identity."""
    ring = action.ring
    n = ring.arity
    p1, p2 = fresh_names((action.parameter + "1", action.parameter + "2"), ring.variables)
    big = ring.extended((p1, p2))
    a = big.var(n)
    b = big.var(n + 1)
    x_images = [big.var(i) for i in range(n)]
    inner = [comp.compose(x_images + [b]) for comp in action.components]
    for i, comp in enumerate(action.components):
        lhs = comp.compose(inner + [a])
        rhs = comp.compose(x_images + [a + b])
        if lhs != rhs:
            raise RuntimeError("group law fails for the constructed flow")


def act(action: GaAction, p: Polynomial) -> Polynomial:
    """Pull p back along the flow: the polynomial p(phi(t; x))."""
    if p.ring != action.ring:
        raise RingMismatchError("polynomial over a different ring")
    return p.compose(list(action.components))


def is_invariant(action: GaAction, p: Polynomial) -> bool:
    """True iff p is unchanged along the flow.

    Exact with one pullback: exponentiate verified phi(0; x) = x, so
    p(phi(t; x)) at t = 0 is p, and p(phi(t; x)) equals p exactly when it
    has no t, that is when its t-degree is 0 (or NEG_INF, for p = 0).
    """
    return deg_function(action, p) <= 0


def deg_function(action: GaAction, p: Polynomial):
    """Degree in the flow parameter of p(phi(t; x)).

    Zero for nonzero invariants, positive otherwise, NEG_INF for p = 0.
    """
    moved = act(action, p)
    if moved.is_zero:
        return NEG_INF
    return moved.degree_in(action.parameter_index)
