"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a fixed ring Q[x_1, .., x_n] and is stored as an
unordered map from exponent tuples to Fraction coefficients, with no zero
coefficient stored.  Arithmetic never sorts: only `terms()` and printing put
the terms in descending graded reverse lexicographic (grevlex) order, the
canonical form, and equality and hashing do not depend on the order.

Products (and so compositions and powers) run on integer numerators over
one common denominator per operand, with each exponent tuple packed into
one int; only the output terms become Fractions again.  A product by a
one-term polynomial, constant or not, takes one other path, `_mul_term`
(which `mul_monomial` also calls): it shifts and scales each term, so
nothing is packed.

Division lives in one routine, `_divide`, which runs on integer numerators
over one common denominator: `groebner.reduce` takes its remainder, whose
terms become Fractions, and `det` its exact quotient, made of integer pairs
that only `det` turns into Fractions.

All operations are pure, and the ring and terms of a value never change
after construction.  The one other slot, the head cache of `_head`, holds
derived data: per monomial order key, the leading monomial, its coefficient
and the monic tail as integers over one positive denominator, written once
(on first use for that key, or by `_monic_from_head` for a polynomial built
from a known head) and read after.
It is left out of `==`, `hash` and pickles, and a thread that fills it
concurrently with another writes the same value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, lshift, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]

NEG_INF = float("-inf")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class RingMismatchError(ValueError):
    """Raised when operands or arguments belong to different rings."""


# Fraction("1e100000000") expands the power of ten before anything can look
# at the value, which takes minutes, so a string's exponent is checked
# first.  The bound is CPython's default limit on integer string conversion
# (sys.get_int_max_str_digits()), past which the value could not be printed
# anyway.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


def check_decimal_exponent(text: str):
    """Raise ValueError if text has a decimal exponent beyond
    MAX_DECIMAL_EXPONENT in magnitude."""
    match = _EXPONENT_RE.search(text)
    if match:
        digits = match.group(1).lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or "0") > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent in {text!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
            )


# An underscore not between two digits, which Fraction refuses on 3.11+.
_STRAY_UNDERSCORE_RE = re.compile(r"(?<!\d)_|_(?!\d)")


def _exact(value) -> Fraction:
    """Fraction(value), refusing floats: a float such as 0.1 would silently
    become its binary expansion 3602879701896397/36028797018963968.  A
    string must pass check_decimal_exponent, and may group digits with `_`
    between two digits on every Python version (Fraction itself accepts
    that only from 3.11)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int, Fraction, or string")
    if isinstance(value, str):
        check_decimal_exponent(value)
        if "_" in value:
            if _STRAY_UNDERSCORE_RE.search(value):
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            value = value.replace("_", "")
    return Fraction(value)


def grevlex_key(exponents: Sequence[int]):
    """Sort key realizing grevlex: higher key means bigger monomial."""
    return (sum(exponents), tuple(map(neg, reversed(exponents))))


def _grevlex_descending(term):
    """Ascending sort key of a term putting the bigger grevlex monomial first:
    grevlex_key negated field by field."""
    exps = term[0]
    return (-sum(exps), exps[::-1])


def _common_denominator(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators (1 for no coefficients) and each
    coefficient times d, an integer."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def fresh_names(bases: Sequence[str], avoid: Iterable[str]) -> tuple[str, ...]:
    """Variant of each base name not colliding with `avoid` or each other."""
    taken = set(avoid)
    out = []
    for base in bases:
        name = base
        while name in taken:
            name += "_"
        taken.add(name)
        out.append(name)
    return tuple(out)


@dataclass(frozen=True)
class Ring:
    """An ordered tuple of variable names fixing the ambient polynomial ring."""

    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variable names must be distinct: {self.variables}")
        for name in self.variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.variables}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        c = _exact(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.arity: c})

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.arity:
            raise IndexError(f"variable index {i} out of range for arity {self.arity}")
        exps = [0] * self.arity
        exps[i] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(i) for i in range(self.arity))

    def from_terms(self, terms: Mapping[Sequence[int], object]) -> "Polynomial":
        return Polynomial(self, {tuple(e): _exact(c) for e, c in terms.items()})

    def extended(self, extra: Sequence[str]) -> "Ring":
        return Ring(self.variables + tuple(extra))

    def __str__(self) -> str:
        return "Q[" + ", ".join(self.variables) + "]"


class Polynomial:
    """Immutable sparse polynomial over a Ring with Fraction coefficients."""

    # _heads is filled by _head on first use, or by _monic_from_head
    __slots__ = ("ring", "_terms", "_heads")

    def __init__(self, ring: Ring, terms: Mapping[Exponents, Fraction]):
        cleaned = {}
        for exps, coeff in terms.items():
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            if len(exps) != ring.arity:
                raise ValueError(
                    f"exponent tuple {exps} does not match ring arity {ring.arity}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            cleaned[exps] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", cleaned)

    @classmethod
    def _exact_result(cls, ring: Ring, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Polynomial from arithmetic on valid polynomials: the exponents are
        valid and the coefficients nonzero Fractions, so nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "_terms", terms)
        return p

    @classmethod
    def _monic_from_head(cls, ring: Ring, key, lm: Exponents, a: int, tail) -> "Polynomial":
        """The monic polynomial x^lm + tail/a of a head (lm, lc, a, tail)
        under `key`, with that head already cached: lc = 1, same a and tail."""
        terms = {e: Fraction(c, a) for e, c in tail}
        terms[lm] = Fraction(1)
        p = cls._exact_result(ring, terms)
        object.__setattr__(p, "_heads", {key: (lm, terms[lm], a, tail)})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # rebuilt from ring and terms alone, so a copy starts with no head cache
        return Polynomial, (self.ring, self._terms)

    def _head(self, key):
        """(lm, lc, a, tail) for the order with sort key `key`: the largest
        monomial lm, its coefficient lc, and the monic polynomial
        x^lm + tail/a on integers: a is a positive int, and tail lists the
        other monomials with int coefficients, in no particular order, whose
        gcd is coprime to a.  Computed once per key; self is nonzero."""
        try:
            heads = self._heads
        except AttributeError:
            heads = {}
            object.__setattr__(self, "_heads", heads)
        head = heads.get(key)
        if head is None:
            terms = self._terms
            lm = max(terms, key=key)
            lc = terms[lm]
            d, nums = _common_denominator(list(terms.values()))
            # dividing by the content signed like lc leaves a = lead/g > 0
            lead = lc.numerator * (d // lc.denominator)
            g = gcd(*nums) if lead > 0 else -gcd(*nums)
            tail = [(e, n // g) for e, n in zip(terms, nums) if e != lm]
            head = heads[key] = (lm, lc, lead // g, tail)
        return head

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Iterate (exponents, coefficient) pairs in descending grevlex order."""
        return iter(sorted(self._terms.items(), key=_grevlex_descending))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def constant_value(self) -> Fraction:
        return self._terms.get((0,) * self.ring.arity, Fraction(0))

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._terms)

    def total_degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(exps) for exps in self._terms)

    def degree_in(self, i: int):
        """Degree in variable i; NEG_INF for the zero polynomial."""
        if not 0 <= i < self.ring.arity:
            raise IndexError(f"variable index {i} out of range")
        if not self._terms:
            return NEG_INF
        return max(exps[i] for exps in self._terms)

    def support_variables(self) -> set[int]:
        """Indices of variables actually occurring."""
        seen: set[int] = set()
        for exps in self._terms:
            seen.update(i for i, e in enumerate(exps) if e)
        return seen

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"operands over different rings: {self.ring} vs {other.ring}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in q._terms.items():
            out[exps] = out[exps] + coeff if exps in out else coeff
        return Polynomial._exact_result(self.ring, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in q._terms.items():
            out[exps] = out[exps] - coeff if exps in out else -coeff
        return Polynomial._exact_result(self.ring, {e: c for e, c in out.items() if c})

    def __rsub__(self, other):
        q = self._coerce(other)
        return NotImplemented if q is None else q - self

    def __neg__(self):
        return Polynomial._exact_result(self.ring, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self._terms or not q._terms:
            return self.ring.zero()
        for a, b in ((self, q), (q, self)):
            if len(b._terms) == 1:
                ((e, c),) = b._terms.items()
                return a._mul_term(e, c)
        # An exponent of the product is at most the sum of the operands'
        # total degrees, so fields this wide never carry into each other.
        width = (max(map(sum, self._terms)) + max(map(sum, q._terms))).bit_length() or 1
        shifts = range(0, width * self.ring.arity, width)
        da, na = _common_denominator(list(self._terms.values()))
        db, nb = _common_denominator(list(q._terms.values()))
        pa = [(sum(map(lshift, e, shifts)), c) for e, c in zip(self._terms, na)]
        pb = [(sum(map(lshift, e, shifts)), c) for e, c in zip(q._terms, nb)]
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        mask = (1 << width) - 1
        denom = da * db
        return Polynomial._exact_result(
            self.ring,
            {
                # Fraction(v) skips the gcd that Fraction(v, 1) would take
                tuple([k >> s & mask for s in shifts]): (
                    Fraction(v, denom) if denom > 1 else Fraction(v)
                )
                for k, v in acc.items()
                if v
            },
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer: {n}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_monomial(self, exps: Sequence[int], coeff: Fraction) -> "Polynomial":
        """Multiply by coeff * x^exps in one pass."""
        exps = tuple(exps)
        coeff = _exact(coeff)
        if len(exps) != self.ring.arity or min(exps) < 0:
            raise ValueError(f"invalid exponent tuple {exps} for arity {self.ring.arity}")
        if coeff == 0:
            return self.ring.zero()
        return self._mul_term(exps, coeff)

    def _mul_term(self, exps: Exponents, coeff: Fraction) -> "Polynomial":
        """Multiply by the term coeff * x^exps, coeff a nonzero Fraction; a
        constant (exps all zero) only scales the terms."""
        if any(exps):
            terms = {tuple(map(add, e, exps)): c * coeff for e, c in self._terms.items()}
        else:
            terms = {e: c * coeff for e, c in self._terms.items()}
        return Polynomial._exact_result(self.ring, terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        # a constant equals its Fraction value, so it must hash like it
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.ring, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.ring.arity:
            raise IndexError(f"variable index {i} out of range")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = coeff * e
        return Polynomial._exact_result(self.ring, out)

    def compose(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute images[i] for variable i; images share one target ring."""
        if len(images) != self.ring.arity:
            raise ValueError(
                f"expected {self.ring.arity} images, got {len(images)}"
            )
        target = images[0].ring
        for img in images:
            if img.ring != target:
                raise RingMismatchError("images must share one target ring")
        power_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = images[i] ** e
            return power_cache[key]

        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            term = target.const(coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            for m, c in term._terms.items():
                out[m] = out[m] + c if m in out else c
        return Polynomial._exact_result(target, {e: c for e, c in out.items() if c})

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.ring.arity:
            raise ValueError(
                f"expected {self.ring.arity} coordinates, got {len(point)}"
            )
        values = [_exact(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical form: descending grevlex terms, explicit '*' and '^'."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, exps)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def embed(p: Polynomial, ring: Ring) -> Polynomial:
    """Reinterpret p in a ring holding all its variables (a larger ring, or
    the same variables in another order), matching variables by name."""
    positions = [ring.index(name) for name in p.ring.variables]
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p._terms.items():
        big = [0] * ring.arity
        for pos, e in zip(positions, exps):
            big[pos] = e
        out[tuple(big)] = coeff
    return Polynomial._exact_result(ring, out)


def _divide(p: Polynomial, divisors: Sequence[Polynomial], key):
    """Divide p by nonzero divisors (Cox, Little, O'Shea, Ideals, Varieties,
    and Algorithms, 2.3): each step divides the leading term (largest under
    `key`) by the first divisor whose leading monomial divides it, or moves
    it to the remainder r.  Returns each divisor's quotient q_i, and r:
    p = sum(q_i * divisors[i]) + r.  A quotient is an exponent -> (num, den)
    dict of integer pairs, coefficient num/den, left unreduced because
    `groebner.reduce` drops the quotients and only `det` reads one.

    The working polynomial is integer numerators h over one denominator den,
    and a step by a divisor with head (lm, lc, a, tail) sets
    h <- (a/g)*h - (hc/g)*x^shift*tail, g = gcd(a, hc), fraction-free
    (Greuel and Pfister, A Singular Introduction to Commutative Algebra,
    1.6); only remainder terms become Fractions."""
    heads = [d._head(key) for d in divisors]
    quotients: list[dict[Exponents, tuple[int, int]]] = [{} for _ in divisors]
    remainder: dict[Exponents, Fraction] = {}
    den, nums = _common_denominator(list(p._terms.values()))
    h = dict(zip(p._terms, nums))  # p = h/den; no zero is stored
    keys = {e: key(e) for e in h}  # every monomial h has held, with its key
    while h:
        hm = max(h, key=keys.__getitem__)
        hc = h.pop(hm)
        for (lm, lc, a, tail), quotient in zip(heads, quotients):
            if all(map(le, lm, hm)):
                shift = tuple(map(sub, hm, lm))
                # hm falls each step, so no shift repeats
                quotient[shift] = (hc * lc.denominator, den * lc.numerator)
                g = gcd(a, hc)
                if g != a:
                    scale = a // g
                    h = {e: c * scale for e, c in h.items()}
                    den *= scale
                hc //= g
                for te, tc in tail:
                    e = tuple(map(add, te, shift))
                    c = h.pop(e, 0) - hc * tc
                    if c:
                        h[e] = c
                        if e not in keys:
                            keys[e] = key(e)
                break
        else:
            remainder[hm] = Fraction(hc, den)
    return quotients, Polynomial._exact_result(p.ring, remainder)


def det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix.

    Fraction-free Gaussian elimination (Bareiss): every intermediate division
    is exact over the polynomial ring, which controls coefficient swell.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    ring = rows[0][0].ring
    m = [list(r) for r in rows]
    for row in m:
        for entry in row:
            if entry.ring != ring:
                raise RingMismatchError("matrix entries over different rings")
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not m[r][k].is_zero), None)
        if pivot_row is None:
            return ring.zero()
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                (quotient,), rem = _divide(num, [prev], grevlex_key)
                if rem:
                    raise ValueError("inexact polynomial division")
                m[i][j] = Polynomial._exact_result(
                    ring, {e: Fraction(n, d) for e, (n, d) in quotient.items()}
                )
            m[i][k] = ring.zero()
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def jacobian_det(fs: Sequence[Polynomial]) -> Polynomial:
    """Determinant of the Jacobian matrix of n polynomials in n variables.

    Rows follow the argument order, columns the ring's variable order.
    """
    if not fs:
        raise ValueError("jacobian_det needs at least one polynomial")
    ring = fs[0].ring
    if len(fs) != ring.arity:
        raise ValueError(
            f"expected {ring.arity} polynomials for ring {ring}, got {len(fs)}"
        )
    for f in fs:
        if f.ring != ring:
            raise RingMismatchError("polynomials over different rings")
    matrix = [[f.partial_derivative(j) for j in range(ring.arity)] for f in fs]
    return det(matrix)


@dataclass(frozen=True)
class PolyMap:
    """An ordered tuple of polynomials (f_1, .., f_m) on a common source ring."""

    ring: Ring
    components: tuple[Polynomial, ...]
    target_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a polynomial map needs at least one component")
        for f in self.components:
            if f.ring != self.ring:
                raise RingMismatchError("map components over different rings")
        names = tuple(self.target_names) or fresh_names(
            [f"t{i + 1}" for i in range(len(self.components))], self.ring.variables
        )
        if len(names) != len(self.components):
            raise ValueError("one target name per component required")
        if len(set(names)) != len(names):
            raise ValueError(f"target names must be distinct: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid target name: {name!r}")
        object.__setattr__(self, "target_names", names)

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def target_ring(self) -> Ring:
        return Ring(self.target_names)

    def require_hypersurface_count(self):
        """Check m = n - 1, the shape quotient-map operations need."""
        n = self.ring.arity
        if len(self.components) != n - 1:
            raise ValueError(
                f"expected {n - 1} components over a {n}-variable ring, "
                f"got {len(self.components)}"
            )

    def maximal_minors(self) -> tuple[Polynomial, ...]:
        """The n maximal minors of the (n - 1) x n Jacobian matrix; minor j
        drops column j."""
        self.require_hypersurface_count()
        n = self.ring.arity
        jac = [[f.partial_derivative(j) for j in range(n)] for f in self.components]
        return tuple(det([row[:j] + row[j + 1 :] for row in jac]) for j in range(n))

    def evaluate(self, point: Sequence) -> tuple[Fraction, ...]:
        return tuple(f.evaluate(point) for f in self.components)
