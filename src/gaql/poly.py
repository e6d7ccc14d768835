"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a fixed ring Q[x_1, .., x_n] and is stored as integer
numerators over one denominator, the layout of FLINT's fmpq_poly: `_den`, a
positive int, and `_num`, an unordered map from exponent tuples to nonzero
ints, with gcd(_den, content of _num) = 1.  That form is canonical with no
term order, so equality and hashing read it as it is, and every kernel works
on its integers.  Only the accessors that show values (`terms()`,
`coefficient`, `constant_value`, `evaluate`) make Fractions, and only
`terms()` and printing sort, into descending graded reverse lexicographic
(grevlex) order, both by `_grevlex_sorted`: two stable sorts with C keys
(the reversed exponent tuples ascending, then the degrees descending), so
no Python function runs per term.  Printing writes each coefficient from
the stored integers as Fraction would, and each monomial from `_factor`, the
memoized text of one factor x^e.

Products, compositions and derivations share one packed kernel,
`_ProductLayout`: exponent tuples pack into ints with fields as wide as the
call's largest degree, coefficient products add into one dict, and that
dict unpacks once.  `compose` packs each image once and adds c * (L/d) times
each term's product of powers into one accumulator (d that product's
denominator, L the lcm of every d); `derivation.apply` reads an iterate's
partial derivatives off its packed terms and adds each image times one into
one accumulator over the lcm of the images' denominators.  A square (`p *
p` on one object, and each squaring step of `**` and of `compose`'s powers)
takes each pair of terms once: c_i^2 at 2e_i, then 2 c_i c_j at e_i + e_j
for i < j, about half the products of the loop over every ordered pair.  A
product by a one-term polynomial, constant or not, takes `_mul_term` (which
`mul_monomial` also calls), which shifts and scales each term.  Every sum
and difference, with a polynomial, an int or a Fraction, goes through
`_plus` over the lcm of the two denominators.

Division runs on packed monomials ordered like the monomial order
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  A `MonomialOrder` owns rows, linear
forms in the exponents: none for lex; for grevlex the degree, then the
prefix sums e_1 + .. + e_j for j = n - 1 down to 1; for block(k) the grevlex
rows of the first k variables, then those of the rest.  A packed monomial
holds, in fields of one width from the most significant down, the rows
applied to e and then e_1, .., e_n themselves.  While every field stays
below half its range:

- comparing two packed ints is comparing the monomials in the order;
- x^a * x^b packs to pa + pb;
- x^a divides x^b iff (pb - pa) & guard == 0, guard holding the top bit of
  every field;
- the fieldwise maximum of two packed ints is a few masks on the guard bits
  of (pa | guard) - pb (`_Layout.fieldwise_max`); on the low n fields it is
  the exponent fields of lcm(x^a, x^b), which `_Layout.with_rows` packs by
  adding the order's rows back;
- the low n fields unpack back to the exponent tuple.

Packing checks a monomial's largest field: its largest exponent under lex,
its degree under grevlex, the larger block degree under block(k), each of
which bounds every other field; a sum, or the rows of an lcm, is checked by
its guard bits.
Either check failing raises `_Overflow`, and `_packed` runs the whole
computation again at double the width, starting from 8 bits: the result
does not depend on the width.  `_reduce_packed` is the package's one
division kernel, and it returns a remainder only: `groebner.reduce` packs
for it and unpacks once, and `groebner.groebner_basis` keeps its basis and
its pair criteria packed throughout.  A `PolyMap` keeps its components
packed per layout, for the fibers of `geometry.fiber_probe`, which differ
only in their constant terms.  `det` divides nothing.

All operations are pure, and the ring and stored form of a value never
change after construction: `Polynomial` has the slots `ring`, `_num` and
`_den` and nothing else.  A leading monomial is read off `_num` where it
is needed by the order's `leading_monomial`: `max` itself under lex and
`_grevlex_leading` under grevlex, both with C keys, and `max` under the
order's Python key only for a block order.  The kernels build the packed
monic form of `_Layout.head` on entry.  `__setattr__` and `__delattr__`
refuse every write; construction writes through the slots' own setters
(`_set_ring`, `_set_num`, `_set_den`).

The package's other value types (`Ring`, `MonomialOrder`, `PolyMap` and
the records of the other modules) derive from one immutable-record base,
`_Record`.  A record lists its fields in `__slots__`, equals only a record
of its own type with equal fields, hashes its field tuple, and has the repr
`Type(field=value, ..)`; every write after construction raises
AttributeError, and copies and pickles rebuild through the constructor.  A
cache (an order's layouts, a map's packings) sits in a slot outside the
fields.  The base generates no code, so importing gaql loads neither
`dataclasses` nor `inspect`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from functools import lru_cache, partial, reduce
from itertools import combinations
from operator import add, attrgetter, itemgetter, lshift, mul, neg
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


_REVERSED = itemgetter(slice(None, None, -1))


def _grevlex_leading(monomials: Iterable[Exponents]) -> Exponents:
    """The grevlex-largest exponent tuple, with C keys: of the largest
    degree, the first in `_grevlex_sorted`'s first sort."""
    return max(sorted(monomials, key=_REVERSED), key=sum)


def _grevlex_sorted(monomials: Iterable[Exponents]) -> list[Exponents]:
    """The exponent tuples in descending grevlex order, by two stable sorts
    with C keys: the reversed tuples ascending, then the degrees descending.
    Among monomials of one degree the bigger grevlex monomial has the
    smaller reversed tuple, so the second sort keeps that order."""
    out = sorted(monomials, key=_REVERSED)
    out.sort(key=sum, reverse=True)
    return out


@lru_cache(maxsize=1024)
def _factor(name: str, e: int) -> str:
    """The factor x^e of a printed monomial, led by its '*': '' for e = 0."""
    if not e:
        return ""
    return f"*{name}" if e == 1 else f"*{name}^{e}"


def _block_key(front_size: int, exponents: Sequence[int]):
    return (grevlex_key(exponents[:front_size]), grevlex_key(exponents[front_size:]))


def _block_degree(front_size: int, exponents: Sequence[int]) -> int:
    """The larger of the two block degrees: a block order's largest row."""
    return max(sum(exponents[:front_size]), sum(exponents[front_size:]))


def _grevlex_rows(start: int, stop: int, arity: int) -> list[tuple[int, ...]]:
    """The grevlex rows of the variables start .. stop - 1 in a ring of
    `arity` variables: their degree, then their prefix sums, longest first."""
    return [tuple(int(start <= i < start + j) for i in range(arity)) for j in range(stop - start, 0, -1)]


class _Overflow(Exception):
    """A packed field reached its guard bit (see the module docstring)."""


class _Layout:
    """Packed monomials of one arity at one field width, under one order's
    rows (see the module docstring)."""

    __slots__ = ("cols", "shifts", "mask", "guard", "limit", "exponents", "row_cols", "largest")

    def __init__(self, rows: Sequence[Sequence[int]], arity: int, width: int, largest):
        # largest(e) is the largest field of e packed: its largest row or exponent
        self.largest = largest
        fields = len(rows) + arity
        # field f (counting from the least significant) starts at bit f * width;
        # e_1 .. e_n take the low n fields, e_n lowest, and the rows sit above
        self.shifts = tuple(range((arity - 1) * width, -1, -width))
        row_shifts = range((fields - 1) * width, arity * width - 1, -width)
        # x_i packs to cols[i], so e packs to sum(e_i * cols[i])
        self.cols = tuple(
            sum(row[i] << s for row, s in zip(rows, row_shifts)) + (1 << self.shifts[i])
            for i in range(arity)
        )
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (f * width + width - 1) for f in range(fields))
        self.limit = width - 1  # every field stays below 1 << limit
        self.exponents = (1 << arity * width) - 1  # the low n fields
        # (shift, rows of x_i) for each x_i with a nonzero row: lex has none
        self.row_cols = tuple((s, c - (1 << s)) for s, c in zip(self.shifts, self.cols) if c != 1 << s)

    def pack(self, exps: Exponents) -> int:
        if self.largest(exps) >> self.limit:
            raise _Overflow
        return sum(map(mul, exps, self.cols))

    def pack_all(self, num: Mapping[Exponents, int]) -> dict[int, int]:
        if max(map(self.largest, num), default=0) >> self.limit:
            raise _Overflow
        cols = self.cols
        return {sum(map(mul, e, cols)): c for e, c in num.items()}

    def unpack(self, packed: int) -> Exponents:
        mask = self.mask
        return tuple([packed >> s & mask for s in self.shifts])

    def fieldwise_max(self, a: int, b: int) -> int:
        """The int whose every field is the larger of a's and b's, for a and
        b with every field below 1 << limit."""
        guard = self.guard
        # the guard bit of a field survives where a's field >= b's
        t = ((a | guard) - b) & guard
        keep = t - (t >> self.limit)
        return a & keep | b & ~keep

    def with_rows(self, e: int) -> int:
        """The packed monomial whose exponents are the low n fields of e, the
        rest of e being zero: e plus the order's rows of those exponents.
        A row of an lcm is at most the sum of its members' rows, below
        2 << limit, so it cannot carry past its field: a row out of range
        sets its guard bit, and that raises _Overflow."""
        mask = self.mask
        packed = e + sum([(e >> s & mask) * c for s, c in self.row_cols])
        if packed & self.guard:
            raise _Overflow
        return packed

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of the packed monomials a and b."""
        return self.with_rows(self.fieldwise_max(a, b) & self.exponents)

    def head_of(self, p: "Polynomial"):
        """`head` of nonzero p packed."""
        return self.head(self.pack_all(p._num))

    def head(self, h: Mapping[int, int]):
        """(lm, a, tail, top) of a nonzero packed polynomial h: its monic
        form x^lm + tail/a, lm the largest packed monomial, a a positive int
        and tail the other (monomial, int) pairs, in no particular order,
        whose gcd is coprime to a; and top the fieldwise maximum of the
        tail's monomials (0 for no tail), so that a shift s keeps every
        shifted tail monomial in range iff top + s sets no guard bit.
        Nothing is divided when the content is 1 under a positive lead, and
        a one-term tail's top is its monomial, with no fieldwise maximum
        taken."""
        lm = max(h)
        lead = h[lm]
        # dividing by the content signed like the lead leaves a = lead/g > 0
        g = gcd(*h.values()) if lead > 0 else -gcd(*h.values())
        if g == 1:
            tail = [(e, c) for e, c in h.items() if e != lm]
        else:
            tail = [(e, c // g) for e, c in h.items() if e != lm]
            lead //= g
        top = reduce(self.fieldwise_max, [e for e, _ in tail]) if tail else 0
        return lm, lead, tail, top


class _ProductLayout:
    """The packed product kernel (see the module docstring): e packs to
    sum(e_i << i * width), width the bit length of the largest degree the
    caller reaches, so no field carries into the next.  A packed polynomial
    is a list of (packed monomial, int) pairs."""

    __slots__ = ("shifts", "mask")

    def __init__(self, arity: int, degree: int):
        width = degree.bit_length() or 1
        self.shifts = range(0, width * arity, width)
        self.mask = (1 << width) - 1

    def pack(self, num: Mapping[Exponents, int]) -> list[tuple[int, int]]:
        shifts = self.shifts
        return [(sum(map(lshift, e, shifts)), c) for e, c in num.items()]

    def unpack(self, ring: Ring, acc: Mapping[int, int], den: int) -> "Polynomial":
        """sum(acc[k] * x^k) / den, leaving out the zero entries of acc."""
        mask, shifts = self.mask, self.shifts
        return Polynomial._from_integers(
            ring, {tuple([k >> s & mask for s in shifts]): v for k, v in acc.items() if v}, den
        )

    def partial(self, pa: list[tuple[int, int]], i: int) -> list[tuple[int, int]]:
        """The partial derivative in x_i of pa: c * e_i at x^(e - 1_i)."""
        s, mask = self.shifts[i], self.mask
        one = 1 << s
        return [(k - one, c * (k >> s & mask)) for k, c in pa if k >> s & mask]

    @staticmethod
    def add_product(acc: dict[int, int], pa, pb, scale: int = 1):
        """acc += scale * pa * pb.  A square (pb is pa) takes each pair of
        terms once: c_i^2 at 2e_i, then 2 c_i c_j at e_i + e_j for i < j.
        Monomials enter acc in the order the loop over every ordered pair
        gives them, in which later products over the result run faster."""
        get = acc.get
        if pb is pa:
            for i, (ka, ca) in enumerate(pa, 1):
                k = ka + ka
                cs = ca * scale
                acc[k] = get(k, 0) + cs * ca
                cs += cs
                for kb, cb in pa[i:]:
                    k = ka + kb
                    acc[k] = get(k, 0) + cs * cb
        else:
            for ka, ca in pa:
                ca *= scale
                for kb, cb in pb:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb

    @classmethod
    def product(cls, pa, pb) -> list[tuple[int, int]]:
        """pa * pb, its zero terms left out."""
        acc: dict[int, int] = {}
        cls.add_product(acc, pa, pb)
        return [(k, c) for k, c in acc.items() if c]


# writes a slot past a record's refusing __setattr__
_set = object.__setattr__


class _Record:
    """Base of gaql's immutable records (see the module docstring).

    A record lists its fields in `__slots__`, after those of the record it
    extends; a record that also keeps a derived value or a cache in a slot
    lists its fields alone in `_fields`.  Each record's `__init__` checks
    its arguments and writes the fields through `_init`; a derived value or
    a cache in a slot of its own is written through `_set`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        # a record's fields, read in one call: a value for one field, else a tuple
        cls._get = attrgetter(*cls._fields)

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._get(self) == self._get(other)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copies, deep copies and pickles rebuild through the constructor
        return type(self), self._values()


class MonomialOrder(_Record):
    """A monomial order: lex, grevlex, or a block order.

    The block order compares the first `front_size` exponents (grevlex)
    before the rest (grevlex), so it eliminates the front variables.
    `key` is its sort key, chosen once: a bigger key means a bigger monomial.
    `leading_monomial`, also chosen once, returns the largest of an
    iterable of exponent tuples, with C keys under lex and grevlex (see the
    module docstring).
    The order's packed layouts (see the module docstring) are built once per
    arity and width, on first use; neither is a field.
    """

    __slots__ = ("kind", "front_size", "key", "leading_monomial", "_layouts")
    _fields = ("kind", "front_size")

    def __init__(self, kind: str, front_size: int | None = None):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order kind: {kind!r}")
        if kind == "block":
            k = front_size
            if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
                raise TypeError(f"block order front_size {k!r} is a {type(k).__name__}, not an int")
            if k is None or k < 1:
                raise ValueError("block order needs front_size >= 1")
            key = partial(_block_key, k)
            leading = partial(max, key=key)
        elif front_size is not None:
            raise ValueError(f"{kind} order takes no front_size")
        elif kind == "grevlex":
            key, leading = grevlex_key, _grevlex_leading
        else:
            key, leading = tuple, max
        self._init(kind, front_size)
        _set(self, "key", key)
        _set(self, "leading_monomial", leading)
        _set(self, "_layouts", {})

    def _layout(self, arity: int, width: int) -> _Layout:
        layout = self._layouts.get((arity, width))
        if layout is None:
            # a degree row is at least every other row and exponent it covers
            if self.kind == "lex":
                rows, largest = [], max
            elif self.kind == "grevlex":
                rows, largest = _grevlex_rows(0, arity, arity), sum
            else:
                k = min(self.front_size, arity)
                rows = _grevlex_rows(0, k, arity) + _grevlex_rows(k, arity, arity)
                largest = partial(_block_degree, k)
            layout = self._layouts[arity, width] = _Layout(rows, arity, width, largest)
        return layout

    def __str__(self):
        if self.kind == "block":
            return f"block({self.front_size})"
        return self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def _packed(order: MonomialOrder, arity: int, run):
    """run(layout) under the order's layout for `arity`, from 8 bits per
    field up, doubling the width each time run raises _Overflow."""
    width = 8
    while True:
        try:
            return run(order._layout(arity, width))
        except _Overflow:
            width *= 2


def _exponents(exps: Sequence[int], arity: int) -> Exponents:
    """exps as a tuple of `arity` nonnegative ints, refusing anything else:
    a float exponent such as 1.5 would print as x^1.5."""
    exps = tuple(exps)
    for e in exps:
        if not isinstance(e, int):
            raise TypeError(f"exponent {e!r} in {exps} is a {type(e).__name__}, not an int")
    if len(exps) != arity or min(exps, default=0) < 0:
        raise ValueError(f"invalid exponent tuple {exps} for arity {arity}")
    return exps


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


class Ring(_Record):
    """An ordered tuple of variable names fixing the ambient polynomial ring."""

    __slots__ = ("variables",)

    def __init__(self, variables: Sequence[str]):
        variables = tuple(variables)
        if len(variables) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"variable names must be distinct: {variables}")
        for name in variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
        self._init(variables)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.variables}") from None

    def zero(self) -> "Polynomial":
        return Polynomial._from_integers(self, {}, 1)

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        c = _exact(value)
        num = {(0,) * self.arity: c.numerator} if c else {}
        return Polynomial._from_integers(self, num, c.denominator)

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.arity:
            raise IndexError(f"variable index {i} out of range for arity {self.arity}")
        exps = [0] * self.arity
        exps[i] = 1
        return Polynomial._from_integers(self, {tuple(exps): 1}, 1)

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(i) for i in range(self.arity))

    def extended(self, extra: Sequence[str]) -> "Ring":
        return Ring(self.variables + tuple(extra))

    def __str__(self) -> str:
        return "Q[" + ", ".join(self.variables) + "]"


class Polynomial:
    """Immutable sparse polynomial over a Ring with rational coefficients,
    stored as sum(_num[e] * x^e) / _den (see the module docstring)."""

    __slots__ = ("ring", "_num", "_den")

    def __new__(cls, ring: Ring, terms: Mapping[Sequence[int], object]):
        values = {}
        for exps, coeff in terms.items():
            coeff = _exact(coeff)
            if coeff:
                values[_exponents(exps, ring.arity)] = coeff
        den = lcm(*(c.denominator for c in values.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in values.items()}
        return cls._from_integers(ring, num, den)

    @classmethod
    def _from_integers(cls, ring: Ring, num: dict[Exponents, int], den: int) -> "Polynomial":
        """sum(num[e] * x^e) / den for valid exponents, nonzero int
        numerators and a positive int den, so nothing is checked; only the
        common factor of den and the numerators is divided out."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        p = object.__new__(cls)
        _set_ring(p, ring)
        _set_num(p, num)
        _set_den(p, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # rebuilt from the stored form: the default would call __new__ with
        # no terms and restore the slots through the refusing __setattr__
        return Polynomial._from_integers, (self.ring, self._num, self._den)

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Iterate (exponents, coefficient) pairs in descending grevlex order."""
        num, den = self._num, self._den
        return ((e, Fraction(num[e], den)) for e in _grevlex_sorted(num))

    def integer_form(self) -> tuple[int, dict[Exponents, int]]:
        """(den, num), a copy of the stored form: self = sum(num[e] * x^e) / den."""
        return self._den, dict(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def num_terms(self) -> int:
        return len(self._num)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def constant_value(self) -> Fraction:
        return self.coefficient((0,) * self.ring.arity)

    @property
    def is_constant(self) -> bool:
        return not any(map(any, self._num))

    def total_degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self._num:
            return NEG_INF
        return max(sum(exps) for exps in self._num)

    def degree_in(self, i: int):
        """Degree in variable i; NEG_INF for the zero polynomial."""
        if not 0 <= i < self.ring.arity:
            raise IndexError(f"variable index {i} out of range")
        if not self._num:
            return NEG_INF
        return max(exps[i] for exps in self._num)

    def support_variables(self) -> set[int]:
        """Indices of variables actually occurring."""
        seen: set[int] = set()
        for exps in self._num:
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

    def _plus(self, q: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * q, over the lcm of the two denominators."""
        den = lcm(self._den, q._den)
        a, b = den // self._den, sign * (den // q._den)
        out = dict(self._num) if a == 1 else {e: c * a for e, c in self._num.items()}
        get = out.get
        for e, c in q._num.items():
            c = get(e, 0) + c * b
            if c:
                out[e] = c
            else:
                del out[e]
        return Polynomial._from_integers(self.ring, out, den)

    def __add__(self, other):
        q = self._coerce(other)
        return NotImplemented if q is None else self._plus(q, 1)

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        return NotImplemented if q is None else self._plus(q, -1)

    def __rsub__(self, other):
        q = self._coerce(other)
        return NotImplemented if q is None else q._plus(self, -1)

    def __neg__(self):
        return Polynomial._from_integers(self.ring, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self._num or not q._num:
            return self.ring.zero()
        for a, b in ((self, q), (q, self)):
            if len(b._num) == 1:
                ((e, c),) = b._num.items()
                return a._mul_term(e, c, b._den)
        # An exponent of the product is at most the sum of the operands'
        # total degrees, so fields this wide never carry into each other.
        layout = _ProductLayout(self.ring.arity, max(map(sum, self._num)) + max(map(sum, q._num)))
        pa = layout.pack(self._num)
        acc: dict[int, int] = {}
        layout.add_product(acc, pa, pa if q is self else layout.pack(q._num))
        return layout.unpack(self.ring, acc, self._den * q._den)

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
        exps = _exponents(exps, self.ring.arity)
        coeff = _exact(coeff)
        if coeff == 0:
            return self.ring.zero()
        return self._mul_term(exps, coeff.numerator, coeff.denominator)

    def _mul_term(self, exps: Exponents, num: int, den: int) -> "Polynomial":
        """Multiply by the term (num/den) * x^exps, num a nonzero int and den
        a positive int; a constant (exps all zero) only scales the terms."""
        if any(exps):
            out = {tuple(map(add, e, exps)): c * num for e, c in self._num.items()}
        else:
            out = {e: c * num for e, c in self._num.items()}
        return Polynomial._from_integers(self.ring, out, self._den * den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant equals its Fraction value, so it must hash like it
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.ring, self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.ring.arity:
            raise IndexError(f"variable index {i} out of range")
        out: dict[Exponents, int] = {}
        for exps, c in self._num.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return Polynomial._from_integers(self.ring, out, self._den)

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
        degrees = [max(map(sum, img._num), default=0) for img in images]
        layout = _ProductLayout(target.arity, max([sum(map(mul, e, degrees)) for e in self._num], default=0))
        packed = [layout.pack(img._num) for img in images]
        powers = {(i, 1): pa for i, pa in enumerate(packed)}

        def power(i: int, e: int) -> list[tuple[int, int]]:
            """images[i] ** e packed: the square of the power e // 2, times
            images[i] when e is odd."""
            if (i, e) not in powers:
                half = power(i, e // 2)
                square = layout.product(half, half)
                powers[i, e] = layout.product(packed[i], square) if e & 1 else square
            return powers[i, e]

        # the denominator of a term's product of powers, and their lcm
        dens = [reduce(mul, [images[i]._den ** e for i, e in enumerate(exps) if e], 1) for exps in self._num]
        den = lcm(*dens)
        acc: dict[int, int] = {}
        for (exps, c), d in zip(self._num.items(), dens):
            *factors, last = [power(i, e) for i, e in enumerate(exps) if e] or [[(0, 1)]]
            head = reduce(layout.product, factors) if factors else [(0, 1)]
            layout.add_product(acc, head, last, c * (den // d))
        return layout.unpack(target, acc, den * self._den)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.ring.arity:
            raise ValueError(
                f"expected {self.ring.arity} coordinates, got {len(point)}"
            )
        values = [_exact(v) for v in point]
        total = 0
        for exps, term in self._num.items():
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return Fraction(total, self._den)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical form: descending grevlex terms, explicit '*' and '^'."""
        num = self._num
        if not num:
            return "0"
        den, names = self._den, self.ring.variables
        chunks: list[str] = []
        for exps in _grevlex_sorted(num):
            c = num[exps]
            # "*x^2*y" for x^2*y, "" for the constant monomial
            mono = "".join(map(_factor, names, exps))
            # |c|/den in lowest terms, written as Fraction writes it
            if den == 1:
                n, d = abs(c), 1
            else:
                g = gcd(c, den)
                n, d = abs(c) // g, den // g
            if mono and n == d:
                body = mono[1:]
            else:
                body = (str(n) if d == 1 else f"{n}/{d}") + mono
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# the slots' own setters, which the refusing __setattr__ does not reach
_set_ring = Polynomial.ring.__set__
_set_num = Polynomial._num.__set__
_set_den = Polynomial._den.__set__


def embed(p: Polynomial, ring: Ring) -> Polynomial:
    """Reinterpret p in a ring holding every variable that occurs in p (a
    larger ring, the same variables in another order, or one lacking
    variables that p does not use), matching variables by name."""
    names = ring.variables
    positions = [names.index(name) if name in names else None for name in p.ring.variables]
    for i in p.support_variables() if None in positions else ():
        if positions[i] is None:  # a variable of p that ring lacks
            ring.index(p.ring.variables[i])  # raises KeyError
    out: dict[Exponents, int] = {}
    for exps, c in p._num.items():
        big = [0] * ring.arity
        for pos, e in zip(positions, exps):
            if e:
                big[pos] = e
        out[tuple(big)] = c
    return Polynomial._from_integers(ring, out, p._den)


def _reduce_packed(h: dict[int, int], den: int, heads, guard: int):
    """Divide h/den, a packed polynomial with int numerators, by the monic
    packed heads (lm, a, tail, top) of `_Layout.head` (Cox, Little, O'Shea,
    Ideals, Varieties, and Algorithms, 2.3): each step divides the leading
    term (the largest packed monomial) by the first head whose lm divides
    it, or moves it to the remainder.  Returns (r, den'), the remainder
    r/den' with int numerators; h is consumed.

    A step by the head (lm, a, tail) sets h <- (a/g)*h - (hc/g)*x^shift*tail,
    g = gcd(a, hc), fraction-free (Greuel and Pfister, A Singular
    Introduction to Commutative Algebra, 1.6).  It raises _Overflow when
    top + shift sets a guard bit."""
    remainder = {}
    while h:
        hm = max(h)
        for head in heads:
            shift = hm - head[0]
            if not shift & guard:
                break
        else:
            remainder[hm] = (h.pop(hm), den)
            continue
        _, a, tail, top = head
        if (top + shift) & guard:
            raise _Overflow
        hc = h.pop(hm)
        g = gcd(a, hc)
        if g != a:
            scale = a // g
            h = {e: c * scale for e, c in h.items()}
            den *= scale
        hc //= g
        for te, tc in tail:
            e = te + shift
            c = h.pop(e, 0) - hc * tc
            if c:
                h[e] = c
    # den only grows by factors, so every earlier den divides the last one
    return {e: n * (den // d) for e, (n, d) in remainder.items()}, den


def det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix, by expansion of minors with
    each smaller minor computed once (Gentleman and Johnson, "Analysis of
    algorithms, a case study: determinants of matrices with polynomial
    entries", ACM Trans. Math. Softw. 2, 1976).

    After row i, `level` maps each ascending tuple of i + 1 columns to the
    nonzero minor of rows 0..i on those columns; a minor expands along its
    last row over the level above, with sign (-1)^(i + position).  Products
    by a zero entry or a zero minor are skipped, and nothing is divided.
    The table holds C(n, k) minors after row k, about n * 2^(n-1) products
    in all: cheaper than fraction-free elimination for the Jacobian minors
    gaql takes (of size arity - 1 or arity), but exponential in n, so
    slower than elimination on a large matrix of constants.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    ring = rows[0][0].ring
    for row in rows:
        for entry in row:
            if entry.ring != ring:
                raise RingMismatchError("matrix entries over different rings")
    level = {(j,): entry for j, entry in enumerate(rows[0]) if entry}
    for i in range(1, n):
        row, below = rows[i], {}
        for cols in combinations(range(n), i + 1):
            minor = ring.zero()
            for p, j in enumerate(cols):
                sub = level.get(cols[:p] + cols[p + 1 :])
                if sub is not None and row[j]:
                    term = row[j] * sub
                    minor = minor - term if (i + p) % 2 else minor + term
            if minor:
                below[cols] = minor
        level = below
    return level.get(tuple(range(n)), ring.zero())


class PolyMap(_Record):
    """An ordered tuple of polynomials (f_1, .., f_m) on a common source ring.

    The components are packed once per `_Layout` they are asked for in
    (`_packed_components`), for the fibers of `geometry.fiber_probe`, and
    kept in component order: Buchberger sorts the generators it is given.
    Like an order's layouts, those packings are not a field."""

    __slots__ = ("ring", "components", "target_names", "_packings")
    _fields = ("ring", "components", "target_names")

    def __init__(self, ring: Ring, components: Sequence[Polynomial], target_names: Sequence[str] = ()):
        components = tuple(components)
        if not components:
            raise ValueError("a polynomial map needs at least one component")
        for f in components:
            if f.ring != ring:
                raise RingMismatchError("map components over different rings")
        names = tuple(target_names) or fresh_names(
            [f"t{i + 1}" for i in range(len(components))], ring.variables
        )
        if len(names) != len(components):
            raise ValueError("one target name per component required")
        if len(set(names)) != len(names):
            raise ValueError(f"target names must be distinct: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid target name: {name!r}")
        self._init(ring, components, names)
        _set(self, "_packings", {})

    def _packed_components(self, layout: _Layout) -> list[tuple[dict[int, int], int]]:
        """(packed numerators, den) of each component num/den under
        `layout`, in component order.  Packed on the first request for a
        layout and kept; a component too wide for the layout raises
        _Overflow before anything is kept.  The dicts are shared: read,
        never change them."""
        packed = self._packings.get(layout)
        if packed is None:
            packed = [(layout.pack_all(f._num), f._den) for f in self.components]
            self._packings[layout] = packed
        return packed

    @property
    def arity(self) -> int:
        return len(self.components)

    def maximal_minors(self) -> tuple[Polynomial, ...]:
        """The n maximal minors of the (n - 1) x n Jacobian matrix; minor j
        drops column j.  Needs m = n - 1 components."""
        n = self.ring.arity
        if len(self.components) != n - 1:
            raise ValueError(
                f"expected {n - 1} components over a {n}-variable ring, "
                f"got {len(self.components)}"
            )
        jac = [[f.partial_derivative(j) for j in range(n)] for f in self.components]
        return tuple(det([row[:j] + row[j + 1 :] for row in jac]) for j in range(n))

    def evaluate(self, point: Sequence) -> tuple[Fraction, ...]:
        return tuple(f.evaluate(point) for f in self.components)
