"""The immutable-record semantics shared by gaql's value types, and what
`import gaql` loads.

Every record type is built twice by one factory: the two builds are equal
twins that share no object.  A record equals only a record of its own type
with equal fields, hashes its field tuple, refuses writes, and rebuilds
through its constructor when copied or pickled."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gaql
from gaql.action import GaAction, exponentiate
from gaql.derivation import Derivation, FixedLocus, NilpotencyCertificate, certify_locally_nilpotent, fixed_locus
from gaql.geometry import FiberReport, GridSpec, SingularityReport, fiber_probe, singular_locus
from gaql.groebner import GREVLEX, GroebnerBasis, MonomialOrder, block_order, groebner_basis
from gaql.poly import PolyMap, Ring
from gaql.quotient import LocalSlice, find_local_slice


def _ring():
    return Ring(("x", "y", "z"))


def _map():
    x, y, z = _ring().gens()
    return PolyMap(_ring(), (1 + x * z, y + z + x * y * z))


def _derivation():
    x, y, _ = _ring().gens()
    return Derivation(_ring(), (_ring().zero(), x, y))


def _action():
    D = _derivation()
    return exponentiate(D, certify_locally_nilpotent(D))


FACTORIES = {
    MonomialOrder: lambda: block_order(2),
    Ring: _ring,
    PolyMap: _map,
    GroebnerBasis: lambda: groebner_basis(_map().components),
    FiberReport: lambda: fiber_probe(_map(), (1, Fraction(-3, 10))),
    SingularityReport: lambda: singular_locus(_map()),
    GridSpec: lambda: GridSpec(((0, 1), (Fraction(-1, 2), 2)), 3),
    Derivation: _derivation,
    NilpotencyCertificate: lambda: certify_locally_nilpotent(_derivation()),
    FixedLocus: lambda: fixed_locus(_derivation()),
    GaAction: _action,
    LocalSlice: lambda: find_local_slice(_derivation()),
}
TYPES = pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)


def _fields(record):
    return tuple(getattr(record, name) for name in record._fields)


@TYPES
def test_equal_to_a_rebuilt_twin(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert {a: 1}[b] == 1


@TYPES
def test_unequal_to_a_tuple_or_another_type(cls):
    a = FACTORIES[cls]()
    assert not isinstance(a, tuple)
    assert a != _fields(a) and _fields(a) != a
    # a record type with the same fields and constructor
    other = type("Other", (cls,), {"__slots__": ()})(*_fields(a))
    assert other._fields == a._fields and _fields(other) == _fields(a)
    assert a != other and other != a
    assert all(a != FACTORIES[c]() for c in FACTORIES if c is not cls)


@TYPES
def test_hash_agrees_with_equality(cls):
    a = FACTORIES[cls]()
    rebuilt = cls(*_fields(a))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert len({a, rebuilt, FACTORIES[cls]()}) == 1


@TYPES
def test_writes_raise_attribute_error(cls):
    a = FACTORIES[cls]()
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert FACTORIES[cls]() == a


@TYPES
def test_copies_and_pickles_round_trip(cls):
    a = FACTORIES[cls]()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and hash(twin) == hash(a)


@TYPES
def test_constructor_arguments(cls):
    a = FACTORIES[cls]()
    values = _fields(a)
    assert cls(**dict(zip(a._fields, values))) == a
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, None)


@TYPES
def test_repr_names_the_fields(cls):
    a = FACTORIES[cls]()
    body = ", ".join(f"{name}={value!r}" for name, value in zip(a._fields, _fields(a)))
    assert repr(a) == f"{cls.__qualname__}({body})"


def test_defaults():
    x, y, z = _ring().gens()
    assert MonomialOrder("grevlex") == GREVLEX and GREVLEX.front_size is None
    assert PolyMap(_ring(), (x, y)).target_names == ("t1", "t2")
    assert PolyMap(_ring(), (x, y), ()) == PolyMap(_ring(), (x, y))
    assert LocalSlice(f=y, c=x)._fields == ("f", "c")
    assert LocalSlice(y, x) == LocalSlice(f=y, c=x)


def test_caches_are_not_fields():
    """An order's layouts and key and a map's and a derivation's packings
    stay out of equality, hashing, repr, copies and pickles."""
    order, F, D = block_order(2), _map(), _derivation()
    groebner_basis(F.components, order)
    fiber_probe(F, (1, 1))
    certify_locally_nilpotent(D)
    assert order._layouts and F._packings and D._packings
    for used, fresh in ((order, block_order(2)), (F, _map()), (D, _derivation())):
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        for twin in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert twin == used
    assert "key" not in repr(order) and "_layouts" not in repr(order)
    assert "_packings" not in repr(F) and "_packings" not in repr(D)
    for twin in (copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
        assert twin._layouts == {} and twin.key((1, 0, 0)) == order.key((1, 0, 0))
    assert pickle.loads(pickle.dumps(F))._packings == {} == pickle.loads(pickle.dumps(D))._packings


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, without the site hooks that some installations
    use to load modules, imports gaql and its CLI without either module."""
    code = (
        "import sys; import gaql, gaql.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gaql.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
