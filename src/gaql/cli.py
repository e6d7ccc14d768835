"""Command line interface: subcommands, task files, JSON output records.

A task file is a sequence of JSON lines.  Declaration lines create named
objects (one ring, then polynomials, maps, derivations, actions); command
lines run computations.  Every referenced name must be declared on an
earlier line; name, schema, and expression problems are load-time errors.
Each command emits exactly one JSON record on stdout; after a recoverable
command error the stream continues.

One table, `_COMMANDS`, gives each command's handler, whose signature is its
schema (parameter kinds in `_PARAMS`; no default: required), from which come
its subcommand flags, its task-line checks and its call.  Handlers return
library values, and one JSON encoder writes them all in canonical form.

Exit codes: 0 all commands ok, 1 at least one command failed, 2 usage or
parse error.  A nilpotency bound comes from the line's `bound` or the
`--bound` flag, else `derivation.DEFAULT_BOUND`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .action import GaAction, UncertifiedDerivationError, act, deg_function, exponentiate
from .derivation import DEFAULT_BOUND, DegreeExplosionError, Derivation, apply
from .derivation import certify_locally_nilpotent, fixed_locus
from .exprs import PolyParseError, parse_polynomial
from .geometry import GridSpec, complement_scan, fiber_probe, singular_locus
from .groebner import GREVLEX, LEX, subalgebra_membership
from .poly import NEG_INF, PolyMap, Polynomial, Ring, RingMismatchError, _exact, check_decimal_exponent
from .quotient import DEFAULT_POWER_BOUND, DEFAULT_SLICE_DEGREE_BOUND, find_local_slice
from .quotient import jacobian_derivation, slice_coefficient_as_P, verify_localization_identity

EXIT_OK = 0
EXIT_COMMAND_ERROR = 1
EXIT_USAGE = 2


class TaskLoadError(Exception):
    """A task file problem found before execution starts."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class TaskState:
    """The ring, and per declaration kind a table of names (kind + "s")."""

    def __init__(self):
        self.ring: Ring | None = None
        self.polys: dict = {}
        self.maps: dict = {}
        self.derivations: dict = {}
        self.actions: dict = {}  # name -> GaAction, None until built


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")]


# ---------------------------------------------------------------------------
# task parameters: a resolver maps (state, value, key, params resolved so far)
# to the value handlers take, or raises TaskLoadError (load_task adds the line)


def _declared(state: TaskState, value, key, params):
    """A declared derivation or map; an action's name (built at run time)."""
    table = getattr(state, key + "s")
    if not isinstance(value, str) or value not in table:
        raise TaskLoadError(f"unknown {key} {value!r}")
    return value if key == "action" else table[value]


def _poly(state: TaskState, ref, *_):
    """A polynomial parameter is a declared name or an inline expression."""
    if not isinstance(ref, str):
        raise TaskLoadError(f"expected a polynomial name or expression, got {ref!r}")
    if ref in state.polys:
        return state.polys[ref]
    try:
        return parse_polynomial(ref, state.ring)
    except PolyParseError as exc:
        shown = ref if len(ref) <= 40 else ref[:40] + "..."
        raise TaskLoadError(f"in {shown!r}: {exc}") from None


def _int_at_least(minimum: int):
    def resolve(state, value, key, params):
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise TaskLoadError(f"{key} must be an integer >= {minimum}")
        return value

    return resolve


def _order(state, value, *_):
    if value not in ("lex", "grevlex"):
        raise TaskLoadError("order must be lex or grevlex")
    return LEX if value == "lex" else GREVLEX


def _decimal(text: str) -> Fraction:
    """The rational `text` in the library's grammar (`poly._exact`); a
    decimal exponent beyond its bound is a load error of its own."""
    try:
        check_decimal_exponent(text)
    except ValueError as exc:
        raise TaskLoadError(str(exc)) from None
    return _exact(text)


def _fraction(text, what: str) -> Fraction:
    try:
        return _decimal(str(text))
    except (ValueError, ZeroDivisionError):
        raise TaskLoadError(f"malformed rational in {what}: {text!r}") from None


def _rationals(values, what: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list) or not values:
        raise TaskLoadError(f"{what} must be a nonempty list")
    return tuple(_fraction(v, what) for v in values)


def _point(state, value, key, params):
    point = _rationals(value, key)
    if len(point) != params["map"].arity:
        raise TaskLoadError("point length does not match the map")
    return point


def _points(state, value, key, params):
    if "steps" in params:
        raise TaskLoadError("steps applies only to a box")
    if not isinstance(value, list) or not value:
        raise TaskLoadError("points must be a nonempty list")
    points = [_rationals(p, key) for p in value]
    if any(len(p) != params["map"].arity for p in points):
        raise TaskLoadError("point length does not match the map")
    return points


def _box(state, value, key, params):
    if not isinstance(value, list) or len(value) != params["map"].arity:
        raise TaskLoadError("box needs one [lo, hi] pair per map component")
    box = []
    for axis in value:
        if not isinstance(axis, list) or len(axis) != 2:
            raise TaskLoadError("box axes are [lo, hi] pairs")
        lo, hi = _fraction(axis[0], "box"), _fraction(axis[1], "box")
        if lo > hi:
            raise TaskLoadError(f"malformed box axis: [{lo}, {hi}]")
        box.append((lo, hi))
    if "steps" not in params:
        raise TaskLoadError("scan over a box needs steps")
    return tuple(box)


def _derivation_flag(text, args, objects):
    objects.append((None, {"derivation": {"name": "D", "images": _split_csv(text)}}))
    return "D"


def _map_flag(text, args, objects):
    decl = {"name": "F", "components": _split_csv(text)}
    if args.target:
        decl["target"] = _split_csv(args.target)
    objects.append((None, {"map": decl}))
    return "F"


def _box_flag(text, args, objects):
    axes = [axis.split(":") for axis in _split_csv(text)]
    for parts in axes:
        if len(parts) != 2:
            raise TaskLoadError(f"box axes are lo:hi ranges, got {':'.join(parts)!r}")
    return axes


class _Param(NamedTuple):
    """A task parameter: its resolver, and its subcommand flag, `--` plus
    its name with `_` written as `-` (`--expr` on `poly`), made with the
    argparse keywords `flag` (None: no flag).  `from_flag(value, args,
    objects)` gives the task value (None: leave it out) and adds the
    declarations it needs.  Records echo `rational` values as resolved."""

    resolve: Callable
    flag: dict | None = None
    from_flag: Callable = lambda value, args, objects: value
    rational: bool = False


# In this order a line's parameters are resolved and a subcommand's flags listed.
_PARAMS = {
    "derivation": _Param(_declared, {"help": "comma-separated images"}, _derivation_flag),
    "map": _Param(_declared, {"help": "comma-separated components"}, _map_flag),
    "action": _Param(_declared),
    "poly": _Param(_poly, {}),
    "k": _Param(_int_at_least(0), {"type": int, "default": 1}),
    "bound": _Param(_int_at_least(1), {"type": int}),
    "degree_bound": _Param(_int_at_least(1), {"type": int}),
    "steps": _Param(_int_at_least(1), {"type": int}),
    "power_bound": _Param(_int_at_least(0), {"type": int}),
    "order": _Param(
        _order,
        {"choices": ("lex", "grevlex"), "default": "grevlex"},
        lambda text, *_: None if text == "grevlex" else text,
    ),
    "point": _Param(
        _point, {"help": "comma-separated rationals"}, lambda text, *_: _split_csv(text), True
    ),
    "points": _Param(
        _points,
        {"help": "semicolon-separated points"},
        lambda text, *_: [_split_csv(p) for p in text.split(";")],
        True,
    ),
    "box": _Param(_box, {"help": "comma-separated lo:hi ranges"}, _box_flag, True),
}


# Command handlers take the state and the resolved parameters; they return the payload.


def _flow(state, action=None, derivation=None, bound=DEFAULT_BOUND) -> GaAction:
    """A declared action, or the flow of a derivation."""
    if action is None:
        cert = certify_locally_nilpotent(derivation, bound)
        return exponentiate(derivation, cert)
    flow = state.actions[action]
    if flow is None:  # its declaration's step failed
        raise KeyError(action)
    return flow


def _declare_action(state, name, derivation, bound=DEFAULT_BOUND):
    state.actions[name] = _flow(state, derivation=derivation, bound=bound)


def _cmd_ring(state):
    return {"variables": state.ring.variables, "arity": state.ring.arity}


def _cmd_poly(state, poly):
    return {"canonical": poly}


def _cmd_apply(state, derivation, poly, k=1):
    return {"result": apply(derivation, poly, k)}


def _cmd_nilpotency(state, derivation, bound=DEFAULT_BOUND):
    cert = certify_locally_nilpotent(derivation, bound)
    return {"status": cert.status, "bound": cert.bound, "orders": cert.orders, "chains": cert.chains}


def _cmd_exp(state, derivation, bound=DEFAULT_BOUND):
    flow = _flow(state, derivation=derivation, bound=bound)
    return {"parameter": flow.parameter, "components": flow.components,
            "orders": flow.certificate.orders}


def _cmd_act(state, poly, action=None, derivation=None, bound=DEFAULT_BOUND):
    flow = _flow(state, action, derivation, bound)
    return {"result": act(flow, poly), "parameter": flow.parameter}


def _cmd_invariant(state, poly, action=None, derivation=None, bound=DEFAULT_BOUND):
    flow = _flow(state, action, derivation, bound)
    deg = deg_function(flow, poly)  # invariant iff deg <= 0 (see deg_function)
    return {"invariant": deg <= 0, "t_degree": None if deg == NEG_INF else int(deg)}


def _cmd_fixed_locus(state, derivation):
    loc = fixed_locus(derivation)
    return {"generators": loc.generators, "dimension": loc.dimension,
            "fixed_point_free": loc.is_fixed_point_free}


def _cmd_jacobian_derivation(state, map):
    return {"images": jacobian_derivation(map).images}


def _cmd_slice(state, derivation, degree_bound=DEFAULT_SLICE_DEGREE_BOUND):
    slc = find_local_slice(derivation, degree_bound)
    return {"found": False} if slc is None else {"found": True, "f": slc.f, "c": slc.c}


def _cmd_localization(state, derivation, map, poly, degree_bound=DEFAULT_SLICE_DEGREE_BOUND,
                      power_bound=DEFAULT_POWER_BOUND):
    slc = find_local_slice(derivation, degree_bound)
    if slc is None:
        return {"found": False}
    P = slice_coefficient_as_P(derivation, slc, map)
    payload = {"found": True, "f": slc.f, "c": slc.c, "P": P, "k": None, "T": None}
    if P is None:
        return payload
    out = verify_localization_identity(slc, map, poly, power_bound)
    if out is not None:
        payload["k"], payload["T"] = out
        payload["tags"] = payload["T"].ring.variables
    return payload


def _cmd_fiber(state, map, point, order=GREVLEX):
    r = fiber_probe(map, point, order=order)
    return {"point": r.point, "empty": r.empty, "dimension": r.dimension, "basis": r.witness.basis}


def _cmd_singular_locus(state, map, order=GREVLEX):
    r = singular_locus(map, order=order)
    return {"minors": r.minors, "basis": r.basis.basis, "dimension": r.dimension,
            "codimension": r.codimension, "nonsingular_in_codim_1": r.nonsingular_in_codim_1}


def _cmd_scan(state, map, points=None, box=None, steps=None, order=GREVLEX):
    if points is not None:
        probe, probed = points, len(points)
    else:
        probe = GridSpec(box=box, steps=steps)
        probed = probe.steps ** len(probe.box)
    reports = complement_scan(map, probe, order=order)
    return {"probed": probed, "empty": [{"point": r.point, "basis": r.witness.basis} for r in reports]}


def _cmd_subalgebra(state, map, poly):
    witness = subalgebra_membership(poly, map.components, map.target_names)
    return {"member": witness is not None, "witness": witness, "tags": map.target_names}


class _Command:
    """Help text, handler, and the handler's parameters after the state, all
    (`params`, in `_PARAMS` order), without a default (`required`), and
    exactly one of which must be given (`one_of`)."""

    def __init__(self, help, handler, one_of=()):
        self.help = help
        self.handler = handler
        self.one_of = one_of
        code = handler.__code__
        names = code.co_varnames[: code.co_argcount]  # the state, then keys of _PARAMS
        # the defaults belong to the last parameters
        required = names[: len(names) - len(handler.__defaults__ or ())]
        self.params = tuple(key for key in _PARAMS if key in names)
        self.required = frozenset(k for k in self.params if k in required)


_FLOW = ("action", "derivation")
_COMMANDS = {
    "ring": _Command("validate and echo a ring", _cmd_ring),
    "poly": _Command("parse and canonically print a polynomial", _cmd_poly),
    "apply": _Command("apply a derivation k times", _cmd_apply),
    "nilpotency": _Command("certify bounded local nilpotency", _cmd_nilpotency),
    "exp": _Command("exponentiate a certified derivation", _cmd_exp),
    "act": _Command("pull a polynomial back along the flow", _cmd_act, _FLOW),
    "invariant": _Command("test invariance under the flow", _cmd_invariant, _FLOW),
    "fixed-locus": _Command("vanishing locus of a derivation", _cmd_fixed_locus),
    "jacobian-derivation": _Command("derivation attached to a map", _cmd_jacobian_derivation),
    "slice": _Command("search for a local slice", _cmd_slice),
    "localization": _Command("slice, coefficient, and identity", _cmd_localization),
    "fiber": _Command("probe one fiber of a map", _cmd_fiber),
    "singular-locus": _Command("rank-drop locus of a map", _cmd_singular_locus),
    "scan": _Command(
        "probe many fibers, reporting the empty ones", _cmd_scan, ("points", "box")
    ),
    "subalgebra": _Command("membership in the algebra a map generates", _cmd_subalgebra),
}


# ---------------------------------------------------------------------------
# task loading

_DECL_KINDS = ("ring", "poly", "map", "derivation", "action", "command")
_DECL_KEYS = {
    "poly": {"name", "expr"},
    "map": {"name", "components", "target"},
    "derivation": {"name", "images"},
    "action": {"name", "derivation", "bound"},
}


def _resolve(state: TaskState, body: dict, keys) -> tuple[dict, dict]:
    """Resolve those of the parameters `keys` (in `_PARAMS` order) the line
    gives.  Returns the line's echo, a copy of body with its rationals
    resolved, and the parameters; body itself is left as it is."""
    echo, params = dict(body), {}
    for key in keys:
        if key in body:
            param = _PARAMS[key]
            params[key] = param.resolve(state, body[key], key, params)
            if param.rational:
                echo[key] = params[key]
    return echo, params


def _load_declaration(state: TaskState, kind: str, body):
    """Apply a declaration to the state; an action's returns its step's call."""
    if kind == "ring":
        if state.ring is not None:
            raise TaskLoadError("ring already declared")
        if not isinstance(body, list) or not all(isinstance(v, str) for v in body):
            raise TaskLoadError("ring declaration must list variable names")
        state.ring = Ring(tuple(body))
        return None

    if state.ring is None:
        raise TaskLoadError("no ring declared yet")
    if not isinstance(body, dict) or not isinstance(body.get("name"), str):
        raise TaskLoadError(f"{kind} declaration needs a name")
    unknown = set(body).difference(_DECL_KEYS[kind])
    if unknown:
        raise TaskLoadError(f"{kind} declaration does not take {sorted(unknown)}")
    name = body["name"]
    if name in getattr(state, kind + "s"):
        raise TaskLoadError(f"{'polynomial' if kind == 'poly' else kind} {name!r} already declared")

    if kind == "poly":
        if "expr" not in body:
            raise TaskLoadError("poly declaration needs an expr")
        state.polys[name] = _poly(state, body["expr"])
    elif kind == "map":
        comps = body.get("components")
        if not isinstance(comps, list) or not comps:
            raise TaskLoadError("map declaration needs components")
        target = body.get("target", [])
        if not isinstance(target, list) or not all(isinstance(v, str) for v in target):
            raise TaskLoadError("map target must list names")
        state.maps[name] = PolyMap(state.ring, tuple(_poly(state, c) for c in comps), tuple(target))
    elif kind == "derivation":
        images = body.get("images")
        if not isinstance(images, list):
            raise TaskLoadError("derivation declaration needs images")
        state.derivations[name] = Derivation(state.ring, tuple(_poly(state, p) for p in images))
    else:
        derivation = body.get("derivation")
        if not isinstance(derivation, str) or derivation not in state.derivations:
            raise TaskLoadError("action declaration needs a declared derivation")
        echo, params = _resolve(state, body, ("bound",))
        state.actions[name] = None
        params.update(name=name, derivation=state.derivations[derivation])
        return {"action": echo}, _declare_action, params
    return None


def _load_command(state: TaskState, body):
    if not isinstance(body, dict) or not isinstance(body.get("cmd"), str):
        raise TaskLoadError("command needs a cmd field")
    name = body["cmd"]
    if name not in _COMMANDS:
        raise TaskLoadError(f"unknown command {name!r}")
    spec = _COMMANDS[name]
    keys = set(body) - {"cmd"}
    missing = spec.required - keys
    if missing:
        raise TaskLoadError(f"{name} needs {sorted(missing)}")
    unknown = keys.difference(spec.params)
    if unknown:
        raise TaskLoadError(f"{name} does not take {sorted(unknown)}")
    if state.ring is None:
        raise TaskLoadError("no ring declared yet")
    if spec.one_of and len(keys.intersection(spec.one_of)) != 1:
        raise TaskLoadError(f"{name} needs exactly one of {' or '.join(spec.one_of)}")
    echo, params = _resolve(state, body, spec.params)
    return echo, spec.handler, params


def load_task(objects) -> tuple[TaskState, list]:
    """Validate and resolve a task's lines; returns state plus ordered steps.

    Ring, poly, map and derivation declarations go into the state at once.
    Each action declaration and command becomes a step: ("action" or
    "command", (echo, handler, params)), with a copy of the line as its
    records echo it (`objects` is not changed, so it can be loaded again)
    and the handler's parameters resolved here, once: declared names to
    objects (action names stay names; actions are built when their step
    runs), polynomials parsed, orders to `MonomialOrder`, rationals to
    `Fraction`.  The lines are all a task reads: a step that gives no
    `bound` takes its handler's default, `derivation.DEFAULT_BOUND`.
    """
    state = TaskState()
    steps = []
    for line_no, obj in objects:
        try:
            if not isinstance(obj, dict) or len(obj) != 1:
                raise TaskLoadError(
                    "each line must be an object with exactly one of " + ", ".join(_DECL_KINDS)
                )
            kind, body = next(iter(obj.items()))
            if kind == "command":
                steps.append((kind, _load_command(state, body)))
            elif kind in _DECL_KINDS:
                call = _load_declaration(state, kind, body)
                if call is not None:
                    steps.append((kind, call))
            else:
                raise TaskLoadError(f"unknown line kind {kind!r}")
        except (TaskLoadError, ValueError) as exc:  # ValueError: the library refused an input
            raise TaskLoadError(str(exc), line_no) from None
    return state, steps


def parse_task_text(text: str):
    """JSON-decode nonblank lines, keeping 1-based line numbers."""
    objects = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            objects.append((line_no, json.loads(line, parse_float=_decimal)))
        except json.JSONDecodeError as exc:
            raise TaskLoadError(f"invalid JSON: {exc.msg}", line_no) from None
        except (TaskLoadError, ValueError) as exc:  # ValueError: a number with too many digits
            raise TaskLoadError(str(exc), line_no) from None
    return objects


# ---------------------------------------------------------------------------
# execution

# Error codes by exception type; the most specific class of an exception
# that appears here gives its code, anything else is an internal error.
_ERROR_CODES = {
    UncertifiedDerivationError: "not-certified",
    DegreeExplosionError: "degree-explosion",
    RingMismatchError: "ring-mismatch",
    PolyParseError: "parse-error",
    ValueError: "invalid-argument",
    IndexError: "invalid-argument",
    KeyError: "invalid-argument",
}


def _error(exc: Exception) -> dict:
    for cls in type(exc).__mro__:
        if cls in _ERROR_CODES:
            return {"code": _ERROR_CODES[cls], "message": str(exc)}
    return {"code": "internal-error", "message": f"{type(exc).__name__}: {exc}"}


def _record_value(value):
    """A polynomial or rational in a record: its canonical string."""
    if isinstance(value, (Polynomial, Fraction)):
        return str(value)
    raise TypeError(f"a record cannot hold {type(value).__name__}")


# One encoder for every record: json.dumps with these keywords would build
# a new one per call.  A record is a tree that its handler builds afresh, so
# the encoder skips its check for cycles.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_record_value, check_circular=False)

_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def _digits(n: int) -> str:
    """str(n), converted in pieces of at most _CHUNK_DIGITS digits, so that
    the interpreter's limit on int string conversion does not apply."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    high, low = divmod(abs(n), _CHUNK)
    return ("-" if n < 0 else "") + _digits(high) + str(low).zfill(_CHUNK_DIGITS)


def _echo_value(value):
    """A rational in a record's echo, whose size the task's literals bound:
    str(value), for any number of digits."""
    if isinstance(value, Fraction):
        text = _digits(value.numerator)
        return text if value.denominator == 1 else f"{text}/{_digits(value.denominator)}"
    raise TypeError(f"a record cannot hold {type(value).__name__}")


def _emit(record: dict, started: float, out) -> bool:
    """Print a record; False if it had to become an output-too-large error
    record instead.  A number past the interpreter's limit on int string
    conversion (sys.get_int_max_str_digits()) cannot be printed: that limit
    keeps a huge result from taking quadratic time to write out.  The error
    record echoes the command in full, since the decimal exponent bound on
    the task's literals bounds the echo's numbers."""
    record["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    try:
        text = _ENCODER.encode(record)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        error = {"code": "output-too-large", "message": f"the record holds a number of more than {limit} digits"}
        record = {"command": record["command"], "status": "error", "error": error, "timing": record["timing"]}
        out.write(json.dumps(record, sort_keys=True, separators=(",", ":"), default=_echo_value) + "\n")
        return False
    out.write(text + "\n")
    return True


def run_steps(state: TaskState, steps, out) -> int:
    """Execute in order; one record per command; abort on declaration failure."""
    failed = False
    for kind, (echo, handler, params) in steps:
        started = time.perf_counter()
        try:
            payload = handler(state, **params)
        except Exception as exc:
            _emit({"command": echo, "status": "error", "error": _error(exc)}, started, out)
            if kind == "action":  # a failed declaration poisons later steps
                return EXIT_COMMAND_ERROR
            failed = True
            continue
        if kind == "command" and not _emit({"command": echo, "status": "ok", "payload": payload}, started, out):
            failed = True
    return EXIT_COMMAND_ERROR if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    description = "Exact probes for derivations, flows, and polynomial maps."
    parser = argparse.ArgumentParser(prog="gaql", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="execute a JSON-lines task file")
    run.add_argument("task", help="path to the task file, or - for stdin")

    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--ring", required=True, help="comma-separated variable names")
        for key in spec.params:
            flag = _PARAMS[key].flag
            if flag is None:
                continue
            option = "--expr" if name == "poly" else "--" + key.replace("_", "-")
            p.add_argument(option, dest=key, required=key in spec.required, **flag)
            if key == "map":
                p.add_argument("--target", help="comma-separated target names")
    return parser


def _synthesize_task(args) -> list:
    """Translate one subcommand invocation into task-file objects."""
    objects = [(None, {"ring": _split_csv(args.ring)})]
    cmd = {"cmd": args.subcommand}
    for key in _COMMANDS[args.subcommand].params:
        value = getattr(args, key, None)
        if value is None or value == "":
            continue
        value = _PARAMS[key].from_flag(value, args, objects)
        if value is not None:
            cmd[key] = value
    objects.append((None, {"command": cmd}))
    return objects


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "run":
            if args.task == "-":
                text = sys.stdin.read()
            else:
                try:
                    with open(args.task, "r", encoding="utf-8") as handle:
                        text = handle.read()
                except OSError as exc:
                    raise TaskLoadError(f"cannot read task file: {exc}")
            objects = parse_task_text(text)
        else:
            objects = _synthesize_task(args)
        state, steps = load_task(objects)
    except TaskLoadError as exc:
        print(f"gaql: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run_steps(state, steps, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
