"""In-memory span recorder that wraps gaql's public functions from outside.

`Tracer.installed()` wraps every public function of the layer modules and
a few `Polynomial` methods, and restores the originals on exit; no file
under `src/` changes.  Modules import names directly (`geometry` does
`from .groebner import groebner_basis`), so patching only the defining
module would miss most calls: each function is replaced at every place in
`gaql.*` where it is bound.  Calls inside a module go through its globals
and are caught the same way.  `Polynomial` methods are patched on the class.
Once installed, `Tracer.missed` lists every place that still holds an
unwrapped original (see `stray_originals`).

A span is [name, start, end, parent, request id, child time, outermost];
the request id is the index of the task step being run.  Self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("poly", "exprs", "groebner", "derivation", "action", "quotient", "geometry", "cli")

# Called once per term inside every Polynomial constructor: a span there
# would cost more than the work it measures.
NOT_SPANS = {"poly.grevlex_key"}

POLY_METHODS = {
    "__mul__": "poly.mul",
    "__rmul__": "poly.mul",
    "__add__": "poly.addsub",
    "__radd__": "poly.addsub",
    "__sub__": "poly.addsub",
    "mul_monomial": "poly.mul_monomial",
    "compose": "poly.compose",
    "partial_derivative": "poly.partial_derivative",
}

NAME, START, END, PARENT, RID, CHILD, OUTER = range(7)


def _fiber_probe(tr, args, result):
    tr.counts["geometry.fibers_empty"] += result.empty


def _groebner_basis(tr, args, result):
    basis = result.basis
    tr.maxima["groebner.basis_len_max"] = max(tr.maxima["groebner.basis_len_max"], len(basis))
    for p in basis:
        tr.maxima["groebner.basis_deg_max"] = max(tr.maxima["groebner.basis_deg_max"], p.total_degree())


def _s_polynomial(tr, args, result):
    tr.last_spoly = result


def _reduce(tr, args, result):
    if args[0] is tr.last_spoly:  # an S-polynomial reduction inside Buchberger
        tr.counts["groebner.reduce.attempts"] += 1
        tr.counts["groebner.reduce.nonzero"] += not result.is_zero


def _mul(tr, args, result):
    if result is not NotImplemented:
        tr.counts["poly.mul.terms_out"] += result.num_terms()


def _certify(tr, args, result):
    if result.certified:
        tr.counts["derivation.orders_sum"] += sum(result.orders)


HOOKS = {
    "geometry.fiber_probe": _fiber_probe,
    "groebner.groebner_basis": _groebner_basis,
    "groebner.s_polynomial": _s_polynomial,
    "groebner.reduce": _reduce,
    "poly.mul": _mul,
    "derivation.certify_locally_nilpotent": _certify,
}


def stray_originals(wrapped) -> list[str]:
    """Places in `gaql.*` that still hold an unwrapped original once the
    wrappers are installed: a module global, an item of a module-level
    dict, list, tuple or set, a default argument of a gaql function, or a
    class attribute.  Calls made through any of them would escape the spans
    and show up as self time of the caller."""
    found = []

    def look(where, value):
        try:
            if value in wrapped:
                found.append(where)
        except TypeError:  # unhashable
            pass

    for modname, mod in list(sys.modules.items()):
        if modname != "gaql" and not modname.startswith("gaql."):
            continue
        for attr, obj in vars(mod).items():
            where = f"{modname}.{attr}"
            look(where, obj)
            if isinstance(obj, dict):
                for key, value in obj.items():
                    look(f"{where}[{key!r}]", key)
                    look(f"{where}[{key!r}]", value)
            elif isinstance(obj, (list, tuple, set, frozenset)):
                for i, value in enumerate(obj):
                    look(f"{where}[{i}]", value)
            elif inspect.isfunction(obj):
                for i, value in enumerate(obj.__defaults__ or ()):
                    look(f"{where} default {i}", value)
                for key, value in (obj.__kwdefaults__ or {}).items():
                    look(f"{where} default {key}", value)
            elif inspect.isclass(obj) and obj.__module__ == modname:
                for name, value in vars(obj).items():
                    look(f"{where}.{name}", getattr(value, "__func__", value))
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.rid = None
        self.last_spoly = None
        self.missed: list[str] = []

    def wrap(self, name, fn):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = active[name]
            active[name] = depth + 1
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.rid, 0.0, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                active[name] = depth
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from gaql.poly import Polynomial

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gaql.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_SPANS):
                    wrappers[obj] = self.wrap(name, obj)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != "gaql" and not modname.startswith("gaql."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj))
        method_wrappers = {}
        for attr, name in POLY_METHODS.items():
            orig = Polynomial.__dict__[attr]
            if orig not in method_wrappers:
                method_wrappers[orig] = self.wrap(name, orig)
            patches.append((Polynomial, attr, orig))
        wrappers.update(method_wrappers)
        try:
            for owner, attr, orig in patches:
                setattr(owner, attr, wrappers[orig])
            self.missed = stray_originals(wrappers)
            yield self
        finally:
            for owner, attr, orig in patches:
                setattr(owner, attr, orig)

    def metrics(self) -> dict:
        """Per-layer numbers from the recorded spans and hook counters."""
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        gb_per_probe = Counter()
        for span in self.spans:
            name = span[NAME]
            dur = span[END] - span[START]
            calls[name] += 1
            if span[OUTER]:
                incl[name] += dur
            self_s[name] += dur - span[CHILD]
            if name == "groebner.groebner_basis" and span[PARENT] >= 0:
                if self.spans[span[PARENT]][NAME] in ("geometry.fiber_probe", "geometry.singular_locus"):
                    gb_per_probe[span[PARENT]] += 1
        attempts = self.counts["groebner.reduce.attempts"]
        out = {
            "cli.load_s": incl["cli.parse_task_text"] + incl["cli.load_task"],
            "cli.run_steps.self_s": self_s["cli.run_steps"],
            "geometry.fibers_empty": self.counts["geometry.fibers_empty"],
            "geometry.extra_bases": sum(n - 1 for n in gb_per_probe.values()),
            "groebner.reduce.nonzero_ratio": self.counts["groebner.reduce.nonzero"] / attempts if attempts else 0.0,
            "groebner.basis_len_max": self.maxima["groebner.basis_len_max"],
            "groebner.basis_deg_max": self.maxima["groebner.basis_deg_max"],
            "poly.mul.terms_out": self.counts["poly.mul.terms_out"],
            "derivation.orders_sum": self.counts["derivation.orders_sum"],
        }
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        return out

    def self_time_total(self) -> float:
        return sum(span[END] - span[START] - span[CHILD] for span in self.spans)

    def dump(self, path, t0: float):
        """Write the spans as JSON lines, times relative to t0."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, rid, _, _ in self.spans:
                handle.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, rid]) + "\n")
