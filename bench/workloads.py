"""Seeded generators of `gaql run` task files, one per benchmark workload.

Each generator returns task text, the only thing the program sees.  The
seed picks one of VARIANTS input variants; every variant of a workload has
the same structure (same commands, same basis shapes, same term supports),
so run time does not depend on the seed while the inputs still do.  The
correctness gate pins one output digest per variant.

`small=True` gives a reduced instance for the harness smoke test; small
instances have no pinned digests.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

VARIANTS = 16

WHY = {
    "gb-stress": (
        "a few large Groebner bases (cyclic-4/5, katsura-3/4) requested as fiber "
        "commands; pair selection and normal form dominate, CLI and exprs work is near zero"
    ),
    "flow-slice": (
        "certify/exponentiate with the group-law check, act, invariant, a 252-column "
        "slice nullspace and a dense power; poly multiply and compose dominate, no Groebner basis"
    ),
    "probe-grid": (
        "1681 tiny fiber commands plus a scan, a lex singular locus, a Jacobian derivation, "
        "localization and subalgebra; per-call and per-record overhead dominate"
    ),
}


def _lines(objs) -> str:
    return "".join(json.dumps(o, separators=(",", ":")) + "\n" for o in objs)


def cyclic(names) -> list[str]:
    """Cyclic-n components c_1 .. c_n; c_n = x_1 * .. * x_n (no constant)."""
    n = len(names)
    comps = []
    for k in range(1, n):
        comps.append(
            " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        )
    comps.append("*".join(names))
    return comps


def katsura(names) -> list[str]:
    """Katsura-(len-1) components; the last is the linear form u0 + 2*sum(u_l)
    (no constant), the others the quadrics sum_l u_|l| u_|m-l| - u_m."""
    n = len(names) - 1

    def u(k):
        return names[abs(k)] if abs(k) <= n else None

    comps = []
    for m in range(n):
        products = [
            f"{u(l)}*{u(m - l)}"
            for l in range(-n, n + 1)
            if u(l) is not None and u(m - l) is not None
        ]
        comps.append(" + ".join(products) + f" - {names[m]}")
    comps.append(names[0] + "".join(f" + 2*{v}" for v in names[1:]))
    return comps


def gb_stress(seed: int, small: bool = False) -> str:
    """Large bases as fibers: the last point coordinate is the system's
    constant.  Each bit of the variant flips the sign of one system's
    constant, which maps the ideal onto itself under x -> -x (or only flips
    coefficient signs of the reduced basis), so basis shapes and coefficient
    sizes do not change."""
    variant = seed % VARIANTS
    xs = ["x1", "x2", "x3", "x4", "x5"]
    systems = [("C5", cyclic(xs), "grevlex"), ("K4", katsura(xs), "grevlex"),
               ("C4", cyclic(xs[:4]), "lex"), ("K3", katsura(xs[:4]), "lex")]
    if small:
        systems = [s for s in systems if s[0] in ("C4", "K3")]
    objs = [{"ring": xs}]
    for name, comps, _ in systems:
        objs.append({"map": {"name": name, "components": comps}})
    for bit, (name, comps, order) in enumerate(systems):
        point = ["0"] * (len(comps) - 1) + ["-1" if variant >> bit & 1 else "1"]
        cmd = {"cmd": "fiber", "map": name, "point": point}
        if order == "lex":
            cmd["order"] = "lex"
        objs.append({"command": cmd})
    return _lines(objs)


def _dense(rng: random.Random, names, degree: int) -> str:
    """Every monomial of total degree <= degree, each with a nonzero
    coefficient in [-9, 9]: the support is fixed, only coefficients vary."""
    def monomials(k, remaining):
        if k == len(names):
            yield ()
            return
        for e in range(remaining + 1):
            for rest in monomials(k + 1, remaining - e):
                yield (e, *rest)

    terms = []
    for exps in monomials(0, degree):
        coeff = rng.choice([c for c in range(-9, 10) if c])
        mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e)
        terms.append(f"{coeff}*{mono}" if mono else str(coeff))
    return " + ".join(terms).replace("+ -", "- ")


def flow_slice(seed: int, small: bool = False) -> str:
    """Flows, slices and dense arithmetic; no Groebner basis anywhere.  The
    seed varies only the coefficients of the dense polynomials that `act`
    and `invariant` use."""
    rng = random.Random(seed % VARIANTS)
    vs = ["a", "b", "c", "d", "e"]
    f = "(2*a*c-b^2)"
    r = "(a*c+b^2)"
    power = 3 if small else 12
    objs = [
        {"ring": vs},
        # basic derivation times the square of its kernel element: orders (1,2,3,4,5)
        {"derivation": {"name": "B", "images": ["0", "a", "b", "c", "d"]}},
        {"derivation": {"name": "D", "images": ["0"] + [f"{v}*{f}^2" for v in vs[:4]]}},
        # Nagata type r^3 * (-2b, c, 0, 0, 0): orders (3,2,1,1,1)
        {"derivation": {"name": "N", "images": [f"-2*b*{r}^3", f"c*{r}^3", "0", "0", "0"]}},
        # triangular: orders (1,2,4,8,9)
        {"derivation": {"name": "T", "images": ["0", "a", "b^2", "c^2", "d"]}},
    ]
    actions = [("AT", "T")] if small else [("AD", "D"), ("AN", "N"), ("AT", "T")]
    for name, derivation in actions:
        objs.append({"action": {"name": name, "derivation": derivation}})
    for name, _ in actions:
        objs.append({"command": {"cmd": "act", "action": name, "poly": _dense(rng, vs, 2)}})
        objs.append({"command": {"cmd": "invariant", "action": name, "poly": _dense(rng, vs, 2)}})
    if not small:
        objs.append({"command": {"cmd": "invariant", "action": "AD", "poly": f"{f}^3 + a^2"}})
    objs.append({"command": {"cmd": "slice", "derivation": "B", "degree_bound": 3 if small else 5}})
    objs.append({"command": {"cmd": "apply", "derivation": "T", "poly": "e^3*d", "k": 12}})
    objs.append({"command": {"cmd": "poly", "poly": f"((1+a+b+c)^{power})^2"}})
    return _lines(objs)


def probe_grid(seed: int, small: bool = False) -> str:
    """Many tiny probes.  The seed picks the grid offset and scale; (0, 0),
    the one point missing from the punctured-plane map's image, is always a
    grid point, and the scanned map is surjective."""
    rng = random.Random(seed % VARIANTS)
    steps = 5 if small else 41
    h = Fraction(rng.choice([1, 3]), 2)
    i0 = rng.randrange(steps // 4, steps - steps // 4)
    j0 = rng.randrange(steps // 4, steps - steps // 4)
    objs = [
        {"ring": ["x", "y", "z"]},
        {"map": {"name": "P", "components": ["1+x*z", "y+z+x*y*z"]}},
        {"map": {"name": "S", "components": ["x", "2*x*z-y^2"]}},
        {"derivation": {"name": "T", "images": ["0", "x", "y"]}},
    ]
    for i in range(steps):
        for j in range(steps):
            point = [str((i - i0) * h), str((j - j0) * h)]
            objs.append({"command": {"cmd": "fiber", "map": "P", "point": point}})
    scan_steps = 3 if small else 21
    lo = -(scan_steps // 2) * h + Fraction(rng.randrange(-4, 5), 2)
    hi = lo + (scan_steps - 1) * h
    box = [[str(lo), str(hi)], [str(lo - h), str(hi - h)]]
    objs.append({"command": {"cmd": "scan", "map": "S", "box": box, "steps": scan_steps}})
    objs.append({"command": {"cmd": "singular-locus", "map": "P", "order": "lex"}})
    objs.append({"command": {"cmd": "jacobian-derivation", "map": "S"}})
    objs.append({"command": {"cmd": "localization", "derivation": "T", "map": "S", "poly": "z"}})
    objs.append({"command": {"cmd": "subalgebra", "map": "S", "poly": "x^3*(2*x*z-y^2)^2 + x*(2*x*z-y^2)"}})
    return _lines(objs)


GENERATORS = {"gb-stress": gb_stress, "flow-slice": flow_slice, "probe-grid": probe_grid}


def generate(workload: str, seed: int, small: bool = False) -> str:
    return GENERATORS[workload](seed, small)
