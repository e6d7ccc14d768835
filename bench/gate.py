"""Correctness gate: pinned output digests plus answers known without gaql.

Runs outside the timed region.  Every check that fails adds a message; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Standard-monomial counts known from the literature (PoSSo test suite).
STANDARD_MONOMIALS = {"C5": 70, "K4": 16}
BASIS_SIZES = {"C5": 20}
FLOW_ORDERS = {"AD": (1, 2, 3, 4, 5), "AN": (3, 2, 1, 1, 1), "AT": (1, 2, 4, 8, 9)}


def records(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines()]


def canonical_lines(recs) -> list[bytes]:
    """Each record as compact JSON with sorted keys and `timing` removed."""
    return [
        json.dumps({k: v for k, v in rec.items() if k != "timing"}, sort_keys=True, separators=(",", ":")).encode()
        for rec in recs
    ]


def digest(recs) -> str:
    """sha256 over the canonical records, one line each."""
    h = hashlib.sha256()
    for line in canonical_lines(recs):
        h.update(line)
        h.update(b"\n")
    return h.hexdigest()


def pinned(workload: str, variant: int) -> str | None:
    return json.loads(DIGESTS.read_text())[workload].get(str(variant))


def _leading_monomial(text: str, names) -> tuple[int, ...]:
    """Exponents of the first printed term (the grevlex leading term)."""
    head = text.lstrip("-")
    for sep in (" + ", " - "):
        head = head.split(sep)[0]
    exps = [0] * len(names)
    for factor in head.split("*"):
        name, _, e = factor.partition("^")
        if name in names:
            exps[names.index(name)] += int(e or 1)
    return tuple(exps)


def standard_monomials(basis, names, cap=10_000) -> int:
    """Count monomials divisible by no leading monomial (None if > cap)."""
    lms = [_leading_monomial(p, names) for p in basis]

    def standard(m):
        return not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)

    start = (0,) * len(names)
    seen = {start} if standard(start) else set()
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for i in range(len(names)):
            nxt = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if nxt not in seen and standard(nxt):
                seen.add(nxt)
                frontier.append(nxt)
                if len(seen) > cap:
                    return None
    return len(seen)


def known_answers(workload: str, recs, state) -> list[str]:
    errors = []
    if workload == "gb-stress":
        names = list(state.ring.variables)
        for rec in recs:
            name = rec["command"]["map"]
            basis = rec["payload"]["basis"]
            if name in BASIS_SIZES and len(basis) != BASIS_SIZES[name]:
                errors.append(f"{name}: {len(basis)} basis elements, expected {BASIS_SIZES[name]}")
            if name in STANDARD_MONOMIALS:
                count = standard_monomials(basis, names)
                if count != STANDARD_MONOMIALS[name]:
                    errors.append(f"{name}: {count} standard monomials, expected {STANDARD_MONOMIALS[name]}")
    elif workload == "flow-slice":
        for name, action in state.actions.items():
            if action.certificate.orders != FLOW_ORDERS[name]:
                errors.append(f"action {name}: orders {action.certificate.orders}, expected {FLOW_ORDERS[name]}")
        kernel = [r["payload"] for r in recs if r["command"].get("poly", "").startswith("(2*a*c-b^2)^3")]
        if "AD" in state.actions and kernel != [{"invariant": True, "t_degree": 0}]:
            errors.append("(2ac-b^2)^3 + a^2 is not reported invariant under AD")
    elif workload == "probe-grid":
        fibers = [r for r in recs if r["command"]["cmd"] == "fiber"]
        empty = [r["payload"]["point"] for r in fibers if r["payload"]["empty"]]
        if empty != [["0", "0"]]:
            errors.append(f"empty fibers at {empty}, expected exactly [['0', '0']]")
        for r in recs:
            if r["command"]["cmd"] == "scan" and r["payload"]["empty"]:
                errors.append(f"scan of a surjective map found {len(r['payload']['empty'])} empty fibers")
    return errors


def check(workload: str, variant: int | None, output: str, state, n_commands: int):
    """Gate one pass; returns (errors, failed command count)."""
    try:
        recs = records(output)
    except json.JSONDecodeError as exc:
        return [f"unparsable output: {exc}"], n_commands
    ok = [r for r in recs if r.get("status") == "ok"]
    failed = n_commands - len(ok)
    errors = []
    if failed:
        errors.append(f"{failed} of {n_commands} commands failed")
    else:
        errors.extend(known_answers(workload, recs, state))
    if variant is not None:
        want = pinned(workload, variant)
        got = digest(recs)
        if want != got:
            errors.append(f"output digest {got[:16]} differs from pinned {str(want)[:16]}")
    return errors, failed
