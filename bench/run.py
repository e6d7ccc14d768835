"""gaql benchmark: one seeded workload, run through the public CLI entry points.

    python3 bench/run.py --workload gb-stress --seed 1 --seconds 38 --trace 0

Run from the repository root (any directory holding `src/gaql` and `bench/`).
The task text is generated from the seed (see workloads.py) and run in this
process with `cli.parse_task_text`, `cli.load_task` and `cli.run_steps`;
set-up is timed in fresh interpreters.  Step times are reported as costs:
multiples of a fixed reference loop's time, measured next to each step.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics, with `--trace 1` one with the per-layer metrics of a traced run.  Every pass is checked by the
correctness gate (gate.py) outside the timed region; the exit code is 1 if
any check fails and 2 on a usage problem.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# One set-up runs before each pass while fewer than SETUP_MIN_REPS are done,
# or fewer than SETUP_MAX_REPS taking less than SETUP_SECONDS in all; the
# fastest is reported.  Spreading them over the run keeps a slow stretch of
# the machine from deciding all of them.
SETUP_MIN_REPS, SETUP_SECONDS, SETUP_MAX_REPS = 7, 4.0, 25
TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)
SELF_TIME_TOLERANCE = 0.05
# The plain passes time the reference loop before a step whenever
# REF_EVERY seconds have passed since they last did, and after the last step.
REF_EVERY = 0.05
WORK_DIR = HERE / ".work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """Gate results and counts shared by every pass of one benchmark run."""

    def __init__(self, cli, workload: str, variant: int | None, text: str):
        self.cli, self.workload, self.variant, self.text = cli, workload, variant, text
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def load(self):
        state, steps = self.cli.load_task(self.cli.parse_task_text(self.text))
        return state, steps, sum(kind == "command" for kind, _ in steps)

    def check(self, output: str, state, n_commands: int):
        errors, failed = gate.check(self.workload, self.variant, output, state, n_commands)
        for error in errors:
            self.fail(error)
        self.attempted += n_commands
        self.failed += failed

    def fail(self, error: str):
        if error not in self.errors:
            self.errors.append(error)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def setup_seconds(text: str) -> float:
    """import gaql + read + parse_task_text + load_task in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC)],
        input=text, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def timed_passes(seconds: float, kinds, run_pass, before_pass=None):
    """Alternate pass kinds until the next pass would end past the deadline;
    every kind runs at least once.  Time spent in `before_pass` counts
    against `seconds`, so a run lasts about `seconds` in all."""
    deadline = time.perf_counter() + seconds
    last = {}
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if before_pass is not None:
            before_pass()
        gc.collect()
        last[kind] = run_pass(kind)
        i += 1
        upcoming = kinds[i % len(kinds)]
        if len(last) == len(kinds) and time.perf_counter() + last[upcoming] > deadline:
            return


def want_setup(done: list[float]) -> bool:
    return len(done) < SETUP_MIN_REPS or (sum(done) < SETUP_SECONDS and len(done) < SETUP_MAX_REPS)


def tail(latencies: list[float]):
    """The highest level with at least 10 samples beyond it, or the maximum
    when there are fewer than 20 samples."""
    ordered = sorted(latencies)
    level = next((q for q in TAIL_LEVELS if len(ordered) * (1 - q) >= 10), None)
    if level is None:
        return ordered[-1], "max"
    return ordered[math.ceil(level * len(ordered)) - 1], f"p{level * 100:g}"


# The reference loop's operands: 48 terms in three variables with Fraction
# coefficients, the kind of data gaql's Polynomial holds.
REF_TERMS = {
    (i, j, k): Fraction(i - 2 * j + 3, k + 2) for i in range(4) for j in range(4) for k in range(3)
}


def reference_seconds() -> float:
    """Time of one fixed product of two 48-term polynomials, written here in
    plain Python (dict of exponent tuples to Fraction) and not using gaql."""
    started = time.perf_counter()
    product = {}
    for ea, ca in REF_TERMS.items():
        for eb, cb in REF_TERMS.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = product.get(e)
            product[e] = ca * cb if c is None else c + ca * cb
    return time.perf_counter() - started


def step_pass(run: Run, state, steps, out, tracer=None, costs=False):
    """Feed `run_steps` one step at a time over the shared state; returns the
    pass's wall time and each step's time, timed from outside.

    With `costs`, each step's time is divided by the reference loop's time
    around it (the mean of the reference timings just before and just after
    the step's stretch of steps); the reference runs outside the step
    timings."""
    times, owed = [], []
    ref_before = reference_seconds() if costs else None
    ref_at = time.perf_counter()
    started = time.perf_counter()
    for i, step in enumerate(steps):
        if tracer is not None:
            tracer.rid = i
        if costs and owed and time.perf_counter() - ref_at >= REF_EVERY:
            ref_before = settle(times, owed, ref_before)
            ref_at = time.perf_counter()
        t = time.perf_counter()
        run.cli.run_steps(state, [step], out)
        times.append(time.perf_counter() - t)
        if costs:
            owed.append(i)
    if costs:
        settle(times, owed, ref_before)
    return time.perf_counter() - started, times


def settle(times, owed, ref_before) -> float:
    """Turn the owed steps' times into costs; returns the new reference time."""
    ref_after = reference_seconds()
    ref = (ref_before + ref_after) / 2
    for i in owed:
        times[i] /= ref
    owed.clear()
    return ref_after


def plain(run: Run, seconds: float):
    setup = []
    state, steps, n_commands = run.load()
    is_command = [kind == "command" for kind, _ in steps]
    passes, walls, rss_mb = [], [], []

    def run_pass(_):
        out = StringIO()
        wall, costs = step_pass(run, state, steps, out, costs=True)
        if not rss_mb:
            # Before the gate parses the output; later passes repeat the same work.
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        passes.append(costs)
        walls.append(wall)
        run.check(out.getvalue(), state, n_commands)
        return wall

    def before_pass():
        if want_setup(setup):
            setup.append(setup_seconds(run.text))

    timed_passes(seconds, ("plain",), run_pass, before_pass)
    while len(setup) < SETUP_MIN_REPS:
        setup.append(setup_seconds(run.text))
    # Each step's cost is its median over the passes.  Costs, not seconds:
    # other tenants of the machine slow gaql's kind of work by up to 2x for
    # stretches of up to minutes, and the reference loop slows with it.
    cost = [statistics.median(samples) for samples in zip(*passes)]
    commands = [c for c, command in zip(cost, is_command) if command]
    tail_cost, level = tail(commands)
    samples = f"{n_commands} commands, each the median of {len(passes)} passes"
    metrics = {
        "setup_s": (min(setup), "s"),
        "run_cost": (sum(cost), "ref"),
        "cmd_p50_cost": (statistics.median(commands), "ref"),
        "cmd_tail_cost": (tail_cost, "ref"),
        "peak_rss_mb": (rss_mb[0], "MB"),
    }
    notes = {
        "setup_s": f"fastest of {len(setup)} fresh interpreters",
        "run_cost": f"sum over the task's {len(steps)} steps of each step's median of {len(passes)} passes; "
                    f"pass wall time with the reference loops {min(walls):.4f} s fastest, {statistics.median(walls):.4f} s median",
        "cmd_p50_cost": samples,
        "cmd_tail_cost": f"level {level}, {samples}",
        "peak_rss_mb": "this process, after the first pass, before its gate",
    }
    return metrics, notes


def traced(run: Run, seconds: float, spans_path: Path):
    state, steps, n_commands = run.load()
    plain_runs, traced_runs, layers = [], [], []
    last_tracer = []

    def run_pass(kind):
        out = StringIO()
        if kind == "plain":
            wall, _ = step_pass(run, state, steps, out)
            plain_runs.append(wall)
            run.check(out.getvalue(), state, n_commands)
            return wall
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            tstate, tsteps, _ = run.load()
            load_s = time.perf_counter() - t0
            wall, _ = step_pass(run, tstate, tsteps, out, tracer)
        output = out.getvalue()
        run.check(output, tstate, n_commands)
        for where in tracer.missed:
            run.fail(f"not traced: {where} still holds an unwrapped function")
        accounted = tracer.self_time_total()
        if abs(accounted - (load_s + wall)) > SELF_TIME_TOLERANCE * (load_s + wall):
            run.fail(f"span self times sum to {accounted:.4f} s, traced load+run took {load_s + wall:.4f} s")
        m = tracer.metrics()
        m["cli.records"] = output.count("\n")
        m["cli.out_bytes"] = sum(len(line) + 1 for line in gate.canonical_lines(gate.records(output)))
        layers.append(m)
        traced_runs.append(wall)
        last_tracer[:] = [(tracer, t0)]
        return load_s + wall

    timed_passes(seconds, ("plain", "traced"), run_pass)
    WORK_DIR.mkdir(exist_ok=True)
    tracer, t0 = last_tracer[0]
    tracer.dump(spans_path, t0)
    metrics = {
        name: (statistics.median(m.get(name, 0) for m in layers), unit)
        for name, unit in PER_LAYER.items() if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (min(traced_runs) - min(plain_runs), "s")
    notes = {
        "trace.overhead_s": f"traced pass {min(traced_runs):.4f} s (fastest of {len(traced_runs)} passes) "
                            f"- untraced pass {min(plain_runs):.4f} s (fastest of {len(plain_runs)} passes)",
        "spans": f"{len(tracer.spans)} spans in the last traced pass, written to {spans_path}",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced instance (smoke test); no pinned digests")
    args = parser.parse_args(argv)
    if not (SRC / "gaql" / "__init__.py").is_file():
        print(f"bench: no gaql sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GAQL_DEFAULT_BOUND", None)
    sys.path.insert(0, str(SRC))
    from gaql import cli, groebner

    groebner.set_basis_verification(False)
    variant = None if args.small else args.seed % workloads.VARIANTS
    run = Run(cli, args.workload, variant, workloads.generate(args.workload, args.seed, args.small))
    if args.trace:
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, notes = traced(run, args.seconds, spans_path)
    else:
        metrics, notes = plain(run, args.seconds)
    print(f"# {args.workload} seed {args.seed} (variant {variant}), trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:42s} {value:>16.6f} {unit:6s}" + (f"  {note}" if note else ""))
    for name in notes.keys() - metrics.keys():
        print(f"{name}: {notes[name]}")
    print(f"failed_ratio {run.failed}/{run.attempted}")
    for error in run.errors:
        print(f"GATE FAILED: {error}")
    result = run.result({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
