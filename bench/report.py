"""Run every workload in fresh processes and report each metric with its spread.

    python3 bench/report.py                          # every end-to-end metric, one run per workload
    python3 bench/report.py --runs 10 --sets 2       # steadiness self-check
    python3 bench/report.py --trace                  # every per-layer metric
    python3 bench/report.py --runs 10 --save bench/baseline.json

Each run is `python3 bench/run.py` with its own seed; run i of set s uses
seed 1 + s * runs + i, so the two sets see different inputs.  For
each workload and metric the report prints, per set, the median and the
spread (distance between the first and third quartile as a share of the
median), and the drift of the last set's median from the first's, in either
direction.  Runs take BENCHMARK.json's run_seconds, workloads and bounds.
The exit code is 1 if any run fails or its gate fails, or if a spread or
the size of a drift exceeds the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"FAILED {workload} seed {seed} (exit {proc.returncode})\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        return None
    return result


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="report the per-layer metrics")
    parser.add_argument("--save", type=Path, help="write every value and summary as JSON")
    args = parser.parse_args(argv)

    specs = {m["name"]: m for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]
    status = 0
    saved = {}
    for workload in names:
        values = {name: [[] for _ in range(args.sets)] for name in specs}
        for s in range(args.sets):
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result = one_run(workload, seed, args.trace)
                if result is None:
                    status = 1
                    continue
                for name in specs:
                    values[name][s].append(result["metrics"][name]["value"])
                print(f"  {workload} set {s + 1} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{workload}")
        saved[workload] = {}
        for name, spec in specs.items():
            sets = [v for v in values[name] if v]
            if not sets:
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            bound = spec.get("bound")
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (medians[-1] - medians[0]) / medians[0] if medians[0] else 0.0
            flags = []
            if bound is not None and max(spreads) > bound:
                flags.append("SPREAD")
            if bound is not None and abs(drift) > bound:
                flags.append("DRIFT")
            if flags:
                status = 1
            cells = "  ".join(f"{m:12.6g} ±{sp:6.1%}" for m, sp in zip(medians, spreads))
            print(f"  {name:42s} {spec['unit']:6s} {cells}  drift {drift:+6.1%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + (f"  {' '.join(flags)}" if flags else "")
                  + f"  (n={sum(map(len, sets))})")
            saved[workload][name] = {"unit": spec["unit"], "median": medians[0], "spread": spreads[0],
                                     "values": sets}
    if args.save:
        args.save.write_text(json.dumps({"machine": machine(), "seconds": SPEC["run_seconds"], "workloads": saved}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
