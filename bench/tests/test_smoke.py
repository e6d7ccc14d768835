"""Smoke test of the benchmark harness on small seeded instances.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from gaql import cli  # noqa: E402


def bench_run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_reports_every_metric(workload, trace):
    proc = bench_run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in specs} == set(result["metrics"])
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5 + workloads.VARIANTS)


def _small_probe_grid():
    state, steps = cli.load_task(cli.parse_task_text(workloads.generate("probe-grid", 3, small=True)))
    out = StringIO()
    cli.run_steps(state, steps, out)
    return state, sum(kind == "command" for kind, _ in steps), out.getvalue()


def test_gate_accepts_true_and_rejects_tampered_output():
    state, n_commands, output = _small_probe_grid()
    assert gate.check("probe-grid", None, output, state, n_commands) == ([], 0)
    tampered = output.replace('"empty":true', '"empty":false')
    errors, _ = gate.check("probe-grid", None, tampered, state, n_commands)
    assert any("empty fibers" in e for e in errors)
    errors, _ = gate.check("probe-grid", 0, output, state, n_commands)
    assert any("digest" in e for e in errors)


def test_standard_monomial_count():
    # <x^2, y^3> has the 6 standard monomials 1, y, y^2, x, xy, xy^2
    assert gate.standard_monomials(["x^2 - y", "-3/2*y^3 + x"], ["x", "y"]) == 6
    assert gate.standard_monomials(["x^2"], ["x", "y"], cap=50) is None


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench_run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_reports_a_binding_site_it_cannot_wrap(monkeypatch):
    from gaql import geometry, groebner
    from spans import Tracer

    with Tracer().installed() as tracer:
        assert tracer.missed == []
    monkeypatch.setattr(geometry, "BASES", {"gb": groebner.groebner_basis}, raising=False)
    with Tracer().installed() as tracer:
        assert tracer.missed == ["gaql.geometry.BASES['gb']"]
