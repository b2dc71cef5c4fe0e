"""Checks of the benchmark itself, kept out of the repository's test suite:

    python -m pytest benchmarks -q

Each workload runs one traced deck in a fresh interpreter.  Every per-layer
counter must be non-zero on the workloads that should exercise it and
exactly zero on those that bypass it (tracer.LAYER_METRICS), and every
oracle must hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_results():
    out = {}
    for workload in workloads.WORKLOADS:
        done = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        out[workload] = json.loads(done.stdout.splitlines()[-1])
    return out


def test_spec_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_predictions_hold(traced_results, workload):
    result = traced_results[workload]
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == {m.name for m in tracing.LAYER_METRICS}
    silent = [m.name for m in tracing.LAYER_METRICS if workload in m.on and not values[m.name] > 0]
    leaked = [m.name for m in tracing.LAYER_METRICS if workload in m.zero_on and values[m.name] != 0]
    assert not silent, f"not exercised on {workload}: {silent}"
    assert not leaked, f"predicted zero on {workload}: {leaked}"


def test_untraced_run_reports_every_end_to_end_metric():
    done = run_benchmark("--workload", "q-symbols", "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_install_reaches_every_namespace_and_uninstall_restores_it():
    modules = [m for n, m in sys.modules.items() if n == "k2sym" or n.startswith("k2sym.")]

    def snapshot():
        return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {id(before[(f"k2sym.{mod}", attr)])
                     for mod, attrs in tracing.TRACED.items() for attr in attrs if "." not in attr}
        assert not [key for key, v in snapshot().items() if id(v) in originals]
        from k2sym import funcfield, quadforms

        assert funcfield.poly_factor.__wrapped__ is before[("k2sym.arith", "poly_factor")]
        assert quadforms.factorize.__wrapped__ is before[("k2sym.arith", "factorize")]
    finally:
        tracer.uninstall()
    assert snapshot() == before


def test_negative_fractions_need_the_separator():
    assert workloads.run_cli(["qform", "1", "-3/2"]) == (2, "")
    code, text = workloads.run_cli(workloads.with_separator(["qform"], ["1", "-3/2"]))
    assert code == 0 and json.loads(text)["status"] == "ok"


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "q-symbols", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
