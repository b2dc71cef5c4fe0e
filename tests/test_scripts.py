"""Smoke test for the scripts in scripts/: each runs to completion on small
arguments in a fresh interpreter, with the package on PYTHONPATH."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SMALL_ARGS = {
    "cli_digest.py": ["--seeds", "0"],
    "reciprocity_survey.py": ["--trials", "20"],
    "trace_survey.py": ["--primes", "5"],
    "regulator_demo.py": ["--steps", "4"],
    "mutants.py": ["--check"],
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("script", sorted(SMALL_ARGS))
def test_script_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *SMALL_ARGS[script]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_digest_fingerprints_the_library_decks():
    # the q-symbols and ff decks call the library, and two interpreters
    # print the same digests: the reprs of the results hold no addresses
    argv = [sys.executable, str(ROOT / "scripts" / "cli_digest.py"),
            "--workload", "q-symbols", "ff-prime", "ff-prime-power"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stdout + done.stderr
    lines = runs[0].stdout.splitlines()
    assert [line for line in lines if line.startswith("workload")] == [
        "workload q-symbols", "workload ff-prime", "workload ff-prime-power"]
    assert [line.split()[1:] for line in lines if line.endswith("overall")] == [
        ["24", "overall"], ["32", "overall"], ["32", "overall"]]
    assert any(line.endswith("lift_roundtrip") for line in lines)
    assert any(line.endswith("weil_check q=25") for line in lines)
    assert runs[1].stdout == runs[0].stdout


def test_one_mutant_is_killed():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), "legendre-euler"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "killed    legendre-euler" in done.stdout


def test_a_mutant_that_hangs_its_nodes_reads_killed(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import mutants
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    m = mutants.CATALOGUE[0]
    source = tmp_path / "src" / "k2sym" / m.path
    source.parent.mkdir(parents=True)
    source.write_text(f"before\n{m.old}\nafter\n")
    seen = {}

    def hang(argv, **kwargs):
        seen["mutated"] = m.new in source.read_text()
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", hang)
    assert mutants.run_mutant(m, tmp_path, timeout=0.5) == "killed (timeout)"
    assert seen["mutated"]
    assert source.read_text() == f"before\n{m.old}\nafter\n"
