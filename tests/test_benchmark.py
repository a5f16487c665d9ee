"""The traced benchmark still reaches the library: each function that
``benchmark/tracer.py`` covers exists, and every call to it made by the
worker's self-check cases goes through the tracer's wrapper."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_self_check_covers_every_call(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import tracer
    import worker

    assert tracer.self_check(worker.tiny_cases) == []


def traced_run(workload, tmp_path):
    """The result line of a 0.5-s traced worker run of ``workload``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py"), "--workload", workload,
         "--seed", "1", "--mode", "trace", "--seconds", "0.5",
         "--trace-out", str(tmp_path / "t.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_hybrid_pc_run_has_no_failures(tmp_path):
    """A short traced run of ``hybrid-pc-rhs``: traced and untraced
    applies give bit-identical solutions, the per-unit counts repeat,
    and every residual and error check passes."""
    result = traced_run("hybrid-pc-rhs", tmp_path)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["attempted"] >= 4


def test_traced_convergence_run_has_no_failures(tmp_path):
    """A short traced run of ``converge-mixed-k2``: traced and untraced
    one-shot condensed solves give bit-identical errors, the per-unit
    counts repeat, and every rate and reference check passes."""
    result = traced_run("converge-mixed-k2", tmp_path)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["attempted"] >= 2


def test_traced_primal_run_has_no_failures(tmp_path):
    """A short traced run of ``converge-cg-k1``: traced and untraced
    primal solves give bit-identical errors, the per-unit counts repeat,
    and every rate and reference check passes."""
    result = traced_run("converge-cg-k1", tmp_path)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["attempted"] >= 2
