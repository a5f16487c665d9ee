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


def test_traced_hybrid_pc_run_has_no_failures(tmp_path):
    """A short traced run of ``hybrid-pc-rhs``: traced and untraced
    applies give bit-identical solutions, the per-unit counts repeat,
    and every residual and error check passes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py"), "--workload", "hybrid-pc-rhs",
         "--seed", "1", "--mode", "trace", "--seconds", "0.5",
         "--trace-out", str(tmp_path / "t.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == [] and result["failed"] == 0
    assert result["attempted"] >= 4
