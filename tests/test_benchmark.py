"""The traced benchmark still reaches the library: each function that
``benchmark/tracer.py`` covers exists, and every call to it made by the
worker's self-check cases goes through the tracer's wrapper."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_self_check_covers_every_call(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import tracer
    import worker

    assert tracer.self_check(worker.tiny_cases) == []
