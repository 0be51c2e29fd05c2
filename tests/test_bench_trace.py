"""The benchmark's tracer still finds every library function it wraps, so a
refactor cannot silently drop one of its per-layer metrics."""

import importlib
from pathlib import Path


def test_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer = importlib.import_module("bench.trace").Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
