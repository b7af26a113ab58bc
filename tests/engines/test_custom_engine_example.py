"""``examples/custom_engine.py`` runs: a declared engine on the base pipeline."""

import importlib.util
import pathlib

from repro.engines import ENGINES

EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "custom_engine.py"
)


def load_example():
    spec = importlib.util.spec_from_file_location("custom_engine", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipey_runs_on_the_base_pipeline(monkeypatch):
    example = load_example()
    monkeypatch.setitem(ENGINES, "pipey", example.PipeyEngine)
    result = example.benchmark("pipey", duration_s=20.0)
    assert not result.failed
    assert result.diagnostics["windows_emitted"] > 0
    assert result.event_latency.count > 0
