"""Storm's window outputs as one event series are the per-output events.

``StormEngine._close_window`` (Heron inherits it) hands a closed
window's outputs to ``Simulator.schedule_series``.  Each trial here runs
twice: as it is, and with ``schedule_series`` replaced by the loop of
``schedule_at`` it stands for -- one event per output, the scheduling
the engine did before.  Everything the trial measured must be equal:
every latency sample and output field by ``float.hex``, every
diagnostic, the sink's ledger, the data plane's ledger, and the number
of ``_emit`` calls.
"""

from __future__ import annotations

import pytest

import repro.engines.ext  # noqa: F401  (registers heron)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.base import StreamingEngine
from repro.engines.operators.sink import Sink
from repro.sim.network import DataPlane
from repro.sim.simulator import Simulator
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

from tests.sim.test_schedule_series import reference_series

WINDOW = WindowSpec(8.0, 4.0)
CASES = {
    "storm_4096_keys": ExperimentSpec(
        engine="storm",
        query=WindowedAggregationQuery(window=WINDOW, keys=UniformKeys(4096)),
        workers=2,
        profile=0.3e6,
        duration_s=30.0,
        seed=17,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        keep_outputs=True,
    ),
    "heron": ExperimentSpec(
        engine="heron",
        query=WindowedAggregationQuery(window=WINDOW),
        workers=2,
        profile=0.3e6,
        duration_s=40.0,
        seed=18,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        keep_outputs=True,
    ),
}


def hexed(values) -> list:
    return [float(value).hex() for value in values]


def observe(spec: ExperimentSpec) -> dict:
    """Run ``spec``; everything the trial measured, floats as hex."""
    made = {"sink": [], "plane": []}
    emits = [0]
    emit = StreamingEngine._emit

    def counting(self, outputs):
        emits[0] += 1
        emit(self, outputs)

    with pytest.MonkeyPatch.context() as patch:
        for cls, kind in ((Sink, "sink"), (DataPlane, "plane")):
            init = cls.__init__

            def recording(self, *args, _init=init, _kind=kind, **kwargs):
                _init(self, *args, **kwargs)
                made[_kind].append(self)

            patch.setattr(cls, "__init__", recording)
        patch.setattr(StreamingEngine, "_emit", counting)
        result = run_experiment(spec)
    series = result.collector.series()
    (sink,), (plane,) = made["sink"], made["plane"]
    return {
        "failure": result.failure,
        "emits": emits[0],
        "latency": (hexed(series.times), hexed(series.values)),
        "outputs": [
            (o.key, *hexed((o.value, o.weight, o.event_time,
                            o.processing_time, o.emit_time, o.window_end)))
            for o in result.collector.outputs
        ],
        "diagnostics": {
            key: float(value).hex()
            for key, value in sorted(result.diagnostics.items())
        },
        "sink": (sink.emitted_tuples, *hexed((sink.emitted_weight,
                                               sink.emitted_bytes))),
        "plane": {
            name: value if isinstance(value, int) else float(value).hex()
            for name, value in sorted(vars(plane).items())
            if name != "_sim"
        },
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_series_trial_equals_per_output_events(case, monkeypatch):
    spec = CASES[case]
    as_series = observe(spec)
    monkeypatch.setattr(Simulator, "schedule_series", reference_series)
    as_events = observe(spec)
    assert as_series["failure"] is None
    assert as_series["emits"] == len(as_series["outputs"]) > 0
    assert as_series == as_events
