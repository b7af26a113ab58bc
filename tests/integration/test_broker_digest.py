"""Brokered trials, pinned byte for byte.

The broker ablation (Section III-A) is the only path besides the
generators that feeds the driver queues, so its bytes get their own
golden: one short seeded trial per case below, each hashed over its
sink table (every float by ``float.hex``), latency summaries, ingest
rate and diagnostics.  The cases cover every engine, the join, a broker
that caps the SUT, the two ``REPARTITION_FRACTION`` edges (one of the
two hops empty) and a disordered stream; a case that needs other broker
characteristics patches the constants of :mod:`repro.core.broker`.
Regenerate after an *intentional* change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_broker_digest.py
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.batch import RecordBlock
from repro.core import broker
from repro.core.broker import BrokerStage
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.queues import DriverQueue
from repro.sim.failures import ConnectionDropped
from repro.sim.simulator import Simulator
from repro.workloads.disorder import DisorderSpec
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "golden" / "broker_trials.json"
)
WINDOW = WindowSpec(4.0, 2.0)


def brokered(engine="flink", query=None, profile=30_000.0, generator=None,
             **constants):
    """One case: its spec and the broker constants it runs under."""
    return ExperimentSpec(
        engine=engine,
        query=query or WindowedAggregationQuery(window=WINDOW),
        workers=2,
        profile=profile,
        duration_s=15.0,
        seed=23,
        generator=generator or GeneratorConfig(instances=2),
        monitor_resources=False,
        keep_outputs=True,
        broker=True,
    ), constants


CASES = {
    **{
        f"{engine}_agg": brokered(engine)
        for engine in ("flink", "storm", "spark", "samza", "heron")
    },
    "flink_join_persist": brokered(
        query=WindowedJoinQuery(window=WINDOW), PERSISTENCE_DELAY_S=0.2
    ),
    "flink_capped": brokered(
        profile=100_000.0, FORWARD_CAPACITY_EVENTS_PER_S=50_000.0
    ),
    "flink_direct_only": brokered(REPARTITION_FRACTION=0.0),
    "flink_rerouted_only": brokered(REPARTITION_FRACTION=1.0),
    "storm_disorder": brokered(
        "storm",
        generator=GeneratorConfig(
            instances=2, disorder=DisorderSpec(fraction=0.2, max_delay_s=1.0)
        ),
    ),
}


def trial_digest(result) -> str:
    outputs = [
        [o.key, float(o.value).hex(), float(o.weight).hex(),
         float(o.event_time).hex(), float(o.processing_time).hex(),
         float(o.emit_time).hex(), float(o.window_end).hex()]
        for o in result.collector.outputs
    ]
    stats = {
        "failure": result.failure,
        "outputs": outputs,
        "event_latency": result.event_latency.to_dict(),
        "processing_latency": result.processing_latency.to_dict(),
        "mean_ingest_rate": float(result.mean_ingest_rate).hex(),
        "diagnostics": {
            key: float(value).hex()
            for key, value in sorted(result.diagnostics.items())
        },
    }
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(spec, constants) -> str:
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(broker, name, value)
        return trial_digest(run_experiment(spec))


def test_brokered_trials_match_goldens():
    actual = {name: run_case(*case) for name, case in CASES.items()}
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated goldens at {GOLDEN_PATH}")
    assert actual == json.loads(GOLDEN_PATH.read_text())


def test_overflow_admits_a_prefix_and_forwarded_weight_counts_it(
    monkeypatch,
):
    """A downstream overflow admits the cohorts that fit; the broker's
    ``forwarded_weight`` ledger agrees with what the queue took."""
    monkeypatch.setattr(broker, "FORWARD_CAPACITY_EVENTS_PER_S", 1e6)
    monkeypatch.setattr(broker, "PERSISTENCE_DELAY_S", 0.1)
    monkeypatch.setattr(broker, "REPARTITION_FRACTION", 0.0)
    sim = Simulator()
    downstream = DriverQueue("q", capacity_weight=10.0)
    stage = BrokerStage(sim, downstream)
    stage.push_block(
        RecordBlock(np.arange(4), np.array([3.0, 4.0, 5.0, 6.0]), 1.0, 0.0,
                    "purchases"),
        at_time=0.0,
    )
    with pytest.raises(ConnectionDropped, match="overflowed"):
        sim.run_until(1.0)
    assert downstream.pushed_weight == 7.0  # cohorts 0 and 1 fit
    assert stage.forwarded_weight == downstream.pushed_weight
