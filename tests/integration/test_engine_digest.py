"""Direct engine trials, pinned byte for byte, three hashes per case.

Each engine's window pipeline -- ingest, store, close, emit delay,
sink -- is pinned here on short seeded trials fed straight from the
generators (no broker).  Every case stores three separate hashes so a
change shows where it landed:

- ``sink``: the failure message and the output table, every float by
  ``float.hex``;
- ``latency``: the event- and processing-time latency summaries plus
  the mean ingest rate;
- ``diagnostics``: the engine's full diagnostics.

A diagnostics-only change (a new counter, a ledger term) moves one
hash and leaves the other two alone.  The cases cover both queries on
every engine, disorder with and without allowed lateness, Storm's
spillable state, Spark's inverse reduce, four-worker clusters, the two
modelled stalls (Storm's naive join beyond two workers, Flink's skewed
join), every engine given a plain :class:`EngineConfig`, and Storm and
Heron at the paper's rate (0.3 M ev/s, 120 s, two seeds), overloaded
(1.6 M ev/s, 40 s) and under it (Storm at 0.2 M ev/s, 120 s).
Regenerate after an *intentional* change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_engine_digest.py
"""

import hashlib
import json
import os
import pathlib

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.base import EngineConfig
from repro.engines.ext.samza import SamzaConfig
from repro.engines.flink import FlinkConfig
from repro.engines.spark import SparkConfig
from repro.engines.storm import StormConfig
from repro.workloads.disorder import DisorderSpec
from repro.workloads.keys import SingleKey
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "golden" / "engine_trials.json"
)
ENGINES = ("flink", "storm", "spark", "samza", "heron")
WINDOW = WindowSpec(4.0, 2.0)
AGG = WindowedAggregationQuery(window=WINDOW)
JOIN = WindowedJoinQuery(window=WINDOW)
PAPER_WINDOW = WindowSpec(8.0, 4.0)
PAPER_AGG = WindowedAggregationQuery(window=PAPER_WINDOW)
PAPER_JOIN = WindowedJoinQuery(window=PAPER_WINDOW)
DISORDER = GeneratorConfig(
    instances=2, disorder=DisorderSpec(fraction=0.2, max_delay_s=2.0)
)


def trial(engine, query=AGG, workers=2, profile=30_000.0, duration_s=20.0,
          **overrides) -> ExperimentSpec:
    fields = dict(
        engine=engine,
        query=query,
        workers=workers,
        profile=profile,
        duration_s=duration_s,
        seed=29,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        keep_outputs=True,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


CASES = {
    **{f"{engine}_agg": trial(engine) for engine in ENGINES},
    **{f"{engine}_join": trial(engine, JOIN) for engine in ENGINES},
    "flink_disorder_lateness": trial(
        "flink", generator=DISORDER,
        engine_config=FlinkConfig(allowed_lateness_s=1.0),
    ),
    "storm_disorder_lateness": trial(
        "storm", generator=DISORDER,
        engine_config=StormConfig(allowed_lateness_s=1.0),
    ),
    "spark_disorder_lateness": trial(
        "spark", generator=DISORDER,
        engine_config=SparkConfig(allowed_lateness_s=1.0),
    ),
    "samza_disorder": trial("samza", generator=DISORDER),
    "samza_join_disorder_lateness": trial(
        "samza", JOIN, generator=DISORDER,
        engine_config=SamzaConfig(allowed_lateness_s=1.0),
    ),
    "storm_advanced_state": trial(
        "storm", engine_config=StormConfig(advanced_state=True)
    ),
    "spark_inverse_reduce": trial(
        "spark", engine_config=SparkConfig(inverse_reduce=True)
    ),
    "storm_agg_w4": trial("storm", workers=4),
    "flink_agg_w4": trial("flink", workers=4),
    "storm_naive_join_stall": trial(
        "storm", JOIN, workers=4, profile=0.2e6, duration_s=60.0
    ),
    "flink_skewed_join_stall": trial(
        "flink",
        WindowedJoinQuery(window=WINDOW, keys=SingleKey()),
        profile=0.6e6,
        duration_s=120.0,
    ),
    **{
        f"{engine}_plain_config": trial(
            engine,
            engine_config=EngineConfig(
                gc_rate_per_s=0.0, emit_jitter_sigma=0.0
            ),
        )
        for engine in ENGINES
    },
    # Paper-rate cells, shaped like the perf benchmark's agg_steady
    # trials: long and fast enough for Storm's in-flight watermark bound
    # to move latency.
    **{
        f"{engine}_{name}_paper_s{seed}": trial(
            engine, query, profile=0.3e6, duration_s=120.0, seed=seed
        )
        for engine in ("storm", "heron")
        for name, query in (("agg", PAPER_AGG), ("join", PAPER_JOIN))
        for seed in (17, 31)
    },
    # Storm's in-flight bound where it drains slowest: overloaded (the
    # ceiling probe of a search) and, on the non-monotone search cell,
    # under it; Heron as the control.
    **{
        f"{engine}_agg_{rate // 1000}k_s{seed}": trial(
            engine, PAPER_AGG, profile=float(rate), duration_s=duration_s,
            seed=seed,
        )
        for engine, rate, duration_s, seed in (
            ("storm", 1_600_000, 40.0, 17),
            ("storm", 1_600_000, 40.0, 31),
            ("storm", 200_000, 120.0, 31),
            ("heron", 1_600_000, 40.0, 17),
        )
    },
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_digest(result) -> dict:
    outputs = [
        [o.key, float(o.value).hex(), float(o.weight).hex(),
         float(o.event_time).hex(), float(o.processing_time).hex(),
         float(o.emit_time).hex(), float(o.window_end).hex()]
        for o in result.collector.outputs
    ]
    return {
        "sink": _sha({"failure": result.failure, "outputs": outputs}),
        "latency": _sha({
            "event_latency": result.event_latency.to_dict(),
            "processing_latency": result.processing_latency.to_dict(),
            "mean_ingest_rate": float(result.mean_ingest_rate).hex(),
        }),
        "diagnostics": _sha({
            key: float(value).hex()
            for key, value in sorted(result.diagnostics.items())
        }),
    }


def test_engine_trials_match_goldens():
    actual = {
        name: trial_digest(run_experiment(spec))
        for name, spec in CASES.items()
    }
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated goldens at {GOLDEN_PATH}")
    assert actual == json.loads(GOLDEN_PATH.read_text())
