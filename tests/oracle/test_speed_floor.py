"""Nobody re-introduced a per-cohort Python loop on the engine data path.

The production engines must stay well ahead of the record-at-a-time
oracle engines on the three shapes whose hot loops differ: Flink's
store adds on 500-key blocks, Storm's in-flight drain and tick-min
countdown on 4096-key blocks (a loop the Flink shape never enters), and
the two-stream join, where every block crosses the store ledgers once
per side.  A quiet machine measures 18x / 25x / 51x; the floors leave
at least a factor of two for shared CI runners.  Identity of the two
runs is ``tests/engines/test_vector_identity.py``'s job, not this
test's.
"""

from __future__ import annotations

import time

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

from tests.oracle import oracle_engines


def trial_seconds(spec: ExperimentSpec, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_experiment(spec)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
@pytest.mark.parametrize(
    "engine, query_cls, keys, rate, events, floor",
    [
        ("flink", WindowedAggregationQuery, 500, 20_000.0, 100_000, 3.0),
        ("storm", WindowedAggregationQuery, 4096, 300_000.0, 3_000_000, 8.0),
        ("flink", WindowedJoinQuery, 4096, 300_000.0, 3_000_000, 25.0),
    ],
    ids=["flink-agg-500", "storm-agg-4096", "flink-join-4096"],
)
def test_production_outruns_the_oracle(
    engine, query_cls, keys, rate, events, floor
):
    spec = ExperimentSpec(
        engine=engine,
        query=query_cls(window=WindowSpec(8.0, 4.0), keys=UniformKeys(keys)),
        workers=2,
        profile=rate,
        duration_s=events / rate,
        seed=4242,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    production = trial_seconds(spec, repeats=3)
    with oracle_engines():
        oracle = trial_seconds(spec, repeats=1)
    assert oracle / production >= floor, (
        f"{engine}: production {production:.3f} s, oracle {oracle:.3f} s "
        f"= {oracle / production:.1f}x, floor {floor}x"
    )
