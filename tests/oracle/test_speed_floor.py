"""Nobody re-introduced a per-cohort Python loop on the engine data path.

The production engines must stay well ahead of the record-at-a-time
oracle engines on the three shapes whose hot loops differ: Flink's
store adds on 500-key blocks, Storm's in-flight drain on 4096-key
blocks (a loop the Flink shape never enters), and the two-stream join,
where every block crosses the store ledgers once per side.  A quiet
machine measures 18x / 25x / 51x; the floors leave at least a factor of
two for shared CI runners.  Identity of the two runs is
``tests/engines/test_vector_identity.py``'s job, not this test's.

The oracle engines close into production's columns, so the close path
has its own floor at unit level: one 4096-key join window pair, closed
and joined from the columns, against expanding the columns into a dict
of accumulators and walking it key by key (what every close did before
closed windows stayed columnar).  A quiet machine measures 7x (3.8x
against a store that held the dict all along and skips the expansion);
what is left on the production side is building the 4096 output tuples.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batch import RecordBlock
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.records import ADS, PURCHASES
from repro.engines.operators.join import (
    ClosedJoinWindow,
    JoinWindowStore,
    join_window_outputs,
)
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

from tests.oracle import oracle_engines
from tests.oracle.kernels import join_window_outputs_by_key
from tests.oracle.stores import DictWindowContents, materialize


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


def full_join_store(keys: int) -> JoinWindowStore:
    store = JoinWindowStore(WindowSpec(4.0, 4.0), keys)
    catalog = np.arange(keys, dtype=np.int64)
    rng = np.random.default_rng(4242)
    for step in range(4):
        for stream in (PURCHASES, ADS):
            store.add_block(
                RecordBlock(
                    catalog, rng.uniform(0.5, 2.0, keys), 2.0,
                    1.0 + 0.5 * step, stream, 1.1 + 0.5 * step,
                )
            )
    return store


def by_key(contents) -> DictWindowContents:
    return DictWindowContents(
        contents.index, contents.end_time, contents.start_time,
        materialize(contents), contents.traces,
    )


@pytest.mark.slow
def test_columnar_close_outruns_the_dict_close():
    def columnar(store):
        return join_window_outputs(store.close(1, at_time=5.0), 0.016, 5.5)

    def expanded(store):
        closed = store.close(1, at_time=5.0)
        return join_window_outputs_by_key(
            ClosedJoinWindow(1, by_key(closed.purchases), by_key(closed.ads)),
            0.016, 5.5,
        )

    seconds = {}
    for close in (columnar, expanded):
        best = float("inf")
        for _ in range(5):
            store = full_join_store(4096)
            start = time.perf_counter()
            outputs = close(store)
            best = min(best, time.perf_counter() - start)
            assert len(outputs) == 4096
        seconds[close] = best
    ratio = seconds[expanded] / seconds[columnar]
    assert ratio >= 3.0, (
        f"columnar close {seconds[columnar] * 1e3:.2f} ms, dict close "
        f"{seconds[expanded] * 1e3:.2f} ms = {ratio:.1f}x, floor 3x"
    )
