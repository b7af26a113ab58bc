"""One emitted weights column per (catalog, weight), fleet-wide.

``KeyDistribution.column(weight)`` computes ``weight * masses`` once and
hands the same read-only array to every generator instance that emits
that weight.  Each trial here runs twice: as it is, and with ``column``
replaced by the code it stands for -- a fresh product per call, frozen
read-only, the column every instance used to build for itself.  The
products are the same doubles, so everything the trial measured must be
equal: every latency sample by ``float.hex``, every diagnostic, and the
ledgers of every driver queue and window store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoscale.policy import AutoscaleSpec
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig, build_generator_fleet
from repro.core.queues import DriverQueue
from repro.engines.operators.window import KeyedWindowStore
from repro.faults.schedule import FaultSchedule, GeneratorCrash
from repro.sim.simulator import Simulator
from repro.workloads.disorder import DisorderSpec
from repro.workloads.keys import (
    COLUMN_CACHE_SIZE,
    KeyDistribution,
    UniformKeys,
)
from repro.workloads.profiles import ConstantRate, DiurnalRate
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

WINDOW = WindowSpec(8.0, 4.0)


def cases():
    """Fresh specs (and so fresh key distributions, with empty column
    caches) on every call."""
    return {
        "flink_join_4096_keys": ExperimentSpec(
            engine="flink",
            query=WindowedJoinQuery(window=WINDOW, keys=UniformKeys(4096)),
            workers=2,
            profile=0.3e6,
            duration_s=20.0,
            seed=17,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
        ),
        "diurnal_elasticity": ExperimentSpec(
            engine="flink",
            query=WindowedAggregationQuery(window=WINDOW),
            workers=1,
            profile=DiurnalRate(low=0.1e6, high=0.5e6, period_s=40.0),
            duration_s=40.0,
            seed=18,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
            autoscale=AutoscaleSpec(policy="threshold", max_workers=4),
        ),
        "disorder_join": ExperimentSpec(
            engine="storm",
            query=WindowedJoinQuery(window=WINDOW),
            workers=2,
            profile=0.2e6,
            duration_s=30.0,
            seed=5,
            generator=GeneratorConfig(
                instances=2,
                disorder=DisorderSpec(fraction=0.2, max_delay_s=2.0),
            ),
            monitor_resources=False,
        ),
        "generator_crash": ExperimentSpec(
            engine="flink",
            query=WindowedAggregationQuery(window=WINDOW),
            workers=2,
            profile=0.2e6,
            duration_s=40.0,
            seed=9,
            generator=GeneratorConfig(instances=4),
            monitor_resources=False,
            faults=FaultSchedule((GeneratorCrash(at_s=15.0, instance=1),)),
        ),
    }


def fresh_column(self: KeyDistribution, weight: float) -> np.ndarray:
    """The reference: a new read-only ``weight * masses`` per call."""
    emitted = weight * self.support()[1]
    emitted.flags.writeable = False
    return emitted


def hexed(values) -> list:
    return [float(value).hex() for value in values]


def ledger(obj) -> dict:
    """Every number an object holds, floats as hex."""
    return {
        name: value if isinstance(value, (bool, int)) else value.hex()
        for name, value in sorted(vars(obj).items())
        if isinstance(value, (bool, int, float))
    }


def observe(spec: ExperimentSpec) -> dict:
    made = {DriverQueue: [], KeyedWindowStore: []}
    with pytest.MonkeyPatch.context() as patch:
        for cls in made:
            init = cls.__init__

            def recording(self, *args, _init=init, _cls=cls, **kwargs):
                _init(self, *args, **kwargs)
                made[_cls].append(self)

            patch.setattr(cls, "__init__", recording)
        result = run_experiment(spec)
    series = result.collector.series()
    return {
        "failure": result.failure,
        "latency": (hexed(series.times), hexed(series.values)),
        "diagnostics": {
            key: float(value).hex()
            for key, value in sorted(result.diagnostics.items())
        },
        "queues": [ledger(queue) for queue in made[DriverQueue]],
        "stores": [ledger(store) for store in made[KeyedWindowStore]],
    }


@pytest.mark.parametrize("case", sorted(cases()))
def test_shared_columns_equal_a_column_per_call(case, monkeypatch):
    shared = observe(cases()[case])
    monkeypatch.setattr(KeyDistribution, "column", fresh_column)
    per_call = observe(cases()[case])
    assert shared["failure"] is None
    assert len(shared["latency"][0]) > 0
    assert shared["queues"] and shared["stores"]
    assert shared == per_call


def emitted_columns(query, shares):
    """The weights arrays one tick of a fleet pushes, by instance."""
    sim = Simulator()
    fleet = build_generator_fleet(
        sim,
        ConstantRate(0.2e6),
        query,
        [np.random.default_rng(i) for i in range(len(shares))],
        GeneratorConfig(instances=len(shares)),
        horizon_s=10.0,
    )
    pushed = {id(g.queue): [] for g in fleet}
    for generator, share in zip(fleet, shares):
        generator.set_share(share)
        push = generator.queue.push_block

        def recording(block, at_time, _push=push, _q=id(generator.queue)):
            pushed[_q].append(block.weights)
            _push(block, at_time=at_time)

        generator.queue.push_block = recording
        generator.start()
    sim.run_until(0.0)
    return [pushed[id(g.queue)] for g in fleet]


def test_equal_shares_emit_one_object():
    query = WindowedJoinQuery(window=WINDOW, keys=UniformKeys(64))
    (a_purchases, a_ads), (b_purchases, b_ads) = emitted_columns(
        query, [0.5, 0.5]
    )
    # Both instances, and at a purchases share of one half both streams.
    assert a_purchases is b_purchases is a_ads is b_ads
    assert not a_purchases.flags.writeable


def test_different_weights_emit_different_objects():
    query = WindowedAggregationQuery(window=WINDOW, keys=UniformKeys(64))
    (a,), (b,) = emitted_columns(query, [0.25, 0.75])
    assert a is not b
    assert not np.array_equal(a, b)


def test_the_cache_is_bounded_and_answers_by_weight():
    keys = UniformKeys(8)
    first = keys.column(2.0)
    assert keys.column(2.0) is first
    assert keys.column(2.0).tobytes() == fresh_column(keys, 2.0).tobytes()
    for weight in range(3, 3 + COLUMN_CACHE_SIZE):
        keys.column(float(weight))
    assert len(keys._columns) == COLUMN_CACHE_SIZE
    again = keys.column(2.0)
    assert again is not first
    assert again.tobytes() == first.tobytes()
