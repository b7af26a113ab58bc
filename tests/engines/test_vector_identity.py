"""Production <-> oracle identity: the columnar tick loop is a bitwise twin.

The engine data path (:mod:`repro.core.batch`, the column stores of
:mod:`repro.engines.operators.window`) expresses the per-record loops
as NumPy column kernels built from *sequential* folds
(``np.add.accumulate``), so the float operations -- and therefore every
downstream ledger, RNG draw, and emission -- happen in exactly the
record-at-a-time order.  These tests run the SAME seeded trial on the
production engines and on the oracle engines (:mod:`tests.oracle`: the
per-record stores and ``_process`` loops that generated the goldens)
and assert the results are identical: sink tables and
conservation/diagnostics ledgers exactly, latency summaries exactly.

Hypothesis sweeps the space the data path touches: engine x query kind
x disorder x faults x degradation shedding.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.faults.schedule import FaultSchedule, NodeCrash, SlowNode
from repro.recovery.degradation import DegradationPolicy
from repro.workloads.disorder import DisorderSpec
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

from tests.oracle import oracle_engines


def run_oracle(spec: ExperimentSpec):
    with oracle_engines():
        return run_experiment(spec)


def sink_table(result) -> Dict[Tuple[float, int], Tuple[float, float]]:
    table: Dict[Tuple[float, int], Tuple[float, float]] = {}
    for out in result.collector.outputs:
        key = (round(out.window_end, 9), out.key)
        value, weight = table.get(key, (0.0, 0.0))
        table[key] = (value + out.value, weight + out.weight)
    return table


def same(a, b) -> bool:
    """Exact equality, with nan == nan."""
    return a == b or (a != a and b != b)


def assert_identical(oracle, production) -> None:
    """Every observable of the two trials agrees exactly."""
    assert oracle.failure == production.failure
    assert same(oracle.failure_time, production.failure_time)

    assert sink_table(oracle) == sink_table(production)

    for kind in ("event_latency", "processing_latency"):
        o_sum, p_sum = getattr(oracle, kind), getattr(production, kind)
        for field in ("count", "weight", "mean", "minimum", "maximum",
                      "p90", "p95", "p99", "std"):
            assert same(getattr(o_sum, field), getattr(p_sum, field)), (
                kind, field,
            )

    o_diag, p_diag = oracle.diagnostics, production.diagnostics
    assert set(o_diag) == set(p_diag)
    for key, value in o_diag.items():
        assert same(value, p_diag[key]), key

    assert same(oracle.mean_ingest_rate, production.mean_ingest_rate)


def identity_spec(
    engine: str,
    query,
    *,
    seed: int = 77,
    duration_s: float = 12.0,
    rate: float = 8_000.0,
    disorder=None,
    faults=None,
    degradation=None,
) -> ExperimentSpec:
    return ExperimentSpec(
        engine=engine,
        query=query,
        workers=2,
        profile=rate,
        duration_s=duration_s,
        seed=seed,
        generator=GeneratorConfig(instances=2, disorder=disorder),
        monitor_resources=False,
        keep_outputs=True,
        faults=faults,
        degradation=degradation,
    )


ENGINES = ("flink", "storm", "spark", "heron", "samza")


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_aggregation_identity(engine):
    spec = identity_spec(engine, WindowedAggregationQuery(WindowSpec(8.0, 4.0)))
    assert_identical(run_oracle(spec), run_experiment(spec))


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_join_identity(engine):
    spec = identity_spec(engine, WindowedJoinQuery(WindowSpec(8.0, 4.0)))
    assert_identical(run_oracle(spec), run_experiment(spec))


@pytest.mark.parametrize(
    "engine, query_cls", [("storm", WindowedAggregationQuery),
                          ("flink", WindowedJoinQuery),
                          ("spark", WindowedAggregationQuery)]
)
def test_deterministic_wide_key_identity(engine, query_cls):
    """4096 uniform keys: whole-catalog blocks, long drained runs, slot
    runs and (Spark) 4096-key partials merged into window state -- the
    benchmark's ``wide_keys`` shape, kept short (the oracle pays per
    cohort)."""
    query = query_cls(WindowSpec(2.0, 1.0), keys=UniformKeys(4096))
    # Spark's first job runs after its 4 s batch: three batches so that
    # windows absorb partials from two of them.
    duration_s = 12.0 if engine == "spark" else 4.0
    spec = identity_spec(engine, query, duration_s=duration_s, rate=40_000.0)
    production = run_experiment(spec)
    assert production.collector.outputs
    assert_identical(run_oracle(spec), production)


FAULTS = {
    "none": None,
    "crash": FaultSchedule((NodeCrash(at_s=5.0),)),
    "slow": FaultSchedule((SlowNode(at_s=4.0, duration_s=3.0, nodes=1),)),
}
DEGRADATION = {
    "none": None,
    "shed-oldest": DegradationPolicy(shed="oldest", max_queue_delay_s=2.0),
    "shed-newest": DegradationPolicy(shed="newest", max_queue_delay_s=2.0),
}


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    engine=st.sampled_from(ENGINES),
    join=st.booleans(),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    disorder=st.one_of(
        st.none(),
        st.builds(
            DisorderSpec,
            fraction=st.floats(0.05, 0.5),
            max_delay_s=st.floats(0.5, 4.0),
        ),
    ),
    fault=st.sampled_from(sorted(FAULTS)),
    shed=st.sampled_from(sorted(DEGRADATION)),
)
def test_property_identity(engine, join, seed, disorder, fault, shed):
    query = (
        WindowedJoinQuery(WindowSpec(8.0, 4.0))
        if join
        else WindowedAggregationQuery(WindowSpec(8.0, 4.0))
    )
    spec = identity_spec(
        engine,
        query,
        seed=seed,
        disorder=disorder,
        faults=FAULTS[fault],
        degradation=DEGRADATION[shed],
    )
    assert_identical(run_oracle(spec), run_experiment(spec))
