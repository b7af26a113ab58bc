"""Scalar <-> vector identity: the columnar tick loop is a bitwise twin.

The columnar engine path (:mod:`repro.core.batch`,
:mod:`repro.engines.operators.columnar`) re-expresses the per-record
Python loops as NumPy column kernels built from *sequential* folds
(``np.add.accumulate``), so the float operations -- and therefore every
downstream ledger, RNG draw, and emission -- happen in exactly the
scalar order.  These tests run the SAME seeded trial through both paths
(``REPRO_ENGINE_SCALAR=1`` selects the scalar reference) and assert the
results are identical: sink tables, conservation/diagnostics ledgers,
and latency summaries, exact to 1e-9 (and in practice bit-for-bit).

Hypothesis sweeps the space the refactor touches: engine x query kind
x disorder x faults x degradation shedding.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.batch import SCALAR_ENV, scalar_mode, vector_enabled
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

TOL = 1e-9

#: Host wall-clock diagnostics -- legitimately differ between runs.
WALL_CLOCK_KEYS = frozenset(
    {"driver.summary_s", "collector.collect_s", "collector.samples_per_s"}
)


def run_mode(spec: ExperimentSpec, scalar: bool):
    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        return run_experiment(spec)
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved


def sink_table(result) -> Dict[Tuple[float, int], Tuple[float, float]]:
    table: Dict[Tuple[float, int], Tuple[float, float]] = {}
    for out in result.collector.outputs:
        key = (round(out.window_end, 9), out.key)
        value, weight = table.get(key, (0.0, 0.0))
        table[key] = (value + out.value, weight + out.weight)
    return table


def assert_identical(scalar, vector) -> None:
    """Every observable of the two trials agrees to TOL (or exactly)."""
    assert scalar.failure == vector.failure
    assert scalar.failure_time == pytest.approx(
        vector.failure_time, abs=TOL, nan_ok=True
    )

    s_table, v_table = sink_table(scalar), sink_table(vector)
    assert set(s_table) == set(v_table)
    for key in s_table:
        assert s_table[key][0] == pytest.approx(v_table[key][0], abs=TOL), key
        assert s_table[key][1] == pytest.approx(v_table[key][1], abs=TOL), key

    for kind in ("event_latency", "processing_latency"):
        s_sum, v_sum = getattr(scalar, kind), getattr(vector, kind)
        for field in ("count", "weight", "mean", "minimum", "maximum",
                      "p90", "p95", "p99", "std"):
            s, v = getattr(s_sum, field), getattr(v_sum, field)
            if s == v:  # covers nan-free exact equality fast path
                continue
            assert s == pytest.approx(v, abs=TOL, nan_ok=True), (kind, field)

    s_diag, v_diag = scalar.diagnostics, vector.diagnostics
    assert set(s_diag) == set(v_diag)
    for key, s in s_diag.items():
        if key in WALL_CLOCK_KEYS:
            continue
        assert s == pytest.approx(v_diag[key], abs=TOL), key

    assert scalar.mean_ingest_rate == pytest.approx(
        vector.mean_ingest_rate, abs=TOL, nan_ok=True
    )


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


@pytest.mark.skipif(
    os.environ.get(SCALAR_ENV, "") not in ("", "0"),
    reason="suite deliberately forced onto the scalar path via env",
)
def test_vector_is_the_default():
    """With the env var unset, engines take the columnar path."""
    assert os.environ.get(SCALAR_ENV, "") in ("", "0")
    assert not scalar_mode()
    assert vector_enabled()


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_aggregation_identity(engine):
    spec = identity_spec(engine, WindowedAggregationQuery(WindowSpec(8.0, 4.0)))
    assert_identical(run_mode(spec, True), run_mode(spec, False))


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_join_identity(engine):
    spec = identity_spec(engine, WindowedJoinQuery(WindowSpec(8.0, 4.0)))
    assert_identical(run_mode(spec, True), run_mode(spec, False))


@pytest.mark.parametrize(
    "engine, query_cls", [("storm", WindowedAggregationQuery),
                          ("flink", WindowedJoinQuery)]
)
def test_deterministic_wide_key_identity(engine, query_cls):
    """4096 uniform keys: whole-catalog blocks, long drained runs and
    slot runs -- the benchmark's ``wide_keys`` shape, kept short (the
    scalar reference pays per cohort)."""
    query = query_cls(WindowSpec(2.0, 1.0), keys=UniformKeys(4096))
    spec = identity_spec(engine, query, duration_s=4.0, rate=40_000.0)
    assert_identical(run_mode(spec, True), run_mode(spec, False))


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
    assert_identical(run_mode(spec, True), run_mode(spec, False))
