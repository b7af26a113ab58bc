"""Storm's tick-min countdown: the vector kernel against the loop it replaces.

``StormEngine._consume_tick_mins(weights)`` must leave the deque of
``[min_event_time, remaining]`` entries exactly as ``for w in weights:
_consume_tick_min(w)`` does -- same entries popped, same float bits in
every survivor -- independently of whole trials.  Both are exercised
here as plain functions over a stand-in that owns only the deque.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import records_weight
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.storm import StormEngine
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def holder(entries) -> SimpleNamespace:
    """The slice of an engine the two countdowns touch."""
    ns = SimpleNamespace(_inflight_tick_mins=deque(list(e) for e in entries))
    ns._consume_tick_min = lambda w: StormEngine._consume_tick_min(ns, w)
    return ns


def scalar_countdown(entries, weights) -> List[List[str]]:
    ns = holder(entries)
    for w in weights:
        ns._consume_tick_min(w)
    return bits(ns)


def vector_countdown(entries, weights) -> List[List[str]]:
    ns = holder(entries)
    StormEngine._consume_tick_mins(ns, np.asarray(weights, dtype=np.float64))
    return bits(ns)


def bits(ns) -> List[List[str]]:
    """The deque with floats spelled bit-for-bit."""
    for entry in ns._inflight_tick_mins:
        assert type(entry[1]) is float
    return [
        [float(et).hex(), float(left).hex()]
        for et, left in ns._inflight_tick_mins
    ]


ordinary = st.floats(1e-3, 50.0, allow_nan=False)
negligible = st.floats(0.0, 1e-9, allow_nan=False)
weight = st.one_of(ordinary, ordinary, negligible)


@st.composite
def countdown_case(draw):
    """Entries plus weights steered at the kernel's branch points."""
    entries = [
        [draw(st.floats(0.0, 100.0)), draw(st.one_of(ordinary, negligible))]
        for _ in range(draw(st.integers(0, 6)))
    ]
    weights = draw(st.lists(weight, min_size=0, max_size=40))
    if entries and weights:
        # Aim one cohort at the exact / +-epsilon exhaustion of what the
        # head holds when the cohort arrives, or far past it.
        at = draw(st.integers(0, len(weights) - 1))
        left = entries[0][1]
        for w in weights[:at]:
            left -= w
        nudge = draw(
            st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9])
        )
        overshoot = draw(st.sampled_from([0.0, 0.0, 75.0, 400.0]))
        aimed = left + nudge + overshoot
        if aimed > 0.0:
            weights[at] = aimed
    return entries, weights


@settings(max_examples=400, deadline=None)
@given(countdown_case())
def test_vector_countdown_is_bitwise_the_scalar_loop(case):
    entries, weights = case
    assert vector_countdown(entries, weights) == scalar_countdown(
        entries, weights
    )


@pytest.mark.parametrize(
    "entries, weights",
    [
        ([], [1.0, 2.0]),  # nothing to count down
        ([[0.0, 5.0]], []),  # empty vector
        ([[0.0, 5.0]], [2.0]),  # single cohort, stays
        ([[0.0, 5.0]], [5.0]),  # exhausts exactly
        ([[0.0, 5.0]], [5.0 + 1e-9]),  # within +epsilon: popped, no carry
        ([[0.0, 5.0]], [5.0 - 5e-10]),  # within -epsilon: popped early
        ([[0.0, 5.0], [1.0, 3.0], [2.0, 4.0]], [1.0, 20.0, 1.0]),  # spans all
        ([[0.0, 2.0], [1.0, 2.0]], [1.0, 1.0, 1.0, 1.0, 1.0]),  # empties mid-way
        ([[0.0, 5.0], [1.0, 5.0]], [1e-10, 4.0, 0.0, 1.0, 1e-9, 2.0]),  # no-ops
        ([[0.0, 1e-12], [1.0, 3.0]], [1.0, 1.0]),  # stale head residue
        # Residue above epsilon survives the cohort that "should" have
        # emptied the entry (the engine clears it once ``_inflight``
        # drains; see test_empty_inflight_leaves_no_tick_min_entry).
        ([[0.0, 0.3]], [0.1, 0.1, 0.1 - 1.13e-8]),
    ],
)
def test_vector_countdown_cases(entries, weights):
    assert vector_countdown(entries, weights) == scalar_countdown(
        entries, weights
    )


def test_vector_countdown_on_a_wide_block():
    rng = np.random.default_rng(5)
    weights = (rng.random(4096) * 3.0).tolist()
    entries = [[float(i), float(rng.random() * 900.0)] for i in range(9)]
    assert vector_countdown(entries, weights) == scalar_countdown(
        entries, weights
    )


def stale_tick_min_ticks(spec: ExperimentSpec) -> List[float]:
    """Tick-end times at which ``_inflight`` is empty yet a tick-min
    entry is still queued."""
    stale: List[float] = []

    def watch(driver) -> None:
        engine = driver.engine
        tick_end = engine._on_tick_end

        def checked_tick_end(dt: float) -> None:
            tick_end(dt)
            if not engine._inflight and engine._inflight_tick_mins:
                stale.append(engine.sim.now)

        engine._on_tick_end = checked_tick_end

    run_experiment(spec, driver_hook=watch)
    return stale


def test_empty_inflight_leaves_no_tick_min_entry():
    """``_inflight`` empty => no tick-min entry bounds the watermark.
    Float residue of the per-cohort subtractions can leave an entry
    behind a fully drained poll, which would pin the processed watermark
    until the next poll."""
    spec = ExperimentSpec(
        engine="storm",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=0.3e6,
        duration_s=120.0,  # 536 of its 2 360 ticks ended stale
        seed=17,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    assert stale_tick_min_ticks(spec) == []


def test_one_fold_feeds_the_ingest_ledger_and_the_tick_min_entry():
    """A poll's weight is folded once (``_account_ingest``) and reused
    for the tick-min entry: both must still equal the left fold over the
    polled cohorts, bit for bit."""
    polls: List[tuple] = []

    def watch(driver) -> None:
        engine = driver.engine

        def checked(process):
            def run(items, dt: float) -> None:
                expected = records_weight(items)  # independent re-fold
                process(items, dt)
                entry = engine._inflight_tick_mins[-1]
                polls.append(
                    (entry[1].hex(), float(expected).hex(), entry[0])
                )
                assert entry[0] == min(i.event_time for i in items)

            return run

        account = engine._account_ingest

        def checked_account(items, dt: float) -> None:
            before = engine.ingested_weight
            account(items, dt)
            want = before + records_weight(items)
            assert float(engine.ingested_weight).hex() == float(want).hex()

        engine._account_ingest = checked_account
        engine._process_batch = checked(engine._process_batch)

    spec = ExperimentSpec(
        engine="storm",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=0.3e6,
        duration_s=12.0,
        seed=3,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    run_experiment(spec, driver_hook=watch)
    assert len(polls) > 20
    assert all(entry == expected for entry, expected, _ in polls)
