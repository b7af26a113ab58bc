"""Storm's in-flight watermark bound: one entry per spout poll.

``StormEngine._inflight_tick_mins`` holds ``[min event time of the
poll, blocks of the poll still in _inflight]``; ``_drain_inflight``
counts a block off the head entry when ``consume_front`` empties it and
pops the entry at zero.  The processed watermark is checked here
against an independent record of which poll each in-flight block came
from.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

import repro.engines.ext  # noqa: F401  (registers heron)
from repro.core.batch import records_weight
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def paper_agg(engine: str, rate: float, duration_s: float, seed: int):
    """An aggregation trial on the paper's window, 2 workers."""
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=rate,
        duration_s=duration_s,
        seed=seed,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
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
    """``_inflight`` empty => no tick-min entry bounds the watermark: an
    entry leaves with its poll's last block."""
    spec = paper_agg("storm", 0.3e6, 120.0, 17)
    assert stale_tick_min_ticks(spec) == []


def test_one_fold_feeds_the_ingest_ledger_and_the_tick_min_entry():
    """A poll's weight is folded once (``_account_ingest``), bit for bit
    the left fold over the polled cohorts; the poll's tick-min entry is
    its minimum event time and its block count."""
    polls: List[list] = []

    def watch(driver) -> None:
        engine = driver.engine
        process = engine._process_batch
        account = engine._account_ingest

        def checked_process(blocks, dt: float) -> None:
            process(blocks, dt)
            entry = engine._inflight_tick_mins[-1]
            polls.append(entry)
            assert entry == [min(b.event_time for b in blocks), len(blocks)]

        def checked_account(blocks, dt: float) -> None:
            before = engine.ingested_weight
            account(blocks, dt)
            want = before + records_weight(blocks)  # independent re-fold
            assert float(engine.ingested_weight).hex() == float(want).hex()

        engine._account_ingest = checked_account
        engine._process_batch = checked_process

    run_experiment(paper_agg("storm", 0.3e6, 12.0, 3), driver_hook=watch)
    assert len(polls) > 20
    assert any(count > 1 for _, count in polls)


def watermark_misses(spec: ExperimentSpec) -> Tuple[int, int, float]:
    """(tick ends whose processed watermark is wrong, tick ends, largest
    error in s) against the oldest poll with a block still in flight.

    Each block's poll minimum is recorded by identity as the poll
    arrives (the block is kept with it, so its id is not reused);
    ``consume_front`` shrinks the head block in place, so a block keeps
    its identity until it leaves ``_inflight``."""
    poll_min: Dict[int, Tuple[object, float]] = {}
    ticks = [0]
    misses: List[float] = []

    def watch(driver) -> None:
        engine = driver.engine
        process = engine._process_batch
        tick_end = engine._on_tick_end

        def recorded(blocks, dt: float) -> None:
            if blocks:
                oldest = min(block.event_time for block in blocks)
                for block in blocks:
                    poll_min[id(block)] = (block, oldest)
            process(blocks, dt)

        def checked(dt: float) -> None:
            tick_end(dt)
            live = {id(b): poll_min[id(b)] for b in engine._inflight}
            poll_min.clear()
            poll_min.update(live)
            want = engine.source.watermark
            if live:
                oldest = min(low for _, low in live.values())
                want = min(want, oldest - 1e-9)
            got = engine._processed_watermark()
            ticks[0] += 1
            if got != want:
                misses.append(abs(got - want))

        engine._process_batch = recorded
        engine._on_tick_end = checked

    run_experiment(spec, driver_hook=watch)
    return len(misses), ticks[0], max(misses, default=0.0)


@pytest.mark.parametrize(
    "engine, rate, duration_s, seed",
    [
        ("storm", 1.6e6, 40.0, 17),
        ("storm", 1.6e6, 40.0, 31),
        ("storm", 0.2e6, 120.0, 31),
        ("storm", 0.3e6, 120.0, 17),
        ("heron", 1.6e6, 40.0, 17),
    ],
)
def test_processed_watermark_is_the_oldest_undrained_poll(
    engine, rate, duration_s, seed
):
    """A window closes once no older tuple is in flight (Definitions
    3-4): at every tick end the processed watermark is the source's,
    bounded by the minimum event time of the oldest poll that still has
    a block in the executor queues."""
    spec = paper_agg(engine, rate, duration_s, seed)
    wrong, ticks, worst = watermark_misses(spec)
    assert ticks > 20 * duration_s * 0.9
    assert wrong == 0, f"{wrong} of {ticks} tick ends wrong, up to {worst} s"
