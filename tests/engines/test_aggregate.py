"""Unit tests for aggregation strategies: outputs, partials, merger."""

import pytest

from repro.core.records import Record
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
    aggregation_outputs,
)
from repro.engines.operators.window import KeyedWindowStore
from repro.workloads.queries import WindowSpec


def rec(key, value, event_time, weight=1.0, ingest_time=None):
    return Record(
        key=key,
        value=value,
        event_time=event_time,
        weight=weight,
        ingest_time=ingest_time,
    )


class TestAggregationOutputs:
    def test_one_output_per_key(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 10.0, 1.0))
        store.add(rec(2, 20.0, 2.0))
        outputs = aggregation_outputs(store.close(1), emit_time=5.0)
        assert len(outputs) == 2
        assert {o.key for o in outputs} == {1, 2}

    def test_latency_anchors_per_key(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0, ingest_time=1.1))
        store.add(rec(1, 1.0, 3.0, ingest_time=3.1))
        store.add(rec(2, 1.0, 2.0, ingest_time=2.1))
        outputs = {o.key: o for o in aggregation_outputs(store.close(1), 5.0)}
        assert outputs[1].event_time_latency == pytest.approx(2.0)
        assert outputs[1].processing_time_latency == pytest.approx(5.0 - 3.1)
        assert outputs[2].event_time_latency == pytest.approx(3.0)

    def test_window_end_recorded(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0))
        (out,) = aggregation_outputs(store.close(1), 5.0)
        assert out.window_end == 4.0

    def test_empty_window_no_outputs(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        assert aggregation_outputs(store.close(1), 5.0) == []


class TestBatchPartials:
    def test_partials_per_window_per_key(self):
        agg = BatchPartialAggregator(WindowSpec(8, 4))
        agg.add(rec(1, 10.0, 9.0))  # windows 3 (end 12) and 4 (end 16)
        partials = agg.drain()
        assert set(partials) == {3, 4}
        assert partials[3].n == 1
        assert partials[3].keys[0] == 1
        assert partials[3].values[0] == pytest.approx(10.0)

    def test_drain_resets(self):
        agg = BatchPartialAggregator(WindowSpec(4, 4))
        agg.add(rec(1, 1.0, 1.0))
        agg.drain()
        assert agg.batch_weight == 0.0
        assert agg.drain() == {}

    def test_batch_weight_accumulates(self):
        agg = BatchPartialAggregator(WindowSpec(4, 4))
        agg.add(rec(1, 1.0, 1.0, weight=2.0))
        agg.add(rec(2, 1.0, 1.5, weight=3.0))
        assert agg.batch_weight == pytest.approx(5.0)


class TestMerger:
    def test_merged_windows_equal_direct_store(self):
        """Mini-batch execution must produce the same window results as
        direct (Flink-style) accumulation."""
        window = WindowSpec(8, 4)
        events = [
            rec(1, 10.0, 1.0),
            rec(2, 5.0, 3.0),
            rec(1, 1.0, 5.0),
            rec(2, 2.0, 9.0),
            rec(1, 4.0, 11.0),
        ]
        direct = KeyedWindowStore(window)
        for e in events:
            direct.add(
                rec(e.key, e.value, e.event_time, e.weight)
            )
        merger = WindowedPartialMerger(window)
        # Two "batches": events split by time.
        for batch_events in (events[:3], events[3:]):
            agg = BatchPartialAggregator(window)
            for e in batch_events:
                agg.add(rec(e.key, e.value, e.event_time, e.weight))
            merger.absorb(agg.drain())
        merged = {c.index: c for c in merger.pop_ready(1e9)}
        for idx in list(direct.open_indices()):
            expected = direct.close(idx)
            got = merged[idx]
            assert got.keys.tolist() == expected.keys.tolist()
            assert got.values.tolist() == pytest.approx(expected.values.tolist())
            assert (
                got.max_event_times.tolist()
                == expected.max_event_times.tolist()
            )

    def test_pop_ready_only_closed_windows(self):
        merger = WindowedPartialMerger(WindowSpec(4, 4))
        agg = BatchPartialAggregator(WindowSpec(4, 4))
        agg.add(rec(1, 1.0, 1.0))   # window 1 ends at 4
        agg.add(rec(1, 1.0, 5.0))   # window 2 ends at 8
        merger.absorb(agg.drain())
        ready = merger.pop_ready(4.0)
        assert [c.index for c in ready] == [1]
        assert merger.open_window_count == 1

    def test_late_partials_for_closed_windows_dropped(self):
        window = WindowSpec(4, 4)
        merger = WindowedPartialMerger(window)
        agg = BatchPartialAggregator(window)
        agg.add(rec(1, 1.0, 1.0))
        merger.absorb(agg.drain())
        merger.pop_ready(4.0)
        # A straggler for window 1 arrives after it was emitted.
        agg.add(rec(1, 99.0, 2.0))
        merger.absorb(agg.drain())
        assert merger.open_window_count == 0
        assert merger.stored_weight() == 0.0

    def test_pop_ready_when_every_partial_of_a_window_was_late(self):
        window = WindowSpec(4, 4)
        merger = WindowedPartialMerger(window)
        agg = BatchPartialAggregator(window)
        agg.add(rec(1, 1.0, 5.0, weight=2.0))   # window 2
        merger.absorb(agg.drain())
        assert [c.index for c in merger.pop_ready(8.0)] == [2]
        # Window 1 never held anything; both its partials arrive after
        # the frontier passed it.
        for weight in (3.0, 0.5):
            agg.add(rec(1, 9.0, 2.0, weight=weight))
            merger.absorb(agg.drain())
        assert merger.pop_ready(8.0) == []
        assert merger.dropped_weight == 3.5
        assert merger.admitted_weight == merger.closed_weight == 2.0
        assert merger.open_window_count == 0

    def test_stored_weight(self):
        merger = WindowedPartialMerger(WindowSpec(8, 4))
        agg = BatchPartialAggregator(WindowSpec(8, 4))
        agg.add(rec(1, 1.0, 9.0, weight=2.0))  # 2 windows
        merger.absorb(agg.drain())
        assert merger.stored_weight() == pytest.approx(4.0)

