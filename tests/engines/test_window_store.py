"""Unit and property tests for the keyed window store (Definitions 3/4)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import Record
from repro.engines.operators.aggregate import aggregation_outputs
from repro.engines.operators.window import KeyedWindowStore
from repro.workloads.queries import WindowSpec

from tests.oracle.stores import WindowAccumulator


def rec(key, value, event_time, weight=1.0, ingest_time=None):
    return Record(
        key=key,
        value=value,
        event_time=event_time,
        weight=weight,
        ingest_time=ingest_time,
    )


def per_key(contents, column):
    return dict(zip(contents.keys.tolist(), getattr(contents, column).tolist()))


class TestAccumulator:
    """The per-key accumulator of the record-at-a-time oracle
    (:mod:`tests.oracle.stores`): what one slot of the columns does."""

    def test_add_folds_weighted_value(self):
        acc = WindowAccumulator()
        acc.add(rec(0, 10.0, 1.0, weight=3.0))
        assert acc.value == pytest.approx(30.0)
        assert acc.weight == pytest.approx(3.0)

    def test_max_event_time_tracked(self):
        acc = WindowAccumulator()
        acc.add(rec(0, 1.0, 5.0))
        acc.add(rec(0, 1.0, 3.0))
        assert acc.max_event_time == 5.0

    def test_max_processing_time_tracked(self):
        acc = WindowAccumulator()
        acc.add(rec(0, 1.0, 1.0, ingest_time=7.0))
        acc.add(rec(0, 1.0, 2.0, ingest_time=6.0))
        assert acc.max_processing_time == 7.0

    def test_merge_combines(self):
        a, b = WindowAccumulator(), WindowAccumulator()
        a.add(rec(0, 2.0, 1.0))
        b.add(rec(0, 3.0, 4.0))
        a.merge(b)
        assert a.value == pytest.approx(5.0)
        assert a.max_event_time == 4.0

    def test_subtract_inverse_reduce(self):
        a, b = WindowAccumulator(), WindowAccumulator()
        a.add(rec(0, 2.0, 1.0))
        a.add(rec(0, 3.0, 2.0))
        b.add(rec(0, 2.0, 1.0))
        a.subtract(b)
        assert a.value == pytest.approx(3.0)
        assert a.weight == pytest.approx(1.0)

    @given(
        values=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0, 100)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_sequential_adds(self, values):
        # Folding all records into one accumulator equals folding into
        # two and merging (the mini-batch partials must be lossless).
        whole = WindowAccumulator()
        left, right = WindowAccumulator(), WindowAccumulator()
        for i, (v, t) in enumerate(values):
            r = rec(0, v, t)
            whole.add(rec(0, v, t))
            (left if i % 2 == 0 else right).add(r)
        left.merge(right)
        assert left.value == pytest.approx(whole.value)
        assert left.weight == pytest.approx(whole.weight)
        assert left.max_event_time == whole.max_event_time


class TestStore:
    def test_record_added_to_all_containing_windows(self):
        store = KeyedWindowStore(WindowSpec(8, 4))
        updates = store.add(rec(1, 1.0, 9.0))
        assert updates == 2  # windows ending at 12 and 16

    def test_close_returns_per_key_accumulators(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 10.0, 1.0))
        store.add(rec(2, 20.0, 2.0))
        store.add(rec(1, 5.0, 3.0))
        contents = store.close(1)
        assert per_key(contents, "values") == pytest.approx({1: 15.0, 2: 20.0})
        assert contents.end_time == 4.0
        assert contents.start_time == 0.0

    def test_ready_indices_respect_watermark(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0))   # window ending 4
        store.add(rec(1, 1.0, 5.0))   # window ending 8
        assert store.ready_indices(4.0) == [1]
        assert store.ready_indices(8.0) == [1, 2]

    def test_late_adds_to_closed_window_dropped(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0))
        store.close(1)
        updates = store.add(rec(1, 1.0, 2.0))  # window 1 already closed
        assert updates == 0

    def test_late_add_still_counts_open_windows(self):
        store = KeyedWindowStore(WindowSpec(8, 4))
        store.add(rec(1, 1.0, 3.0))  # windows 1 (end 4) and 2 (end 8)
        store.close(1)
        updates = store.add(rec(1, 1.0, 3.5))  # window 1 closed, 2 open
        assert updates == 1

    def test_window_level_maxima(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0))
        store.add(rec(2, 1.0, 3.5))
        contents = store.close(1)
        assert contents.max_event_time == 3.5

    def test_total_weight(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0, weight=2.0))
        store.add(rec(2, 1.0, 2.0, weight=3.0))
        assert store.close(1).total_weight == pytest.approx(5.0)

    def test_stored_weight_counts_per_window(self):
        store = KeyedWindowStore(WindowSpec(8, 4))
        store.add(rec(1, 1.0, 9.0, weight=4.0))  # two windows
        assert store.stored_weight() == pytest.approx(8.0)

    def test_updates_counter(self):
        store = KeyedWindowStore(WindowSpec(8, 4))
        store.add(rec(1, 1.0, 9.0))
        store.add(rec(1, 1.0, 10.0))
        assert store.updates == 4

    def test_empty_window_contents(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        contents = store.close(5)
        assert contents.keys.tolist() == []
        # An empty fold starts from the builtin sum's int 0: it
        # serialises as "0", not "0.0".
        assert json.dumps(contents.total_weight) == "0"
        assert contents.max_event_time == float("-inf")
        assert contents.max_processing_time == float("-inf")

    def test_closing_a_never_opened_window(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0, weight=2.0))  # window 1
        contents = store.close(3)  # never opened, beyond window 1
        assert (contents.index, contents.start_time, contents.end_time) == (
            3, 8.0, 12.0,
        )
        assert contents.total_weight == 0
        assert contents.traces == []
        assert aggregation_outputs(contents, emit_time=13.0) == []
        assert store.closed_weight == 0.0
        # The close still moved the frontier: adds to windows 1..3 are
        # late now, dropped and counted.
        assert store.add(rec(1, 1.0, 9.0, weight=3.0)) == 0
        assert store.add(rec(1, 1.0, 2.0, weight=0.5)) == 0
        assert store.dropped_weight == 3.5
        assert store.admitted_weight == 2.0
        assert store.add(rec(1, 1.0, 13.0)) == 1  # window 4 is open


class TestStoreProperties:
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 5),        # key
                st.floats(0.1, 100.0),    # value
                st.floats(0.01, 50.0),    # event time
                st.floats(0.1, 10.0),     # weight
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_sliding_window_sum_conservation(self, events):
        """Every event's weighted value appears in exactly
        windows_per_event windows' sums."""
        window = WindowSpec(8, 4)
        store = KeyedWindowStore(window)
        for key, value, t, w in events:
            store.add(rec(key, value, t, weight=w))
        total_in_windows = 0.0
        for idx in list(store.open_indices()):
            contents = store.close(idx)
            total_in_windows += sum(contents.values.tolist())
        expected = sum(v * w for _, v, _, w in events) * window.windows_per_event
        assert total_in_windows == pytest.approx(expected, rel=1e-9)

    @given(
        times=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_output_event_time_is_max_contributing(self, times):
        window = WindowSpec(1000, 1000)  # everything in one window
        store = KeyedWindowStore(window)
        for t in times:
            store.add(rec(0, 1.0, t))
        contents = store.close(1)
        assert per_key(contents, "max_event_times") == {0: max(times)}


class TestLoseFraction:
    """Node-failure state loss (Related Work extension)."""

    def test_fraction_of_weight_and_value_lost(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 10.0, 1.0, weight=8.0))
        lost = store.lose_fraction(0.25)
        assert lost == pytest.approx(2.0)
        contents = store.close(1)
        assert per_key(contents, "weights") == pytest.approx({1: 6.0})
        assert per_key(contents, "values") == pytest.approx({1: 60.0})

    def test_zero_and_full_loss(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0, weight=4.0))
        assert store.lose_fraction(0.0) == 0.0
        assert store.lose_fraction(1.0) == pytest.approx(4.0)
        assert per_key(store.close(1), "weights") == pytest.approx({1: 0.0})

    def test_invalid_fraction_rejected(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        with pytest.raises(ValueError):
            store.lose_fraction(1.5)

    def test_dropped_weight_tracked_for_late_adds(self):
        store = KeyedWindowStore(WindowSpec(4, 4))
        store.add(rec(1, 1.0, 1.0))
        store.close(1)
        store.add(rec(1, 1.0, 2.0, weight=3.0))  # fully late
        assert store.dropped_weight == pytest.approx(3.0)

    def test_partially_late_records_drop_partial_weight(self):
        store = KeyedWindowStore(WindowSpec(8, 4))
        store.add(rec(1, 1.0, 3.0))  # windows 1 and 2
        store.close(1)
        store.add(rec(1, 1.0, 3.5, weight=4.0))  # window 1 closed, 2 open
        assert store.dropped_weight == pytest.approx(2.0)
