"""Unit tests for the windowed join operator (Figure 2 semantics)."""

import warnings

import numpy as np
import pytest

from repro.core.batch import as_block
from repro.core.records import ADS, PURCHASES, Record
from repro.engines.operators.join import JoinWindowStore, join_window_outputs
from repro.workloads.queries import WindowSpec


def purchase(key, price, t, weight=1.0, ingest=None):
    return Record(
        key=key,
        value=price,
        event_time=t,
        weight=weight,
        stream=PURCHASES,
        ingest_time=ingest,
    )


def ad(key, t, weight=1.0, ingest=None):
    return Record(
        key=key,
        value=0.0,
        event_time=t,
        weight=weight,
        stream=ADS,
        ingest_time=ingest,
    )


class TestRouting:
    def test_records_routed_by_stream(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 10.0, 1.0)))
        store.add_block(as_block(ad(1, 2.0)))
        closed = store.close(1)
        assert closed.purchases.keys.tolist() == [1]
        assert closed.ads.keys.tolist() == [1]

    def test_unknown_stream_rejected(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        record = purchase(1, 1.0, 1.0)
        record.stream = PURCHASES  # valid; now break it via __slots__ write
        object.__setattr__(record, "stream", "bogus")
        with pytest.raises(ValueError):
            store.add_block(as_block(record))

    def test_ready_union_of_sides(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0)))   # window 1
        store.add_block(as_block(ad(2, 6.0)))              # window 2
        assert store.ready_indices(8.0) == [1, 2]

    def test_stored_weight_sums_sides(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0, weight=2.0)))
        store.add_block(as_block(ad(1, 2.0, weight=3.0)))
        assert store.stored_weight() == pytest.approx(5.0)


class TestFigure2Semantics:
    def test_paper_figure2_output_event_time(self):
        """Figure 2: purchases window max time 600, ads window max time
        500 -> every join output carries event-time 600; emitted at 630
        the latency is 30."""
        store = JoinWindowStore(WindowSpec(600, 600))
        store.add_block(as_block(ad(12, 500.0)))                    # userID=1, gemPackID=2
        store.add_block(as_block(purchase(12, 10.0, 580.0)))
        store.add_block(as_block(purchase(12, 20.0, 550.0)))
        store.add_block(as_block(purchase(12, 30.0, 600.0)))
        closed = store.close(1)
        outputs = join_window_outputs(closed, selectivity=1.0, emit_time=630.0)
        assert len(outputs) == 1
        assert outputs[0].event_time == pytest.approx(600.0)
        assert outputs[0].event_time_latency == pytest.approx(30.0)

    def test_output_weight_scales_with_selectivity(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0, weight=100.0)))
        store.add_block(as_block(ad(1, 2.0, weight=10.0)))
        outputs = join_window_outputs(store.close(1), 0.016, emit_time=5.0)
        assert sum(o.weight for o in outputs) == pytest.approx(1.6)

    def test_weight_distributed_by_purchase_share(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0, weight=75.0)))
        store.add_block(as_block(purchase(2, 1.0, 1.0, weight=25.0)))
        store.add_block(as_block(ad(1, 2.0)))
        store.add_block(as_block(ad(2, 2.0)))
        outputs = {o.key: o for o in join_window_outputs(store.close(1), 0.1, 5.0)}
        assert outputs[1].weight == pytest.approx(7.5)
        assert outputs[2].weight == pytest.approx(2.5)

    def test_unmatched_keys_produce_no_output(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0)))
        store.add_block(as_block(ad(2, 2.0)))  # different key: no match
        assert join_window_outputs(store.close(1), 1.0, 5.0) == []

    def test_empty_sides_produce_no_output(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0)))
        assert join_window_outputs(store.close(1), 1.0, 5.0) == []

    @pytest.mark.parametrize(
        "records",
        [
            [purchase(1, 1.0, 1.0), purchase(2, 1.0, 2.0)],
            [ad(1, 1.0), ad(2, 2.0)],
            [purchase(1, 1.0, 1.0), purchase(3, 1.0, 1.5), ad(2, 2.0), ad(4, 2.5)],
        ],
        ids=["purchases-only", "ads-only", "disjoint-keys"],
    )
    def test_no_match_never_divides_by_the_zero_matched_weight(self, records):
        store = JoinWindowStore(WindowSpec(4, 4))
        for record in records:
            store.add_block(as_block(record))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert join_window_outputs(store.close(1), 1.0, 5.0) == []

    def test_output_weight_underflowing_to_zero_is_skipped(self):
        """Key 1 joins, but its share of a tiny output weight underflows
        to exactly 0.0: no zero-weight tuple reaches the sink."""
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0, weight=1e-320)))
        store.add_block(as_block(purchase(2, 1.0, 1.0, weight=1.0)))
        store.add_block(as_block(ad(1, 2.0)))
        store.add_block(as_block(ad(2, 2.0)))
        outputs = join_window_outputs(store.close(1), 1e-10, 5.0)
        assert [o.key for o in outputs] == [2]
        assert outputs[0].weight == 1e-10

    def test_zero_selectivity_produces_no_output(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0)))
        store.add_block(as_block(ad(1, 2.0)))
        assert join_window_outputs(store.close(1), 0.0, 5.0) == []

    def test_negative_selectivity_rejected(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0)))
        closed = store.close(1)
        with pytest.raises(ValueError):
            join_window_outputs(closed, -0.1, 5.0)

    def test_processing_time_anchor_is_window_max(self):
        store = JoinWindowStore(WindowSpec(4, 4))
        store.add_block(as_block(purchase(1, 1.0, 1.0, ingest=1.5)))
        store.add_block(as_block(ad(1, 2.0, ingest=3.5)))
        (out,) = join_window_outputs(store.close(1), 1.0, 5.0)
        assert out.processing_time == pytest.approx(3.5)
        assert out.processing_time_latency == pytest.approx(1.5)
