"""Edge cases for the columnar window/join/partial stores.

The identity property suite (test_vector_identity) exercises whole
trials; these tests pin the operator-level corners down directly:
empty blocks, single-record blocks, blocks spanning a window boundary
(including already-closed windows), and a block sequence interrupted by
a mid-tick fault (``lose_fraction``).  Every case is checked against
the record-at-a-time oracle store (:mod:`tests.oracle.stores`) fed the
materialized records of the same blocks -- exact equality, no
tolerance.
"""

import numpy as np
import pytest

from repro.core.batch import RecordBlock, as_block, consume_front
from repro.core.records import ADS, PURCHASES, Record
from repro.engines.operators.aggregate import BatchPartialAggregator
from repro.engines.operators.join import JoinWindowStore
from repro.engines.operators.window import KeyedWindowStore, WindowCols
from repro.workloads.queries import WindowSpec

from tests.oracle.stores import (
    OracleBatchPartials,
    OracleJoinStore,
    OracleWindowStore,
)

WINDOW = WindowSpec(8.0, 4.0)


def block(keys, weights, event_time, value=2.0, stream=PURCHASES,
          ingest_time=None):
    b = RecordBlock(
        np.asarray(keys, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        value=value,
        event_time=event_time,
        stream=stream,
    )
    b.ingest_time = ingest_time
    return b


def paired_stores():
    return KeyedWindowStore(WINDOW, key_space_hint=8), OracleWindowStore(WINDOW)


def feed_both(columnar, scalar, blk):
    """Same data through both paths; updates counts must agree."""
    records = blk.materialize()
    vec = columnar.add_block(blk)
    sca = sum(scalar.add(r) for r in records)
    assert vec == sca
    return vec


def assert_ledgers_equal(columnar, scalar):
    for attr in ("admitted_weight", "dropped_weight", "closed_weight",
                 "lost_weight", "updates"):
        assert getattr(columnar, attr) == getattr(scalar, attr), attr
    assert columnar.stored_weight() == scalar.stored_weight()


def assert_contents_equal(vec_contents, sca_contents):
    """Production's closed window against the oracle's (the dict of
    accumulators it folded, copied into columns): slot for slot."""
    for column in ("keys", "values", "weights", "max_event_times",
                   "max_processing_times"):
        assert (
            getattr(vec_contents, column).tolist()
            == getattr(sca_contents, column).tolist()
        ), column
    for figure in ("total_weight", "max_event_time", "max_processing_time"):
        assert getattr(vec_contents, figure) == getattr(sca_contents, figure)


class TestEmptyBlock:
    def test_add_is_a_no_op(self):
        columnar, _ = paired_stores()
        empty = block([], [], event_time=1.0)
        assert columnar.add_block(empty) == 0
        assert columnar.admitted_weight == 0.0
        assert columnar.updates == 0
        assert columnar.stored_weight() == 0.0
        assert not list(columnar.open_indices())

    def test_partials_no_op(self):
        partials = BatchPartialAggregator(WINDOW)
        assert partials.add_block(block([], [], event_time=1.0)) == 0
        assert partials.batch_weight == 0.0
        assert partials.drain() == {}


class TestSingleRecordBlock:
    def test_matches_scalar_add(self):
        columnar, scalar = paired_stores()
        record = Record(key=3, value=5.0, event_time=2.5, weight=4.0,
                        ingest_time=2.6)
        columnar.add(record)
        scalar.add(
            Record(key=3, value=5.0, event_time=2.5, weight=4.0,
                   ingest_time=2.6)
        )
        assert_ledgers_equal(columnar, scalar)
        for idx in scalar.open_indices():
            assert_contents_equal(columnar.close(idx), scalar.close(idx))
        assert_ledgers_equal(columnar, scalar)

    def test_record_at_a_time_sequence_matches_scalar_adds(self):
        """``add(record)`` over and over: the first touch of a key takes
        the gather path, every later one the single-slot path; late and
        partially late records included."""
        columnar, scalar = paired_stores()
        values = (0.1, 0.7, 1e-3, 3.3)
        for step in range(40):
            fields = dict(
                key=(step * 5) % 7, value=values[step % 4],
                event_time=0.5 + 0.37 * step, weight=0.1 + 0.3 * (step % 5),
                ingest_time=0.6 + 0.37 * step if step % 3 else None,
            )
            assert columnar.add(Record(**fields)) == scalar.add(Record(**fields))
            if step in (15, 30):
                first = min(scalar.open_indices())
                assert_contents_equal(
                    columnar.close(first, at_time=99.0),
                    scalar.close(first, at_time=99.0),
                )
                late = dict(fields, event_time=fields["event_time"] - 6.0)
                assert columnar.add(Record(**late)) == scalar.add(Record(**late))
            assert_ledgers_equal(columnar, scalar)
        for idx in list(scalar.open_indices()):
            assert_contents_equal(columnar.close(idx), scalar.close(idx))
        assert_ledgers_equal(columnar, scalar)

    def test_as_block_moves_the_trace(self):
        record = Record(key=1, value=1.0, event_time=0.5, weight=1.0)
        blk = as_block(record)
        assert len(blk) == 1
        assert blk.traces == []
        assert float(blk.weights[0]) == 1.0


class TestNegativeKeys:
    """The slot table is direct-addressed: a negative key would wrap
    onto another key's slot, so the gather path rejects it."""

    def test_record_with_negative_key_does_not_alias(self):
        # Without the check: key -1 wraps to slot_table[7], the two
        # records fold into one accumulator and close as
        # {7: (17.0, 5.0)}; the oracle gives {7: (2.0, 2.0),
        # -1: (15.0, 3.0)}.
        columnar, scalar = paired_stores()
        for store in (columnar, scalar):
            store.add(Record(key=7, value=1.0, event_time=1.0, weight=2.0))
        scalar.add(Record(key=-1, value=5.0, event_time=1.0, weight=3.0))
        with pytest.raises(ValueError, match="-1"):
            columnar.add(Record(key=-1, value=5.0, event_time=1.0, weight=3.0))
        oracle_closed = scalar.close_by_key(1).by_key
        assert {k: (a.value, a.weight) for k, a in oracle_closed.items()} == {
            7: (2.0, 2.0), -1: (15.0, 3.0),
        }
        # The rejected record left no trace in the production store.
        closed = columnar.close(1)
        assert closed.keys.tolist() == [7]
        assert (closed.values.tolist(), closed.weights.tolist()) == (
            [2.0], [2.0],
        )

    def test_negative_key_inside_a_multi_cohort_block(self):
        columnar, _ = paired_stores()
        with pytest.raises(ValueError, match="-3"):
            columnar.add_block(block([0, 5, -3, 2], [1.0] * 4, event_time=1.0))
        partials = BatchPartialAggregator(WINDOW, key_space_hint=8)
        with pytest.raises(ValueError, match="-3"):
            partials.add_block(block([0, 5, -3, 2], [1.0] * 4, event_time=1.0))


class TestWindowBoundaryBlock:
    def test_block_on_the_boundary(self):
        """Event time exactly on a slide boundary: the scalar epsilon
        logic decides the window range once per block, same as once per
        record."""
        columnar, scalar = paired_stores()
        feed_both(columnar, scalar, block([0, 1, 2], [1.0, 2.0, 3.0],
                                          event_time=4.0))
        assert_ledgers_equal(columnar, scalar)
        assert list(columnar.open_indices()) == list(scalar.open_indices())
        for idx in list(scalar.open_indices()):
            assert_contents_equal(
                columnar.close(idx, at_time=9.0),
                scalar.close(idx, at_time=9.0),
            )
        assert_ledgers_equal(columnar, scalar)

    def test_block_into_partially_closed_range(self):
        """A late block whose window range includes an already-closed
        window: the missed share lands in dropped_weight, the rest in
        the still-open window -- identically on both paths."""
        columnar, scalar = paired_stores()
        feed_both(columnar, scalar, block([0], [1.0], event_time=2.0))
        # Close the earliest open window on both, then add a block whose
        # range spans the closed window and the open one.
        first = min(scalar.open_indices())
        assert_contents_equal(
            columnar.close(first, at_time=5.0),
            scalar.close(first, at_time=5.0),
        )
        feed_both(columnar, scalar, block([5, 6], [1.5, 2.5], event_time=2.1))
        assert columnar.dropped_weight > 0.0
        assert_ledgers_equal(columnar, scalar)

    def test_fully_late_block_is_all_dropped(self):
        columnar, scalar = paired_stores()
        feed_both(columnar, scalar, block([0], [1.0], event_time=10.0))
        for idx in sorted(scalar.open_indices()):
            assert_contents_equal(columnar.close(idx), scalar.close(idx))
        updates = feed_both(columnar, scalar,
                            block([1, 2], [1.0, 1.0], event_time=1.0))
        assert updates == 0
        assert_ledgers_equal(columnar, scalar)


class TestMidTickFault:
    def test_lose_fraction_between_blocks(self):
        """A block sequence interrupted by a state-loss fault: scale,
        then keep accumulating -- ledgers and closes stay identical."""
        columnar, scalar = paired_stores()
        feed_both(columnar, scalar, block([0, 1], [2.0, 4.0], event_time=1.0))
        lost_vec = columnar.lose_fraction(0.375)
        lost_sca = scalar.lose_fraction(0.375)
        assert lost_vec == lost_sca
        feed_both(columnar, scalar, block([1, 2], [1.0, 3.0], event_time=1.5))
        assert_ledgers_equal(columnar, scalar)
        for idx in sorted(scalar.open_indices()):
            assert_contents_equal(
                columnar.close(idx, at_time=20.0),
                scalar.close(idx, at_time=20.0),
            )
        assert_ledgers_equal(columnar, scalar)

    def test_lose_everything(self):
        columnar, scalar = paired_stores()
        feed_both(columnar, scalar, block([0, 1], [2.0, 4.0], event_time=1.0))
        assert columnar.lose_fraction(1.0) == scalar.lose_fraction(1.0)
        assert columnar.stored_weight() == scalar.stored_weight() == 0.0
        assert_ledgers_equal(columnar, scalar)

    def test_fraction_out_of_range_rejected(self):
        columnar, _ = paired_stores()
        with pytest.raises(ValueError):
            columnar.lose_fraction(1.5)


class TestJoinStoreRouting:
    def test_blocks_route_by_stream(self):
        columnar = JoinWindowStore(WINDOW)
        scalar = OracleJoinStore(WINDOW)
        for blk in (
            block([0, 1], [1.0, 2.0], event_time=1.0, stream=PURCHASES),
            block([1, 2], [3.0, 4.0], event_time=1.2, stream=ADS),
        ):
            records = blk.materialize()
            columnar.add_block(blk)
            for r in records:
                scalar.add(r)
        assert columnar.stored_weight() == scalar.stored_weight()
        for idx in sorted(scalar.ready_indices(watermark=100.0)):
            vec = columnar.close(idx, at_time=10.0)
            sca = scalar.close(idx, at_time=10.0)
            assert_contents_equal(vec.purchases, sca.purchases)
            assert_contents_equal(vec.ads, sca.ads)

    def test_unknown_stream_rejected(self):
        columnar = JoinWindowStore(WINDOW)
        with pytest.raises(ValueError):
            columnar.add_block(
                block([0], [1.0], event_time=1.0, stream="clicks")
            )


class TestBatchPartials:
    def test_drain_matches_scalar(self):
        columnar = BatchPartialAggregator(WINDOW)
        scalar = OracleBatchPartials(WINDOW)
        for blk in (
            block([0, 1], [1.0, 2.0], event_time=1.0, ingest_time=1.1),
            block([1, 3], [0.5, 4.0], event_time=2.0, ingest_time=2.1),
        ):
            records = blk.materialize()
            columnar.add_block(blk)
            for r in records:
                scalar.add(r)
        assert columnar.batch_weight == scalar.batch_weight
        vec, sca = columnar.drain(), scalar.drain()
        assert list(vec) == list(sca)
        for idx in sca:
            n = vec[idx].n
            assert vec[idx].keys[:n].tolist() == list(sca[idx])
            accs = sca[idx].values()
            assert vec[idx].values[:n].tolist() == [a.value for a in accs]
            assert vec[idx].weights[:n].tolist() == [a.weight for a in accs]
        assert columnar.batch_weight == 0.0
        assert columnar.drain() == {}


class TestSlotRuns:
    """``WindowCols`` addresses a remembered catalog through slices.

    Each case feeds one sequence of blocks twice: once with every block
    carrying (views of) one shared key catalog -- the generator's shape,
    eligible for slot runs -- and once with a view of a private copy of
    its keys, which can only take the gather/scatter path.  The two
    windows must end slot-for-slot identical.
    """

    CATALOG = np.arange(3, 11, dtype=np.int64)

    @staticmethod
    def foreign(keys):
        """Same keys as a view of a throw-away array: never a whole
        catalog, never a view of a remembered one."""
        return keys.copy()[:]

    @staticmethod
    def weights_for(n, salt):
        return (np.arange(n, dtype=np.float64) + 1.0) * (0.37 + salt)

    def run_pair(self, key_arrays, hint=4):
        fast, slow = WindowCols(hint), WindowCols(hint)
        paths = []
        for step, keys in enumerate(key_arrays):
            w = self.weights_for(len(keys), 0.01 * step)
            at = fast._locate(keys) if len(keys) else None
            paths.append("run" if isinstance(at, slice) else "gather")
            fast.add_cohorts(keys, w, 2.5 * w, 1.0 + step, 2.0 + step)
            other = self.foreign(keys)
            if len(other):
                assert not isinstance(slow._locate(other), slice)
            slow.add_cohorts(other, w, 2.5 * w, 1.0 + step, 2.0 + step)
        assert fast.n == slow.n
        n = fast.n
        for column in ("keys", "values", "weights", "max_et", "max_pt"):
            assert (
                getattr(fast, column)[:n].tolist()
                == getattr(slow, column)[:n].tolist()
            ), column
        return paths

    def test_whole_block_after_first_touch(self):
        c = self.CATALOG
        assert self.run_pair([c, c, c]) == ["gather", "run", "run"]

    def test_split_prefix_and_remainder(self):
        c = self.CATALOG
        # First touch by a split: prefix 0..4 then remainder 4..n-1 (the
        # split cohort is in both), then the same shapes once the whole
        # catalog has been seen in place.
        paths = self.run_pair([c[:5], c[4:], c, c[:5], c[4:], c[7:], c[:1]])
        assert paths == ["gather", "gather", "gather", "run", "run", "run", "run"]

    def test_permuted_keys_stay_on_the_gather_path(self):
        c = self.CATALOG
        shuffled = c[::-1].copy()
        assert self.run_pair([shuffled, c, c]) == ["gather"] * 3
        # ... and a strided view of a remembered catalog is not a run.
        assert self.run_pair([c, c, c[::2], c[::-1]]) == [
            "gather", "run", "gather", "gather",
        ]

    def test_subset_of_keys(self):
        c = self.CATALOG
        subset = c[[1, 2, 5]]
        assert self.run_pair([c, subset, c, subset]) == [
            "gather", "gather", "run", "gather",
        ]

    def test_new_keys_appended_mid_stream(self):
        c = self.CATALOG
        late = np.array([40, 1, 41], dtype=np.int64)
        wider = np.concatenate([c, late])
        paths = self.run_pair([c, c, late, c, wider, wider, c[2:]])
        # `wider` is verified in place but the first catalog stays the
        # remembered one.
        assert paths == [
            "gather", "run", "gather", "run", "gather", "gather", "run",
        ]

    def test_capacity_growth_inside_a_run(self):
        c = np.arange(0, 40, dtype=np.int64)
        more = np.arange(40, 100, dtype=np.int64)
        # hint=4: first touch regrows the columns and the slot table;
        # `more` regrows them again while `c` is the remembered run.
        paths = self.run_pair([c, c, more, c, c[10:], more], hint=4)
        assert paths == ["gather", "run", "gather", "run", "run", "gather"]

    def test_single_cohort_blocks_are_never_remembered(self):
        one = np.array([5], dtype=np.int64)
        assert self.run_pair([one, one, one]) == ["gather"] * 3

    def test_store_level_sequence_matches_scalar(self):
        # The same shapes through the public store, against the scalar
        # store: whole, split prefix + remainder, whole again.
        columnar, scalar = paired_stores()
        catalog = np.arange(6, dtype=np.int64)
        w = np.array([1.0, 0.5, 2.0, 0.25, 3.0, 1.5])
        for step, (lo, hi) in enumerate([(0, 6), (0, 3), (2, 6), (0, 6)]):
            blk = RecordBlock(
                catalog[lo:hi] if (lo, hi) != (0, 6) else catalog,
                w[lo:hi] * (1.0 + step),
                value=1.5,
                event_time=1.0 + 0.5 * step,
                stream=PURCHASES,
                ingest_time=1.2 + 0.5 * step,
            )
            feed_both(columnar, scalar, blk)
        assert_ledgers_equal(columnar, scalar)
        assert_contents_equal(columnar.close(0), scalar.close(0))


class TestBlocksCarryTheirCatalog:
    """Splits keep a view of the source key array; a whole take moves."""

    def test_take_prefix_and_consume_front_do_not_copy_keys(self):
        catalog = np.arange(6, dtype=np.int64)
        blk = block(catalog, [1.0] * 6, event_time=1.0)
        weights = blk.weights
        assert blk.keys is catalog
        prefix = blk.take_prefix(2)
        assert prefix.keys.base is catalog
        assert prefix.weights.base is weights  # a clean prefix is a view
        taken, budget, emptied = consume_front(blk, 2.5)
        assert (taken.keys.base is catalog, emptied, budget) == (True, False, 0.0)
        assert taken.weights.tolist() == [1.0, 1.0, 0.5]
        assert blk.keys.base is catalog and blk.keys.tolist() == [2, 3, 4, 5]
        assert blk.weights.tolist() == [0.5, 1.0, 1.0, 1.0]
        # The split wrote on copies: the prefix still sees whole cohorts.
        assert weights.tolist() == [1.0] * 6
        assert prefix.weights.tolist() == [1.0, 1.0]

    def test_whole_take_moves_both_arrays(self):
        catalog = np.arange(4, dtype=np.int64)
        blk = block(catalog, [1.0, 2.0, 3.0, 4.0], event_time=1.0)
        weights = blk.weights
        taken, budget, emptied = consume_front(blk, 11.0)
        assert taken.keys is catalog and taken.weights is weights
        assert (emptied, budget, len(blk)) == (True, 1.0, 0)
        assert blk.traces is not taken.traces
