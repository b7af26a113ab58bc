"""Unit and property tests for the driver queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import DriverQueue, QueueSet
from repro.sim.failures import ConnectionDropped

from tests.cohorts import cohort, expand


class TestFifo:
    def test_pull_order_is_fifo(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=1.0, key=1))
        q.push_block(cohort(event_time=2.0, key=2))
        pulled = expand(q.pull_blocks(10.0))
        assert [r.key for r in pulled] == [1, 2]

    def test_pull_respects_budget(self):
        q = DriverQueue("q")
        for t in range(5):
            q.push_block(cohort(event_time=float(t)))
        pulled = expand(q.pull_blocks(3.0))
        assert sum(r.weight for r in pulled) == pytest.approx(3.0)
        assert q.queued_weight == pytest.approx(2.0)

    def test_head_cohort_split_on_partial_pull(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=1.0, weight=10.0))
        pulled = expand(q.pull_blocks(4.0))
        assert len(pulled) == 1
        assert pulled[0].weight == pytest.approx(4.0)
        assert q.queued_weight == pytest.approx(6.0)
        rest = expand(q.pull_blocks(100.0))
        assert rest[0].weight == pytest.approx(6.0)

    def test_pull_zero_budget_returns_nothing(self):
        q = DriverQueue("q")
        q.push_block(cohort())
        assert q.pull_blocks(0.0) == []

    def test_weight_conservation(self):
        q = DriverQueue("q")
        total = 0.0
        for t in range(10):
            q.push_block(cohort(event_time=float(t), weight=1.7))
            total += 1.7
        pulled_weight = 0.0
        while q.queued_weight > 0:
            batch = expand(q.pull_blocks(2.3))
            pulled_weight += sum(r.weight for r in batch)
        assert pulled_weight == pytest.approx(total)
        assert q.pulled_weight == pytest.approx(total)
        assert q.pushed_weight == pytest.approx(total)


class TestWatermark:
    def test_watermark_tracks_last_pull(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=1.0))
        q.push_block(cohort(event_time=2.0))
        q.pull_blocks(1.0)
        assert q.watermark == pytest.approx(1.0)

    def test_empty_queue_watermark_advances_to_frontier(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=5.0))
        q.pull_blocks(10.0)
        q_frontier = q.watermark
        assert q_frontier == pytest.approx(5.0)

    def test_frontier_tracks_pushes(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=3.0))
        assert q.frontier_event_time == pytest.approx(3.0)

    def test_oldest_wait(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=2.0))
        assert q.oldest_wait(now=10.0) == pytest.approx(8.0)
        q.pull_blocks(10.0)
        assert q.oldest_wait(now=10.0) == 0.0

    def test_oldest_wait_uses_push_time_not_event_time(self):
        """Regression: a late (disordered) record pushed just now must
        not look 'old' to the queue-delay signal."""
        q = DriverQueue("q")
        # Event generated at t=2 but delivered late, enqueued at t=10.
        q.push_block(cohort(event_time=2.0), at_time=10.0)
        assert q.oldest_wait(now=10.5) == pytest.approx(0.5)
        assert q.head_push_time() == pytest.approx(10.0)
        # Event-time is still what the generation frontier records.
        assert q.frontier_event_time == pytest.approx(2.0)

    def test_oldest_wait_falls_back_to_event_time_without_clock(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=3.0))  # no at_time supplied
        assert q.oldest_wait(now=5.0) == pytest.approx(2.0)

    def test_split_cohort_keeps_original_push_time(self):
        q = DriverQueue("q")
        q.push_block(cohort(event_time=0.0, weight=10.0), at_time=1.0)
        q.pull_blocks(4.0)  # splits the head; remainder waited since t=1
        assert q.head_push_time() == pytest.approx(1.0)
        assert q.oldest_wait(now=6.0) == pytest.approx(5.0)


class TestConnectionDrop:
    def test_overflow_raises_connection_dropped(self):
        q = DriverQueue("q", capacity_weight=2.0)
        q.push_block(cohort(weight=1.5))
        with pytest.raises(ConnectionDropped):
            q.push_block(cohort(weight=1.0))
        assert q.dropped

    def test_dropped_queue_rejects_further_pushes(self):
        q = DriverQueue("q", capacity_weight=1.0)
        with pytest.raises(ConnectionDropped):
            q.push_block(cohort(weight=2.0))
        with pytest.raises(ConnectionDropped):
            q.push_block(cohort(weight=0.1))

    def test_capacity_boundary_is_inclusive(self):
        q = DriverQueue("q", capacity_weight=2.0)
        q.push_block(cohort(weight=2.0))  # exactly at capacity: fine
        assert not q.dropped


class TestQueueSet:
    def make_set(self):
        q1, q2 = DriverQueue("a"), DriverQueue("b")
        q1.push_block(cohort(event_time=1.0, weight=2.0))
        q2.push_block(cohort(event_time=3.0, weight=4.0))
        return QueueSet([q1, q2]), q1, q2

    def test_aggregates(self):
        qs, q1, q2 = self.make_set()
        assert qs.total_queued_weight == pytest.approx(6.0)
        assert qs.total_pushed_weight == pytest.approx(6.0)
        assert len(qs) == 2

    def test_watermark_is_minimum(self):
        qs, q1, q2 = self.make_set()
        q1.pull_blocks(10.0)
        q2.pull_blocks(10.0)
        assert qs.watermark == pytest.approx(1.0)

    def test_max_oldest_wait(self):
        qs, q1, q2 = self.make_set()
        assert qs.max_oldest_wait(now=10.0) == pytest.approx(9.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            QueueSet([])


class TestQueueProperties:
    @given(
        weights=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30),
        budget=st.floats(0.1, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_pull_never_exceeds_budget(self, weights, budget):
        q = DriverQueue("q")
        for i, w in enumerate(weights):
            q.push_block(cohort(event_time=float(i), weight=w))
        pulled = expand(q.pull_blocks(budget))
        assert sum(r.weight for r in pulled) <= budget + 1e-6

    @given(weights=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_total_weight_conserved_across_pulls(self, weights):
        q = DriverQueue("q")
        for i, w in enumerate(weights):
            q.push_block(cohort(event_time=float(i), weight=w))
        drained = 0.0
        for _ in range(1000):
            batch = expand(q.pull_blocks(7.3))
            if not batch:
                break
            drained += sum(r.weight for r in batch)
        assert drained == pytest.approx(sum(weights))

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.floats(0.1, 50.0)),
                st.tuples(st.just("pull"), st.floats(0.05, 20.0)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_push_pull_conserves_weight_across_cohort_splits(self, ops):
        """Property: at every step, pushed == pulled + queued, even when
        pulls split cohorts into fractional-weight pieces."""
        q = DriverQueue("q")
        pushed = 0.0
        pulled = 0.0
        for step, (op, amount) in enumerate(ops):
            if op == "push":
                q.push_block(
                    cohort(event_time=float(step), weight=amount),
                    at_time=float(step),
                )
                pushed += amount
            else:
                batch = expand(q.pull_blocks(amount))
                pulled += sum(r.weight for r in batch)
            assert q.pushed_weight == pytest.approx(pushed)
            assert q.pulled_weight == pytest.approx(pulled)
            assert q.queued_weight == pytest.approx(pushed - pulled, abs=1e-6)
            # The push-time ledger stays aligned with the cohort deque.
            assert len(q._push_times) == len(q._items)
        remainder = sum(r.weight for r in expand(q.pull_blocks(float("inf"))))
        assert pulled + remainder == pytest.approx(pushed)
