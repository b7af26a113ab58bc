"""Unit tests for the event-lifecycle tracing primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import trace as trace_module
from repro.obs.trace import (
    CREATED,
    EMITTED,
    EventTrace,
    TraceLog,
    TraceSampler,
)

from tests.oracle.kernels import maybe_trace


def make_trace(**kwargs):
    defaults = dict(trace_id=0, key=1, stream="purchases", weight=2.0)
    defaults.update(kwargs)
    return EventTrace(**defaults)


class TestEventTrace:
    def test_spans_partition_lifetime(self):
        trace = make_trace()
        for name, t in [
            ("created", 0.0),
            ("enqueued", 0.1),
            ("ingested", 0.5),
            ("closed", 2.0),
            ("emitted", 2.25),
        ]:
            trace.mark(name, t)
        spans = trace.spans()
        assert [s[0] for s in spans] == [
            "enqueue", "queue_wait", "window_buffer", "emit",
        ]
        # Contiguous: each span starts where the previous ended.
        for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
            assert end == start
        assert trace.complete
        assert sum(t1 - t0 for _, t0, t1 in spans) == pytest.approx(
            trace.event_time_latency, abs=1e-12
        )

    def test_non_canonical_pair_named_by_marks(self):
        trace = make_trace()
        trace.mark("created", 0.0)
        trace.mark("executor_queue", 1.0)
        assert trace.spans()[0][0] == "created->executor_queue"

    def test_mark_clamps_backwards_time(self):
        """A ulp of float jitter must never produce a negative span."""
        trace = make_trace()
        trace.mark("created", 1.0)
        trace.mark("enqueued", 1.0 - 1e-12)
        (_, t0, t1), = trace.spans()
        assert t1 == t0 == 1.0

    def test_incomplete_trace_has_nan_latency(self):
        trace = make_trace()
        trace.mark(CREATED, 0.0)
        assert not trace.complete
        assert trace.event_time_latency != trace.event_time_latency

    def test_to_dict_roundtrips_marks_and_spans(self):
        trace = make_trace()
        trace.mark(CREATED, 0.5)
        trace.mark(EMITTED, 1.5)
        payload = trace.to_dict()
        assert payload["complete"] is True
        assert payload["event_time_latency_s"] == pytest.approx(1.0)
        assert [m["name"] for m in payload["marks"]] == [CREATED, EMITTED]
        assert payload["spans"][0]["duration_s"] == pytest.approx(1.0)


class TestTraceSampler:
    def test_rate_one_traces_every_cohort(self):
        log = TraceLog()
        sampler = TraceSampler(1, log)
        traces = [
            maybe_trace(sampler, k, "purchases", 1.0, 0.0) for k in range(5)
        ]
        assert all(t is not None for t in traces)
        assert [t.trace_id for t in traces] == list(range(5))

    def test_rate_n_traces_every_nth(self):
        log = TraceLog()
        sampler = TraceSampler(3, log)
        hits = [
            maybe_trace(sampler, k, "purchases", 1.0, 0.0) is not None
            for k in range(9)
        ]
        assert hits == [False, False, True] * 3

    def test_rate_zero_rejected(self):
        with pytest.raises(ValueError, match="sample_rate"):
            TraceSampler(0, TraceLog())

    def test_started_trace_carries_created_mark(self):
        sampler = TraceSampler(1, TraceLog())
        trace = maybe_trace(sampler, 7, "ads", 3.0, 12.5)
        assert trace.marks == [(CREATED, 12.5)]
        assert trace.key == 7
        assert trace.stream == "ads"
        assert trace.weight == 3.0

    @given(
        rate=st.integers(min_value=1, max_value=7),
        batches=st.lists(
            st.integers(min_value=0, max_value=11), min_size=1, max_size=8
        ),
    )
    def test_batched_countdown_equals_per_cohort_path(self, rate, batches):
        """The generator's countdown (skip, or due_in/take/sync when
        the batch is reached) must make bit-identical sampling decisions
        to the per-cohort reference ``maybe_trace``, for any rate and any
        batch segmentation of the cohort sequence."""
        ref_sampler = TraceSampler(rate, TraceLog())
        fast_sampler = TraceSampler(rate, TraceLog())
        ref_hits, fast_hits = [], []
        for batch in batches:
            for i in range(batch):
                ref_hits.append(
                    maybe_trace(ref_sampler, i, "purchases", 1.0, 0.0)
                    is not None
                )
            countdown = fast_sampler.skip(batch)
            if not countdown:
                fast_hits.extend([False] * batch)
                continue
            assert countdown == fast_sampler.due_in()
            for i in range(batch):
                countdown -= 1
                if countdown == 0:
                    fast_sampler.take(i, "purchases", 1.0, 0.0)
                    fast_hits.append(True)
                    countdown = fast_sampler.sample_rate
                else:
                    fast_hits.append(False)
            fast_sampler.sync(countdown)
        assert fast_hits == ref_hits
        assert fast_sampler._counter == ref_sampler._counter
        assert fast_sampler._next_id == ref_sampler._next_id


class TestTraceLog:
    def test_overflow_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_TRACES", 2)
        log = TraceLog()
        sampler = TraceSampler(1, log)
        for k in range(5):
            maybe_trace(sampler, k, "purchases", 1.0, 0.0)
        assert len(log.started) == 2
        assert log.overflow == 3
        assert log.started_count == 5

    def test_annotate_attaches_contained_events_only(self):
        log = TraceLog()
        inside = make_trace(trace_id=0)
        inside.mark(CREATED, 1.0)
        inside.mark(EMITTED, 5.0)
        outside = make_trace(trace_id=1)
        outside.mark(CREATED, 6.0)
        outside.mark(EMITTED, 7.0)
        log.on_start(inside)
        log.on_start(outside)
        log.add_event("fault.crash", 3.0, nodes=1)
        log.annotate()
        assert [e["kind"] for e in inside.annotations] == ["fault.crash"]
        assert inside.annotations[0]["nodes"] == 1
        assert outside.annotations == []

    def test_to_dict_caps_exported_traces(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_EXPORT", 2)
        log = TraceLog()
        for i in range(5):
            trace = make_trace(trace_id=i)
            trace.mark(CREATED, 0.0)
            trace.mark(EMITTED, 1.0)
            log.on_start(trace)
            log.on_complete(trace)
        payload = log.to_dict()
        assert payload["completed"] == 5
        assert len(payload["traces"]) == 2
