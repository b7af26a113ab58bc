"""Unit and property tests for records, cohorts, and output tuples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import (
    ADS,
    PURCHASES,
    OutputRecord,
    Record,
    split_cohort,
)


class TestRecord:
    def test_defaults(self):
        r = Record(key=3, value=9.5, event_time=1.0)
        assert r.weight == 1.0
        assert r.stream == PURCHASES
        assert r.ingest_time is None

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Record(key=0, value=0.0, event_time=0.0, weight=0.0)
        with pytest.raises(ValueError):
            Record(key=0, value=0.0, event_time=0.0, weight=-1.0)

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValueError):
            Record(key=0, value=0.0, event_time=0.0, stream="clicks")

    def test_slots_prevent_arbitrary_attrs(self):
        r = Record(key=0, value=0.0, event_time=0.0)
        with pytest.raises(AttributeError):
            r.extra = 1


class TestOutputRecord:
    def test_event_time_latency(self):
        out = OutputRecord(
            key=1,
            value=42.0,
            event_time=600.0,
            processing_time=601.0,
            emit_time=610.0,
        )
        assert out.event_time_latency == pytest.approx(10.0)
        assert out.processing_time_latency == pytest.approx(9.0)

    def test_paper_figure1_latencies(self):
        # Figure 1: window outputs at time 610 with per-key max event
        # times 600 (US), 599 (Jpn), 595 (Ger) -> latencies 10, 11, 15.
        per_key = {"US": 600.0, "Jpn": 599.0, "Ger": 595.0}
        expected = {"US": 10.0, "Jpn": 11.0, "Ger": 15.0}
        for name, max_event_time in per_key.items():
            out = OutputRecord(
                key=hash(name),
                value=0.0,
                event_time=max_event_time,
                processing_time=601.0,
                emit_time=610.0,
            )
            assert out.event_time_latency == pytest.approx(expected[name])


class TestSplitCohort:
    def test_split_preserves_weight(self):
        r = Record(key=1, value=2.0, event_time=3.0, weight=10.0, stream=ADS)
        parts = split_cohort(r, 4)
        assert len(parts) == 4
        assert sum(p.weight for p in parts) == pytest.approx(10.0)
        for p in parts:
            assert p.key == 1
            assert p.event_time == 3.0
            assert p.stream == ADS

    def test_split_one_is_copy(self):
        r = Record(key=1, value=2.0, event_time=3.0, weight=5.0)
        (part,) = split_cohort(r, 1)
        assert part.weight == pytest.approx(5.0)
        assert part is not r

    def test_invalid_parts_rejected(self):
        r = Record(key=1, value=2.0, event_time=3.0)
        with pytest.raises(ValueError):
            split_cohort(r, 0)

    @given(weight=st.floats(0.001, 1e6), parts=st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_split_conservation_property(self, weight, parts):
        r = Record(key=0, value=1.0, event_time=0.0, weight=weight)
        assert sum(
            p.weight for p in split_cohort(r, parts)
        ) == pytest.approx(weight)
