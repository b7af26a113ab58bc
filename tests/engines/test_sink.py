"""Unit tests for the sink operator."""

import pytest

from repro.core.records import OutputRecord
from repro.engines.operators.sink import Sink


def out(weight=1.0):
    return OutputRecord(
        key=0,
        value=1.0,
        event_time=1.0,
        processing_time=1.5,
        emit_time=2.0,
        weight=weight,
    )


class TestSink:
    def test_forwards_to_collector(self):
        received = []
        sink = Sink(received.extend)
        sink.emit([out(), out()], 2.0, bytes_per_tuple=48.0)
        assert len(received) == 2

    def test_counts_tuples_weight_bytes(self):
        sink = Sink()
        sink.emit([out(weight=2.0), out(weight=3.0)], 5.0, bytes_per_tuple=10.0)
        assert sink.emitted_tuples == 2
        assert sink.emitted_weight == pytest.approx(5.0)
        assert sink.emitted_bytes == pytest.approx(50.0)

    def test_empty_emission_is_noop(self):
        received = []
        sink = Sink(received.extend)
        sink.emit([], 0, bytes_per_tuple=10.0)
        assert received == []
        assert sink.emitted_tuples == 0

    def test_attach_replaces_collector(self):
        first, second = [], []
        sink = Sink(first.extend)
        sink.attach(second.extend)
        sink.emit([out()], 1.0, bytes_per_tuple=1.0)
        assert first == []
        assert len(second) == 1

    def test_no_collector_still_counts(self):
        sink = Sink()
        sink.emit([out()], 1.0, bytes_per_tuple=1.0)
        assert sink.emitted_tuples == 1
