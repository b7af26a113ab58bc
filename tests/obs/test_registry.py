"""Unit tests for the metrics registry instruments and sampler."""

import math

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.simulator import Simulator


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.add(2.0)
        c.add(3.5)
        assert c.read() == 5.5

    def test_gauge_set_and_bind(self):
        g = Gauge("x")
        g.set(4.0)
        assert g.read() == 4.0
        g.bind(lambda: 7.0)
        assert g.read() == 7.0

    def test_histogram_mean_and_quantiles(self):
        h = Histogram("lat", lo=1e-3, hi=1e2, bins=50)
        for v in (0.01, 0.1, 1.0, 10.0):
            h.observe(v)
        assert h.total_weight == 4.0
        assert h.mean == pytest.approx(11.11 / 4.0)
        # Quantiles are bin midpoints: log-accurate, not exact.
        assert h.quantile(0.5) == pytest.approx(0.1, rel=0.2)
        assert math.isnan(Histogram("empty").quantile(0.5))

    def test_histogram_clamps_out_of_range(self):
        h = Histogram("lat", lo=1.0, hi=10.0, bins=4)
        h.observe(0.01)
        h.observe(1000.0)
        assert h.counts[0] == 1.0
        assert h.counts[-1] == 1.0

    def test_histogram_weighted_observations(self):
        h = Histogram("lat", lo=0.1, hi=10.0, bins=8)
        h.observe(1.0, weight=9.0)
        h.observe(5.0, weight=1.0)
        assert h.total_weight == 10.0
        assert h.mean == pytest.approx(1.4)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_sample_snapshots_counters_and_gauges(self):
        reg = MetricsRegistry(interval_s=0.5)
        c = reg.counter("ingested")
        g = reg.gauge("depth").bind(lambda: 3.0)
        c.add(10.0)
        reg.sample(1.0)
        c.add(5.0)
        reg.sample(2.0)
        assert reg.series["ingested"].values.tolist() == [10.0, 15.0]
        assert reg.series["depth"].values.tolist() == [3.0, 3.0]
        assert reg.series["ingested"].times.tolist() == [1.0, 2.0]
        assert reg.sample_count == 2

    def test_install_samples_at_interval(self):
        sim = Simulator()
        reg = MetricsRegistry(interval_s=1.0)
        reg.gauge("now").bind(lambda: 1.0)
        reg.install(sim)
        sim.run_until(5.0)
        assert reg.sample_count == 5

    def test_latest_reads_both_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c").add(2.0)
        reg.gauge("g").set(3.0)
        assert reg.latest("c") == 2.0
        assert reg.latest("g") == 3.0
        assert math.isnan(reg.latest("missing"))

    def test_to_dict_exports_series_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").add(1.0)
        reg.histogram("h").observe(0.5)
        reg.sample(1.0)
        payload = reg.to_dict()
        assert payload["final"]["c"] == 1.0
        assert payload["series"]["c"]["v"] == [1.0]
        assert payload["histograms"]["h"]["total_weight"] == 1.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="interval_s"):
            MetricsRegistry(interval_s=0.0)

    def test_bound_gauges_read_once_per_sample_and_afresh_outside(self):
        reg = MetricsRegistry()
        ledger = {"a": 1.0, "b": 2.0}
        reads = []

        def read():
            reads.append(dict(ledger))
            return dict(ledger)

        reg.bind_gauges("ledger.", read)
        assert reg.names() == ["ledger.a", "ledger.b"]
        reads.clear()
        reg.sample(1.0)
        ledger.update(a=5.0, b=6.0)
        reg.sample(2.0)
        assert len(reads) == 2  # one evaluation per sample, not per gauge
        assert reg.series["ledger.a"].values.tolist() == [1.0, 5.0]
        assert reg.series["ledger.b"].values.tolist() == [2.0, 6.0]
        # Outside a sample every read is fresh, never the last snapshot.
        ledger.update(a=7.0)
        assert reg.latest("ledger.a") == 7.0
        assert reg.to_dict()["final"] == {"ledger.a": 7.0, "ledger.b": 6.0}
        del ledger["b"]
        assert reg.latest("ledger.b") == 0.0
