"""Unit tests for CPU/network resource sampling (Figure 10 substrate)."""

import pytest

from repro.sim.cluster import ClusterSpec
from repro.sim.resources import ResourceMonitor
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def monitor(sim):
    return ResourceMonitor(sim, ClusterSpec(2))


class TestSampling:
    def test_samples_emitted_per_interval_per_node(self, sim, monitor):
        sim.run_until(10.0)
        # 2 intervals * 2 worker nodes.
        assert len(monitor.samples) == 4
        assert {s.node for s in monitor.samples} == {0, 1}

    def test_cpu_load_percentage(self, sim, monitor):
        # 16 core-seconds per node over a 5 s interval on a 16-core
        # node = 20%.
        monitor.add_cpu(32.0)
        sim.run_until(5.0)
        node0 = monitor.node_series(0)[0]
        assert node0.cpu_load_pct == pytest.approx(20.0)

    def test_cpu_load_capped_at_100(self, sim, monitor):
        monitor.add_cpu(1e6)
        sim.run_until(5.0)
        assert monitor.node_series(0)[0].cpu_load_pct == 100.0

    def test_spread_attribution(self, sim, monitor):
        monitor.add_cpu(32.0)  # spread over 2 nodes -> 16 each -> 20%
        sim.run_until(5.0)
        assert monitor.node_series(0)[0].cpu_load_pct == pytest.approx(20.0)
        assert monitor.node_series(1)[0].cpu_load_pct == pytest.approx(20.0)

    def test_network_mb(self, sim, monitor):
        monitor.add_network(100e6)  # 50 MB on each of 2 nodes
        sim.run_until(5.0)
        assert monitor.node_series(1)[0].network_mb == pytest.approx(50.0)

    def test_accumulators_reset_each_interval(self, sim, monitor):
        monitor.add_cpu(16.0)
        sim.run_until(5.0)
        sim.run_until(10.0)
        series = monitor.node_series(0)
        assert series[0].cpu_load_pct > 0
        assert series[1].cpu_load_pct == 0.0

    def test_negative_rejected(self, monitor):
        with pytest.raises(ValueError):
            monitor.add_cpu(-1.0)
        with pytest.raises(ValueError):
            monitor.add_network(-1.0)

    def test_mean_cpu_load(self, sim, monitor):
        monitor.add_cpu(16.0)
        sim.run_until(5.0)
        # Both nodes at 10% -> mean 10%.
        assert monitor.mean_cpu_load() == pytest.approx(10.0)

    def test_stop_halts_sampling(self, sim, monitor):
        sim.run_until(5.0)
        monitor.stop()
        sim.run_until(20.0)
        assert len(monitor.samples) == 2
