"""Unit tests for node/cluster specifications."""

import pytest

from repro.sim.cluster import (
    PAPER_CLUSTER_SIZES,
    ClusterSpec,
    NodeSpec,
    paper_cluster,
)


class TestNodeSpec:
    def test_paper_node_defaults(self):
        node = NodeSpec()
        assert node.cores == 16
        assert node.ram_gb == 16.0
        assert node.nic_gbps == 1.0

    def test_nic_bytes_per_s(self):
        assert NodeSpec(nic_gbps=1.0).nic_bytes_per_s == pytest.approx(125e6)

    def test_ram_bytes(self):
        assert NodeSpec(ram_gb=16).ram_bytes == 16 * 1024**3


class TestClusterSpec:
    def test_paper_cluster_layout(self):
        cluster = paper_cluster(4)
        assert cluster.workers == 4
        assert cluster.drivers == 4
        assert cluster.has_dedicated_master

    def test_worker_cores(self):
        assert paper_cluster(2).worker_cores == 32
        assert paper_cluster(8).worker_cores == 128

    def test_worker_ram(self):
        assert paper_cluster(2).worker_ram_bytes == 2 * 16 * 1024**3

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=0, drivers=1)

    def test_zero_drivers_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=1, drivers=0)

    def test_describe_mentions_size(self):
        text = paper_cluster(8).describe()
        assert "8-node" in text
        assert "16 cores" in text

    def test_paper_sizes(self):
        assert PAPER_CLUSTER_SIZES == [2, 4, 8]
