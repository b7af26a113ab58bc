"""Unit tests for the testbed constants and cluster specifications."""

import pytest

from repro.sim.cluster import (
    NIC_BYTES_PER_S,
    NODE_CORES,
    NODE_RAM_BYTES,
    PAPER_CLUSTER_SIZES,
    ClusterSpec,
)


class TestNodeSpec:
    """Every node is the paper's machine: 16 cores, 16 GB, 1 Gb/s."""

    def test_paper_node_defaults(self):
        assert NODE_CORES == 16
        assert NODE_RAM_BYTES == 16.0 * 1024**3

    def test_nic_bytes_per_s(self):
        assert NIC_BYTES_PER_S == pytest.approx(125e6)

    def test_ram_bytes(self):
        assert NODE_RAM_BYTES == 16 * 1024**3


class TestClusterSpec:
    def test_paper_cluster_layout(self):
        cluster = ClusterSpec(4)
        assert cluster.workers == 4
        assert cluster.standby == 0

    def test_worker_cores(self):
        assert ClusterSpec(2).worker_cores == 32
        assert ClusterSpec(8).worker_cores == 128

    def test_worker_ram(self):
        assert ClusterSpec(2).worker_ram_bytes == 2 * 16 * 1024**3

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=0)

    def test_paper_sizes(self):
        assert PAPER_CLUSTER_SIZES == [2, 4, 8]
