"""The testbed: node hardware and cluster deployment.

The paper's testbed (Section VI-A): 20 nodes, each a 2.40 GHz Intel Xeon
E5620 with 16 cores and 16 GB RAM, connected at 1 Gb/s; a dedicated
master for the streaming system and an *equal* number of worker and
driver nodes (2, 4, and 8).  Data generator and queue pairs live on the
driver nodes; no driver instance shares a machine with the SUT.

Every node is that machine, so its hardware is module constants; a
:class:`ClusterSpec` says only how many workers run the SUT and how
many hot spares stand by.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

#: Cores per node.
NODE_CORES = 16
#: RAM per node in bytes (16 GB).
NODE_RAM_BYTES = 16.0 * 1024**3
#: NIC capacity per node in bytes/second (1 Gb/s -> 125 MB/s).
NIC_BYTES_PER_S = 1.0 * 1e9 / 8.0


@dataclass(frozen=True)
class ClusterSpec:
    """A deployment: master + workers (SUT) + as many drivers.

    ``workers`` is the paper's "n-node" figure of merit: a "2-node"
    experiment means 2 worker nodes running the SUT plus 2 driver nodes
    running generator+queue pairs plus a dedicated master.
    """

    workers: int
    standby: int = 0
    """Hot spare worker nodes provisioned but idle: they run no
    operators (and contribute no capacity, cores, or NIC ingress) until
    the ``standby`` reschedule mode (:mod:`repro.recovery.reschedule`)
    promotes them after a fault.  The engine's only standby pool."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least 1 worker, got {self.workers}")
        if self.standby < 0:
            raise ValueError(f"standby must be >= 0, got {self.standby}")

    @property
    def worker_cores(self) -> int:
        """Total cores available to the SUT."""
        return self.workers * NODE_CORES

    @property
    def worker_ram_bytes(self) -> float:
        """Total RAM available to the SUT across worker nodes."""
        return self.workers * NODE_RAM_BYTES

    def with_workers(self, workers: int) -> "ClusterSpec":
        """This deployment resized to ``workers`` worker nodes.

        Used by the autoscaler on every completed rescale: the rest of
        the deployment (drivers, master, standby pool) is fixed for the
        trial -- elasticity only moves the worker count.
        """
        return replace(self, workers=workers)


PAPER_CLUSTER_SIZES: List[int] = [2, 4, 8]
"""Worker counts used in every table of the paper's evaluation."""
