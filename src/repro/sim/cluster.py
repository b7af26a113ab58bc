"""Node and cluster specifications.

The paper's testbed (Section VI-A): 20 nodes, each a 2.40 GHz Intel Xeon
E5620 with 16 cores and 16 GB RAM, connected at 1 Gb/s; a dedicated
master for the streaming system and an *equal* number of worker and
driver nodes (2, 4, and 8).  Data generator and queue pairs live on the
driver nodes; no driver instance shares a machine with the SUT.

:func:`paper_cluster` builds exactly that deployment for a given worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of a single machine."""

    cores: int = 16
    ram_gb: float = 16.0
    nic_gbps: float = 1.0
    clock_ghz: float = 2.40

    @property
    def nic_bytes_per_s(self) -> float:
        """NIC capacity in bytes/second (1 Gb/s -> 125 MB/s)."""
        return self.nic_gbps * 1e9 / 8.0

    @property
    def ram_bytes(self) -> float:
        return self.ram_gb * 1024**3


@dataclass(frozen=True)
class ClusterSpec:
    """A deployment: master + workers (SUT) + drivers (generator/queues).

    ``workers`` is the paper's "n-node" figure of merit: a "2-node"
    experiment means 2 worker nodes running the SUT plus 2 driver nodes
    running generator+queue pairs plus a dedicated master.
    """

    workers: int
    drivers: int
    node: NodeSpec = field(default_factory=NodeSpec)
    has_dedicated_master: bool = True
    standby: int = 0
    """Hot spare worker nodes provisioned but idle: they run no
    operators (and contribute no capacity, cores, or NIC ingress) until
    the ``standby`` reschedule mode (:mod:`repro.recovery.reschedule`)
    promotes them after a fault.  The engine's only standby pool."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least 1 worker, got {self.workers}")
        if self.drivers < 1:
            raise ValueError(f"need at least 1 driver, got {self.drivers}")
        if self.standby < 0:
            raise ValueError(f"standby must be >= 0, got {self.standby}")

    @property
    def worker_cores(self) -> int:
        """Total cores available to the SUT."""
        return self.workers * self.node.cores

    @property
    def worker_ram_bytes(self) -> float:
        """Total RAM available to the SUT across worker nodes."""
        return self.workers * self.node.ram_bytes

    def with_workers(self, workers: int) -> "ClusterSpec":
        """This deployment resized to ``workers`` worker nodes.

        Used by the autoscaler on every completed rescale: the rest of
        the deployment (drivers, master, node hardware) is fixed for the
        trial -- elasticity only moves the worker count.
        """
        return replace(self, workers=workers)

    def describe(self) -> str:
        return (
            f"{self.workers}-node cluster "
            f"({self.workers} workers + {self.drivers} drivers"
            f"{f' + {self.standby} standby' if self.standby else ''}"
            f"{' + master' if self.has_dedicated_master else ''}, "
            f"{self.node.cores} cores / {self.node.ram_gb:g} GB / "
            f"{self.node.nic_gbps:g} Gb/s per node)"
        )


def paper_cluster(workers: int) -> ClusterSpec:
    """The ICDE'18 paper's deployment for a given worker count (2, 4, 8).

    Any positive worker count is accepted so sweeps can explore other
    sizes, but the paper's tables use 2, 4 and 8.
    """
    return ClusterSpec(workers=workers, drivers=workers, node=NodeSpec())


PAPER_CLUSTER_SIZES: List[int] = [2, 4, 8]
"""Worker counts used in every table of the paper's evaluation."""
