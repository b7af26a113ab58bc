"""Per-node CPU-load and network-usage sampling (paper Figure 10).

The paper plots, per worker node, CPU load (percent) and network usage
(MB per sampling interval) over the course of a run.  Engines report
their consumed core-seconds and transferred bytes to a
:class:`ResourceMonitor`; the monitor converts them into the same
per-interval series the paper shows.

The headline observation reproduced here: Flink, being network-bound, has
the *lowest* CPU load, while Storm and Spark burn ~50% more CPU cycles
for less throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.cluster import NODE_CORES, ClusterSpec
from repro.sim.simulator import Simulator

#: Simulated seconds between two CPU/network samples of a trial's
#: resource monitor (Figure 10).
RESOURCE_INTERVAL_S = 5.0


@dataclass(frozen=True)
class ResourceSample:
    """One sampling interval of one node."""

    time: float
    node: int
    cpu_load_pct: float
    network_mb: float


class ResourceMonitor:
    """Accumulates engine resource usage and emits per-interval samples.

    Engines call :meth:`add_cpu` / :meth:`add_network` continuously; a
    periodic process snapshots the accumulators every
    :data:`RESOURCE_INTERVAL_S` seconds.  Usage is attributed uniformly
    across worker nodes.
    """

    def __init__(self, sim: Simulator, cluster: ClusterSpec) -> None:
        self._sim = sim
        self._cluster = cluster
        self._cpu_core_seconds: Dict[int, float] = {
            n: 0.0 for n in range(cluster.workers)
        }
        self._network_bytes: Dict[int, float] = {
            n: 0.0 for n in range(cluster.workers)
        }
        self.samples: List[ResourceSample] = []
        self._process = sim.every(RESOURCE_INTERVAL_S, self._sample)

    def add_cpu(self, core_seconds: float) -> None:
        """Record consumed CPU time, spread across workers."""
        if core_seconds < 0:
            raise ValueError("core_seconds must be >= 0")
        share = core_seconds / self._cluster.workers
        for n in self._cpu_core_seconds:
            self._cpu_core_seconds[n] += share

    def add_network(self, transferred_bytes: float) -> None:
        """Record bytes moved, spread across workers."""
        if transferred_bytes < 0:
            raise ValueError("transferred_bytes must be >= 0")
        share = transferred_bytes / self._cluster.workers
        for n in self._network_bytes:
            self._network_bytes[n] += share

    def _sample(self, sim: Simulator) -> None:
        interval_core_seconds = RESOURCE_INTERVAL_S * NODE_CORES
        for node in range(self._cluster.workers):
            cpu_pct = 100.0 * self._cpu_core_seconds[node] / interval_core_seconds
            self.samples.append(
                ResourceSample(
                    time=sim.now,
                    node=node,
                    cpu_load_pct=min(100.0, cpu_pct),
                    network_mb=self._network_bytes[node] / 1e6,
                )
            )
            self._cpu_core_seconds[node] = 0.0
            self._network_bytes[node] = 0.0

    def stop(self) -> None:
        self._process.stop()

    def node_series(self, node: int) -> List[ResourceSample]:
        """All samples for one node, in time order."""
        return [s for s in self.samples if s.node == node]

    def mean_cpu_load(self) -> float:
        """Run-wide mean CPU load across nodes and intervals."""
        if not self.samples:
            return 0.0
        return sum(s.cpu_load_pct for s in self.samples) / len(self.samples)
