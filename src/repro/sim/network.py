"""Data-plane model: the network between the driver and the SUT.

The paper observes that Flink's windowed-aggregation throughput is flat at
~1.2 M events/s across cluster sizes because the *network* saturates
(Section VI-B, Experiment 1).  With ~104-byte events, 1 Gb/s is
1e9/8/104 = 1.202 M events/s -- we therefore model the generator-to-SUT
path as a shared 1 Gb/s data-plane segment (the effective bottleneck link
of their topology) plus per-node NIC limits.

Windowed joins additionally push *result* traffic through the plane,
which is why the paper's join saturation point (1.19 M/s) sits slightly
below the aggregation one (Table III): results and ingest share capacity
here exactly as they do on the wire.

The plane is a continuous-refill token bucket, so callers at any tick
granularity observe the same average bandwidth.
"""

from __future__ import annotations

from repro.sim.simulator import Simulator

#: The shared generator-to-SUT bottleneck in bytes/second; the paper's
#: testbed is 1 Gb/s.
SEGMENT_BYTES_PER_S = 1.0 * 1e9 / 8.0
#: Seconds of unused capacity the segment can bank -- enough for
#: sub-second pull bursts (Storm's spout polls in batches) while keeping
#: the average at the line rate.
BURST_SECONDS = 0.5


class DataPlane:
    """Token-bucket shared link with usage accounting.

    All SUT ingest traffic and all sink-result traffic is debited here.
    ``allocate`` grants at most the banked capacity; the caller throttles
    itself to the granted amount (that throttling *is* the network
    backpressure the paper observes for Flink at 4+ nodes).
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._available = SEGMENT_BYTES_PER_S * BURST_SECONDS
        self._last_refill = sim.now
        self.total_ingest_bytes = 0.0
        self.total_result_bytes = 0.0

    def _refill(self) -> None:
        now = self._sim.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            cap = SEGMENT_BYTES_PER_S * BURST_SECONDS
            self._available = min(
                cap, self._available + elapsed * SEGMENT_BYTES_PER_S
            )
            self._last_refill = now

    def allocate(self, wanted_bytes: float, kind: str = "ingest") -> float:
        """Grant up to ``wanted_bytes`` of link capacity; returns granted.

        ``kind`` is "ingest" (generator -> SUT events) or "result"
        (SUT sink -> consumers); both share the segment but are accounted
        separately for the resource-usage figures.
        """
        if wanted_bytes < 0:
            raise ValueError(f"wanted_bytes must be >= 0, got {wanted_bytes}")
        self._refill()
        granted = min(wanted_bytes, self._available)
        self._available -= granted
        if kind == "result":
            self.total_result_bytes += granted
        else:
            self.total_ingest_bytes += granted
        return granted
