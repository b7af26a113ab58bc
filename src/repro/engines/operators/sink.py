"""The SUT output (sink) operator.

The paper measures latency "at the sink operator of the SUT" (Section
III-C): the sink is where an output tuple's emission time is fixed and
where the driver-side collector observes it.  The sink itself holds no
measurement logic beyond counting -- keeping measurement outside the SUT
is the point of the paper's driver/SUT separation -- it simply forwards
emitted tuples to the collector callback installed by the driver.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.records import OutputRecord

Collector = Callable[[List[OutputRecord]], None]


class Sink:
    """Forwards output tuples to the driver's collector."""

    def __init__(self, collector: Optional[Collector] = None) -> None:
        self._collector = collector
        self.emitted_tuples = 0
        self.emitted_weight = 0.0
        self.emitted_bytes = 0.0

    def attach(self, collector: Collector) -> None:
        self._collector = collector

    def emit(
        self,
        outputs: List[OutputRecord],
        weight: float,
        bytes_per_tuple: float,
    ) -> None:
        """Emit a bundle of output tuples produced at the same instant.

        ``weight`` is the outputs' total weight, ``left_sum`` of their
        weights in order (the emitting engine has folded it already).
        """
        if not outputs:
            return
        self.emitted_tuples += len(outputs)
        self.emitted_weight += weight
        self.emitted_bytes += weight * bytes_per_tuple
        if self._collector is not None:
            self._collector(outputs)
