"""Operator state backends and memory accounting.

Experiment 3 (large windows) and Experiment 4 (skew) hinge on how much
state an engine keeps and what happens when it outgrows memory:

- Storm buffers raw tuples and, without user-supplied "advanced data
  structures that can spill to disk", hits memory exceptions;
- Flink and Spark "have built-in data structures that can spill to disk
  when needed", at a throughput cost;
- Spark's window caching "consumes the memory aggressively", spilling the
  block-manager memory store to disk -- which is the pathology the paper
  fixed with an Inverse Reduce Function.

:class:`StateBackend` tracks bytes of live operator state against a heap
budget.  When the budget is exceeded it either raises
:class:`~repro.sim.failures.OutOfMemory` (no spill support) or enters a
*spilling* regime that multiplies processing costs.
"""

from __future__ import annotations

from repro.sim.cluster import ClusterSpec
from repro.sim.failures import OutOfMemory

#: Fraction of worker RAM available for operator state (the rest is the
#: engine runtime, buffers, and JVM overhead).
HEAP_FRACTION = 0.4
#: Multiplier on per-event processing cost while spilling.
SPILL_SLOWDOWN = 2.5


class StateBackend:
    """Byte-level accounting of one engine's operator state.

    The engine charges bytes when it buffers data (window contents,
    cached RDDs, join build sides) and releases them when windows close
    or caches are evicted.  ``cost_multiplier`` is 1.0 in memory and
    :data:`SPILL_SLOWDOWN` while any state is spilled.  ``can_spill``
    says whether state beyond the budget spills to disk or, past the
    OOM headroom, kills the engine.
    """

    def __init__(self, cluster: ClusterSpec, can_spill: bool) -> None:
        self.can_spill = can_spill
        self.budget_bytes = cluster.worker_ram_bytes * HEAP_FRACTION
        self.used_bytes = 0.0
        self.spilled_bytes = 0.0
        self.peak_bytes = 0.0
        self.oom_headroom = 1.1
        """Hard-failure threshold: state beyond budget * headroom kills a
        non-spilling engine even before the gradual pressure would."""

    @property
    def spilling(self) -> bool:
        return self.spilled_bytes > 0

    @property
    def cost_multiplier(self) -> float:
        """Per-event cost multiplier given current memory pressure."""
        return SPILL_SLOWDOWN if self.spilling else 1.0

    def charge(self, nbytes: float, at_time: float = float("nan")) -> None:
        """Account ``nbytes`` of new state; may spill or raise OutOfMemory."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        if self.used_bytes <= self.budget_bytes:
            return
        if not self.can_spill:
            if self.used_bytes > self.budget_bytes * self.oom_headroom:
                raise OutOfMemory(
                    f"operator state {self.used_bytes / 1e9:.2f} GB exceeds "
                    f"heap budget {self.budget_bytes / 1e9:.2f} GB "
                    f"(no spill-to-disk support)",
                    at_time=at_time,
                )
            return
        self.spilled_bytes = self.used_bytes - self.budget_bytes

    def release(self, nbytes: float) -> None:
        """Account ``nbytes`` of state freed (window closed, cache evicted)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.used_bytes = max(0.0, self.used_bytes - nbytes)
        if self.used_bytes <= self.budget_bytes:
            self.spilled_bytes = 0.0
        else:
            self.spilled_bytes = self.used_bytes - self.budget_bytes

    def utilisation(self) -> float:
        """Used state as a fraction of the heap budget."""
        if self.budget_bytes <= 0:
            return 0.0
        return self.used_bytes / self.budget_bytes
