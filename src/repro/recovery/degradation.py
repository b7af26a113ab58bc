"""Graceful degradation: bounded-latency load shedding + admission ramps.

The paper's failure rule is binary: if a driver queue overflows, the SUT
"cannot sustain the given throughput" and the trial dies.  Real engines
sit between those extremes -- near the sustainable-throughput knee
(Definition 5) they *degrade*: shed load to keep latency bounded, or
re-admit ingest gently after a recovery pause instead of slamming the
queues with the whole backlog at once (ShuffleBench, arXiv:2403.04570,
makes the same argument for sustained-load benchmarks).

:class:`DegradationPolicy` captures both behaviours per engine:

- **Load shedding** (``shed="oldest"`` / ``"newest"``): each tick the
  engine computes the backlog it can clear within
  ``max_queue_delay_s`` at current capacity and drops the excess at the
  driver queues *before* pulling.  Dropping ``oldest`` bounds the
  queueing delay directly (the head of the queue is the oldest data);
  dropping ``newest`` preserves in-flight history at the cost of fresher
  results.  Shed weight is first-class in the conservation ledgers:
  the driver-side balance becomes ``pushed == pulled + queued + shed``
  and the engine ledger grows a ``shed`` term so nothing silently
  disappears.
- **Admission ramp** (``readmission_ramp_s``): after a recovery or
  migration pause ends, the ingest budget is scaled from
  :data:`RAMP_FLOOR` back to 1.0 linearly over the ramp window.  A zero
  ramp reproduces the legacy step re-admission.
"""

from __future__ import annotations

from dataclasses import dataclass

#: No shedding: queue overflow remains the fatal connection drop.
SHED_NONE = "none"
#: Drop from the queue head -- the oldest waiting cohorts.
SHED_OLDEST = "oldest"
#: Drop from the queue tail -- the newest arrivals.
SHED_NEWEST = "newest"

SHED_MODES = (SHED_NONE, SHED_OLDEST, SHED_NEWEST)

#: Admission fraction at the instant a pause ends, when ramping.
RAMP_FLOOR = 0.25


@dataclass(frozen=True)
class DegradationPolicy:
    """How an engine trades completeness for bounded latency."""

    shed: str = SHED_NONE
    """Load-shedding mode: ``none`` (legacy fail-on-overflow),
    ``oldest`` (bound queueing delay), or ``newest`` (favour history)."""
    max_queue_delay_s: float = 5.0
    """Latency bound the shedder enforces: backlog beyond what current
    capacity clears in this many seconds is dropped."""
    readmission_ramp_s: float = 0.0
    """After a recovery pause, ramp the ingest budget back to full over
    this window.  Zero is a step (the legacy behaviour)."""

    def __post_init__(self) -> None:
        if self.shed not in SHED_MODES:
            raise ValueError(
                f"shed must be one of {SHED_MODES}, got {self.shed!r}"
            )
        if self.max_queue_delay_s <= 0:
            raise ValueError(
                f"max_queue_delay_s must be positive, got {self.max_queue_delay_s}"
            )
        if self.readmission_ramp_s < 0:
            raise ValueError(
                f"readmission_ramp_s must be >= 0, got {self.readmission_ramp_s}"
            )

    @property
    def sheds(self) -> bool:
        return self.shed != SHED_NONE

    @property
    def drop_oldest(self) -> bool:
        return self.shed == SHED_OLDEST

    # -- per-tick decisions ------------------------------------------------

    def shed_excess(
        self, backlog_weight: float, capacity_events_per_s: float
    ) -> float:
        """Weight to drop this tick so the backlog clears within the
        latency bound at current capacity.  Zero when not shedding or
        when the backlog is already within bounds (including the
        capacity-zero case during a pause: shedding while paused would
        throw away data the recovered engine could still process in
        time, so the bound is enforced only against live capacity)."""
        if not self.sheds or capacity_events_per_s <= 0:
            return 0.0
        allowed = capacity_events_per_s * self.max_queue_delay_s
        return max(0.0, backlog_weight - allowed)

    def admission_fraction(self, now: float, ramp_from_s: float) -> float:
        """Ingest-budget multiplier during the post-recovery ramp.

        ``ramp_from_s`` is when the pause ended (the ramp start); before
        it admission is irrelevant (the engine is paused), after
        ``readmission_ramp_s`` the multiplier is 1.
        """
        if self.readmission_ramp_s <= 0 or ramp_from_s < 0:
            return 1.0
        elapsed = now - ramp_from_s
        if elapsed >= self.readmission_ramp_s:
            return 1.0
        if elapsed < 0:
            return RAMP_FLOOR
        return RAMP_FLOOR + (1.0 - RAMP_FLOOR) * (
            elapsed / self.readmission_ramp_s
        )
