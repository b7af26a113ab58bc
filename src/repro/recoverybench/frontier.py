"""Checkpoint-interval sensitivity: recovery time vs. steady overhead.

The central fault-tolerance trade-off in Vogel et al. (2024): a short
checkpoint interval keeps the post-fault replay window small (fast
recovery) but pays a synchronous pause every interval (steady-state
overhead); a long interval inverts both.  The sweep runs one
single-fault trial per interval on a log grid and reads both axes off
the same instruments the rest of the harness uses:

- **recovery time** -- driver-side metrology
  (:func:`repro.faults.metrics.compute_recovery_metrics`) on the
  binned event-time latency;
- **steady-state overhead** -- the engine's accumulated synchronous
  checkpoint pause (``checkpoint_pause_total_s`` diagnostic) as a
  fraction of the trial duration.

Frontier trials pin ``gc_rate_per_s = 0`` and zero emit jitter:
checkpoint pauses shift how many RNG draws the GC process makes, so
leaving GC on would smear seeded noise *across* interval settings and
drown the monotone trend ``repro paper`` checks.  Engines whose recovery
semantics ignore the interval (Spark's lineage recompute, Storm/Heron
tuple replay) produce a flat frontier -- itself a finding the Pareto
extraction preserves (the cheapest flat point dominates the rest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.pareto import pareto_front
from repro.grid import nan, round6

NAN = float("nan")


@dataclass(frozen=True)
class FrontierPoint:
    """One checkpoint-interval setting's measured trade-off."""

    engine: str
    interval_s: float
    recovered: bool
    recovery_time_s: float
    """NaN when latency never returned to the baseline band."""
    overhead_fraction: float
    """Synchronous checkpoint pause per second of trial."""
    checkpoints: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "interval_s": float(self.interval_s),
            "recovered": self.recovered,
            "recovery_time_s": round6(self.recovery_time_s),
            "overhead_fraction": round6(self.overhead_fraction),
            "checkpoints": self.checkpoints,
        }


def point_from_digest(
    digest: Dict[str, object], engine: str, interval_s: float
) -> FrontierPoint:
    """Reconstruct one frontier point from its JSON-safe digest."""
    fault = digest.get("fault") or {}
    return FrontierPoint(
        engine=engine,
        interval_s=float(interval_s),
        recovered=bool(fault.get("recovered", False)),
        recovery_time_s=nan(fault.get("recovery_time_s")),
        overhead_fraction=float(digest.get("overhead_fraction", 0.0)),
        checkpoints=int(digest.get("checkpoints", 0)),
    )


def frontier_points(
    points: List[FrontierPoint],
) -> List[Tuple[FrontierPoint, bool]]:
    """Annotate one engine's sweep with Pareto membership.

    Objectives are (recovery time, overhead fraction), both minimized.
    Points whose fault never recovered carry a NaN recovery time and
    are excluded from the front by :func:`repro.analysis.pareto.
    pareto_front` -- an unrecovered configuration is never efficient.
    """
    front = set(
        pareto_front(
            [(p.recovery_time_s, p.overhead_fraction) for p in points]
        )
    )
    return [(point, i in front) for i, point in enumerate(points)]
