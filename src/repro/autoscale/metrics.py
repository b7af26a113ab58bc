"""Time-to-resustain metrology for elastic rescale events.

Mirrors :mod:`repro.faults.metrics`: the engine's :attr:`rescale_log`
records what the SUT *did*; this module measures what the benchmark
*observed* -- per scaling event, how long until the pipeline was
re-sustaining the offered load, decomposed the way an SRE would bill it:

    time_to_resustain = detect + provision + migrate + catch-up

- **detect**: first band-breaching registry sample -> policy decision
  (hysteresis, settle counts, and cooldown all show up here);
- **provision**: decision -> cutover (node boot + warm-up; zero when the
  capacity came from the standby pool);
- **migrate**: the cutover pause (engine style pause + NIC-bounded state
  migration);
- **catch-up**: capacity online -> the watermark lag back within
  :data:`LAG_BOUND_S` for :data:`CATCHUP_SETTLE_SAMPLES` consecutive
  registry samples.

Detection runs on the sampled ``driver.watermark_lag_s`` series -- the
same deterministic obs-registry signal the policies themselves read, so
the metrology needs nothing the driver could not really measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


def _clean(value: float) -> Optional[float]:
    return None if math.isnan(value) else float(value)


@dataclass(frozen=True)
class RescaleMetrics:
    """Measured outcome of one scale-out/scale-in event."""

    kind: str
    """``scale-out`` or ``scale-in``."""
    decided_at_s: float
    delta: float
    """Workers added (negative: removed, including returned spares)."""
    from_workers: float
    to_workers: float
    reason: str
    spares: float
    """Hot spares consumed (scale-out) or returned (scale-in)."""
    detect_s: float
    provision_s: float
    migrate_s: float
    catchup_s: float
    time_to_resustain_s: float
    """detect + provision + migrate + catch-up; NaN if the trial ended
    before the pipeline re-sustained."""
    migrated_bytes: float
    lost_weight: float
    duplicated_weight: float

    @property
    def resustained(self) -> bool:
        """Whether the pipeline got back inside the sustain band."""
        return self.time_to_resustain_s == self.time_to_resustain_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "decided_at_s": self.decided_at_s,
            "delta": self.delta,
            "from_workers": self.from_workers,
            "to_workers": self.to_workers,
            "reason": self.reason,
            "spares": self.spares,
            "detect_s": _clean(self.detect_s),
            "provision_s": _clean(self.provision_s),
            "migrate_s": _clean(self.migrate_s),
            "catchup_s": _clean(self.catchup_s),
            "time_to_resustain_s": _clean(self.time_to_resustain_s),
            "migrated_bytes": float(self.migrated_bytes),
            "lost_weight": float(self.lost_weight),
            "duplicated_weight": float(self.duplicated_weight),
            "resustained": bool(self.resustained),
        }

    def describe(self) -> str:
        ttr = (
            f"{self.time_to_resustain_s:.2f}s"
            if self.resustained
            else "never"
        )
        return (
            f"{self.kind} {self.from_workers:.0f}->{self.to_workers:.0f} "
            f"@ t={self.decided_at_s:.1f}s ({self.reason}): "
            f"resustain {ttr} "
            f"(detect {self.detect_s:.2f}s + provision "
            f"{self.provision_s:.2f}s + migrate {self.migrate_s:.2f}s + "
            f"catch-up {self.catchup_s:.2f}s)"
        )


#: Watermark lag (s) a rescaled trial must get back within to count as
#: caught up.
LAG_BOUND_S = 2.0
#: Consecutive in-bound lag samples that make a catch-up settled.
CATCHUP_SETTLE_SAMPLES = 2


def compute_rescale_metrics(
    rescale_log: Sequence[Dict[str, Any]],
    lag_times: Sequence[float],
    lag_values: Sequence[float],
    duration_s: float,
) -> List[RescaleMetrics]:
    """Measure every event in ``rescale_log``.

    ``lag_times``/``lag_values`` are the sampled
    ``driver.watermark_lag_s`` series.  An event's catch-up ends at the
    first sample at-or-after capacity-online where the lag stays within
    :data:`LAG_BOUND_S` for :data:`CATCHUP_SETTLE_SAMPLES` consecutive
    samples; the scan
    stops at the next event's decision (its own disturbance) or the
    trial end, whichever is earlier -- past that, the event never
    re-sustained and its open-ended legs are NaN.
    """
    metrics: List[RescaleMetrics] = []
    nan = float("nan")
    for index, entry in enumerate(rescale_log):
        decided = float(entry["decided_at_s"])
        cutover = entry.get("cutover_at_s")
        online = entry.get("online_at_s")
        provision = nan if cutover is None else float(cutover) - decided
        migrate = float(entry["pause_s"]) if "pause_s" in entry else nan
        horizon = duration_s
        if index + 1 < len(rescale_log):
            horizon = min(
                horizon, float(rescale_log[index + 1]["decided_at_s"])
            )
        catchup = nan
        resustain_at = nan
        if online is not None:
            resustain_at = _first_settled(
                lag_times,
                lag_values,
                start=float(online),
                horizon=horizon,
            )
            catchup = resustain_at - float(online)
        detect = float(entry.get("detect_s", 0.0))
        total = detect + (resustain_at - decided)
        metrics.append(
            RescaleMetrics(
                kind=str(entry["kind"]),
                decided_at_s=decided,
                delta=float(entry["delta"]),
                from_workers=float(entry["from_workers"]),
                to_workers=float(entry["to_workers"]),
                reason=str(entry.get("reason", "")),
                spares=float(
                    entry.get("spares_used", entry.get("spares_returned", 0.0))
                ),
                detect_s=detect,
                provision_s=provision,
                migrate_s=migrate,
                catchup_s=catchup,
                time_to_resustain_s=total,
                migrated_bytes=float(entry.get("migrated_bytes", 0.0)),
                lost_weight=float(entry.get("lost_weight", 0.0)),
                duplicated_weight=float(entry.get("duplicated_weight", 0.0)),
            )
        )
    return metrics


def _first_settled(
    times: Sequence[float],
    values: Sequence[float],
    *,
    start: float,
    horizon: float,
) -> float:
    """First sample time >= ``start`` opening
    :data:`CATCHUP_SETTLE_SAMPLES` consecutive samples within
    :data:`LAG_BOUND_S` (all before ``horizon``); NaN if none."""
    streak = 0
    opened = float("nan")
    for t, v in zip(times, values):
        if t < start:
            continue
        if t > horizon:
            break
        if v <= LAG_BOUND_S:
            if streak == 0:
                opened = float(t)
            streak += 1
            if streak >= CATCHUP_SETTLE_SAMPLES:
                return opened
        else:
            streak = 0
            opened = float("nan")
    return float("nan")


def rescale_timeline_events(
    metrics: Sequence[RescaleMetrics],
) -> List[Dict[str, Any]]:
    """Timeline annotations for the trace log, one per measured event.

    Keys match :meth:`TraceLog.add_event`'s signature.
    """
    events: List[Dict[str, Any]] = []
    for m in metrics:
        if not m.resustained:
            continue
        events.append(
            {
                "kind": "autoscale.resustained",
                "at_time": m.decided_at_s - m.detect_s + m.time_to_resustain_s,
                "event": m.kind,
                "time_to_resustain_s": m.time_to_resustain_s,
            }
        )
    return events
