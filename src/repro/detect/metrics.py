"""Detection-quality metrology.

The plane condenses a trial's verdict stream into one
:class:`DetectionMetrics` record:

- **false_positives / true_positives** -- suspicion *raise* transitions
  classified against the schedule-derived ground truth at the verdict
  instant (was the node actually faulty right then?).
- **false_negatives** -- heartbeat-relevant fault episodes that ended
  (plus a grace window) without the faulty node ever being suspected.
  A data-direction asymmetric partition is the canonical guaranteed
  false negative: the outage is real but heartbeats keep flowing.
- **detection_latencies_s** -- per detected episode, first suspicion
  minus episode start, in episode order.
- **spurious_migration_node_s** -- node-seconds billed to migrations
  triggered by false-positive verdicts (pause x billed cluster size):
  the headline cost of a trigger-happy detector.
- **cascade_depth_max** -- longest chain of detector-driven migrations
  in which each migration lands inside (or within ``cascade_window_s``
  after) the previous one's pause window: migration -> heartbeat
  starvation under NIC contention -> fresh suspicion -> ... .
- **metastable** -- the trial survived, every fault and migration
  cleared, the detector acted at least once, and event-time latency
  never re-entered the pre-fault band before the trial ended: the
  detector pushed the system into a state the fault alone did not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.metrics import BASELINE_WINDOW_S, MIN_BAND_S, SETTLE_BINS


def _round_6dp(value: float) -> Optional[float]:
    """JSON-safe float: NaN/inf become None, else round to 6 *decimal
    places* (not :func:`repro.grid.round6`'s 6 significant digits)."""
    if value is None or not math.isfinite(value):
        return None
    return round(float(value), 6)


@dataclass(frozen=True)
class VerdictEvent:
    """One suspicion transition observed by the plane."""

    at_s: float
    node: int
    suspected: bool
    """True for a raise transition, False for a clear."""
    faulty: bool
    """Ground truth for the node at ``at_s`` (schedule-derived)."""

    def to_tuple(self) -> Tuple[float, int, bool, bool]:
        return (self.at_s, self.node, self.suspected, self.faulty)


@dataclass
class DetectionMetrics:
    """Per-trial detection-quality record (JSON-safe via to_dict)."""

    detector: str
    heartbeat_interval_s: float
    calm: bool
    """True when the schedule contained no heartbeat-relevant fault, so
    any suspicion at all is detector noise (the chaos soak's
    no-false-positive-under-calm invariant keys off this)."""
    episodes: int = 0
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    suspicions: int = 0
    actions: int = 0
    spurious_migrations: int = 0
    spurious_migration_node_s: float = 0.0
    migration_pause_s_total: float = 0.0
    cascade_depth_max: int = 0
    metastable: bool = False
    detection_latencies_s: Tuple[float, ...] = ()
    verdicts: Tuple[VerdictEvent, ...] = ()
    per_node_suspicions: Dict[int, int] = field(default_factory=dict)

    @property
    def detection_latency_mean_s(self) -> float:
        if not self.detection_latencies_s:
            return float("nan")
        return sum(self.detection_latencies_s) / len(self.detection_latencies_s)

    @property
    def detection_latency_max_s(self) -> float:
        if not self.detection_latencies_s:
            return float("nan")
        return max(self.detection_latencies_s)

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "heartbeat_interval_s": _round_6dp(self.heartbeat_interval_s),
            "calm": self.calm,
            "episodes": self.episodes,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "suspicions": self.suspicions,
            "actions": self.actions,
            "spurious_migrations": self.spurious_migrations,
            "spurious_migration_node_s": _round_6dp(self.spurious_migration_node_s),
            "migration_pause_s_total": _round_6dp(self.migration_pause_s_total),
            "cascade_depth_max": self.cascade_depth_max,
            "metastable": self.metastable,
            "detection_latency_mean_s": _round_6dp(self.detection_latency_mean_s),
            "detection_latency_max_s": _round_6dp(self.detection_latency_max_s),
            "detection_latencies_s": [
                _round_6dp(x) for x in self.detection_latencies_s
            ],
            "verdicts": [list(v.to_tuple()) for v in self.verdicts],
        }


def latency_band_reentered(
    times_s: List[float],
    latencies_s: List[float],
    *,
    baseline_end_s: float,
    clear_s: float,
) -> Optional[bool]:
    """Did binned event-time latency re-enter the pre-fault band after
    ``clear_s``?

    Uses the same band construction as
    :func:`repro.faults.metrics.compute_recovery_metrics`: mean of the
    ``BASELINE_WINDOW_S`` before ``baseline_end_s`` plus
    ``max(2*std, 0.25*|mean|, MIN_BAND_S)``, re-entry sustained for
    ``SETTLE_BINS`` consecutive bins.  Returns None when there is no
    baseline or no post-clear data to judge (the caller must not flag
    metastability on missing evidence).
    """
    base = [
        lat
        for t, lat in zip(times_s, latencies_s)
        if baseline_end_s - BASELINE_WINDOW_S <= t < baseline_end_s
    ]
    if not base:
        return None
    mean = sum(base) / len(base)
    var = sum((x - mean) ** 2 for x in base) / len(base)
    band = mean + max(2.0 * math.sqrt(var), 0.25 * abs(mean), MIN_BAND_S)
    post = [lat for t, lat in zip(times_s, latencies_s) if t >= clear_s]
    if not post:
        return None
    run = 0
    for lat in post:
        run = run + 1 if lat <= band else 0
        if run >= SETTLE_BINS:
            return True
    return False
