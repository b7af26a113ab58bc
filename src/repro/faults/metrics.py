"""Recovery metrology: what the fault benchmark actually measures.

All recovery metrics are computed *driver-side* from the same series
the paper's methodology already collects -- the sink's event-time
latency samples and the queue-side ingest throughput.  Nothing is read
from inside the SUT (the engine's fault log only records what was
injected and the guarantee accounting, never a measurement).

Per fault event (Vogel et al. 2024, Section IV):

- **detection time** -- the failure-detector delay before the engine
  even reacts (a property of the fault-tolerance configuration);
- **recovery time** -- from the injection to the first return of
  binned event-time latency into the pre-fault baseline band, sustained
  for :data:`SETTLE_BINS` consecutive bins.  Event-time latency (not
  processing-time) is the right signal: during catch-up the engine
  processes *old* events fast, so processing-time latency looks healthy
  while the user-visible staleness is still recovering;
- **catch-up throughput** -- the peak queue-drain rate between the
  fault and recovery: how hard the engine can burst above the offered
  rate to work off the outage backlog;
- **post-recovery p99 vs. baseline p99** -- residual damage after
  recovery (a smaller cluster running closer to its limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.latency import EVENT_TIME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.driver import TrialResult

NAN = float("nan")

#: Width (s) of the event-time latency bins recovery is judged on.
BIN_S = 1.0
#: Pre-fault seconds the baseline latency band is drawn from.
BASELINE_WINDOW_S = 30.0
#: Floor (s) of the band's width above the baseline mean.
MIN_BAND_S = 0.5
#: Consecutive in-band bins that make a return to the band sustained.
SETTLE_BINS = 2


@dataclass(frozen=True)
class RecoveryMetrics:
    """Everything measured about one injected fault."""

    kind: str
    fault_time_s: float
    detection_s: float
    """Failure-detector delay (from the checkpoint model; NaN for
    transient faults the engine does not have to detect)."""
    injected_pause_s: float
    """Derived (or overridden) processing outage the engine served."""
    recovery_time_s: float
    """Injection to sustained return into the baseline latency band;
    NaN when latency never recovered within the trial."""
    catchup_throughput: float
    """Peak ingest rate (events/s) between the fault and recovery."""
    baseline_latency_s: float
    """Mean binned event-time latency over the pre-fault window."""
    baseline_p99_s: float
    post_p99_s: float
    """p99 event-time latency after recovery (NaN if never recovered
    or no post-recovery outputs)."""
    lost_weight: float
    duplicated_weight: float

    @property
    def recovered(self) -> bool:
        return self.recovery_time_s == self.recovery_time_s

    # -- phase decomposition ------------------------------------------------
    #
    # The recovery window splits into three consecutive phases (Vogel et
    # al. 2024's time decomposition): *detection* (failure-detector
    # delay), *restore* (the rest of the injected processing outage --
    # restart, state restore, replay), and *catch-up* (processing
    # resumed but latency still outside the baseline band while the
    # outage backlog drains).  The measured signals can disagree by a
    # bin (the outage is model-derived, the recovery time is read off
    # binned latency), so each phase is clamped into the window: the
    # three are non-negative, ordered, and sum to ``recovery_time_s``
    # exactly.  All three are NaN when the fault never recovered --
    # there is no window to decompose.

    def _clamped_outage(self) -> tuple:
        total = self.recovery_time_s
        detection = self.detection_s if self.detection_s == self.detection_s else 0.0
        detection = min(max(detection, 0.0), total)
        outage = (
            self.injected_pause_s
            if self.injected_pause_s == self.injected_pause_s
            else 0.0
        )
        outage = min(max(outage, detection), total)
        return detection, outage

    @property
    def detection_phase_s(self) -> float:
        """Share of the recovery window spent detecting the failure."""
        if not self.recovered:
            return NAN
        return self._clamped_outage()[0]

    @property
    def restore_phase_s(self) -> float:
        """Share of the window spent in the processing outage past
        detection (restart + state restore + input replay)."""
        if not self.recovered:
            return NAN
        detection, outage = self._clamped_outage()
        return outage - detection

    @property
    def catchup_phase_s(self) -> float:
        """Share of the window spent draining the outage backlog after
        processing resumed."""
        if not self.recovered:
            return NAN
        return self.recovery_time_s - self._clamped_outage()[1]

    def to_dict(self) -> Dict[str, Any]:
        def clean(value: float) -> Optional[float]:
            return None if value != value else float(value)

        return {
            "kind": self.kind,
            "fault_time_s": float(self.fault_time_s),
            "recovered": self.recovered,
            "detection_s": clean(self.detection_s),
            "injected_pause_s": clean(self.injected_pause_s),
            "recovery_time_s": clean(self.recovery_time_s),
            "detection_phase_s": clean(self.detection_phase_s),
            "restore_phase_s": clean(self.restore_phase_s),
            "catchup_phase_s": clean(self.catchup_phase_s),
            "catchup_throughput": clean(self.catchup_throughput),
            "baseline_latency_s": clean(self.baseline_latency_s),
            "baseline_p99_s": clean(self.baseline_p99_s),
            "post_p99_s": clean(self.post_p99_s),
            "lost_weight": float(self.lost_weight),
            "duplicated_weight": float(self.duplicated_weight),
        }

    def describe(self) -> str:
        recovery = (
            f"{self.recovery_time_s:.1f}s" if self.recovered else "never"
        )
        catchup = (
            f"{self.catchup_throughput / 1e6:.3f} M/s"
            if self.catchup_throughput == self.catchup_throughput
            else "n/a"
        )
        return (
            f"{self.kind}@{self.fault_time_s:g}s: recovery {recovery}, "
            f"catch-up {catchup}, "
            f"lost {self.lost_weight:.0f}, dup {self.duplicated_weight:.0f}"
        )


def recovery_timeline_events(
    metrics: Sequence[RecoveryMetrics],
) -> List[Dict[str, Any]]:
    """Convert recovery metrology into observability timeline events.

    Each fault yields a ``recovery.detected`` event (injection plus the
    detector delay) and -- when latency returned to the baseline band --
    a ``recovery.recovered`` event at that instant, so traces alive
    through the outage are annotated with the measured recovery, not
    just the injection (see :meth:`repro.obs.trace.TraceLog.annotate`).
    Keys match :meth:`TraceLog.add_event`'s signature.
    """
    events: List[Dict[str, Any]] = []
    for m in metrics:
        detection = m.detection_s if m.detection_s == m.detection_s else 0.0
        events.append(
            {
                "kind": "recovery.detected",
                "at_time": m.fault_time_s + detection,
                "cause": m.kind,
            }
        )
        if m.recovered:
            events.append(
                {
                    "kind": "recovery.recovered",
                    "at_time": m.fault_time_s + m.recovery_time_s,
                    "cause": m.kind,
                    "catchup_throughput": m.catchup_throughput,
                }
            )
    return events


def _percentile(values: np.ndarray, q: float) -> float:
    if values.size == 0:
        return NAN
    return float(np.percentile(values, q))


def compute_recovery_metrics(
    result: "TrialResult",
    fault_log: Sequence[Mapping[str, float]],
) -> List[RecoveryMetrics]:
    """Compute per-fault recovery metrics from one trial's series.

    ``fault_log`` is the engine's injection log (kind, time, derived
    pause, guarantee accounting per event).  The baseline band for each
    fault is ``baseline_mean + max(2 * std, 0.25 * |mean|, MIN_BAND_S)``
    over the :data:`BASELINE_WINDOW_S` seconds before the injection, in
    :data:`BIN_S` bins; a fault is *recovered* at the first bin inside
    the band with the following ``SETTLE_BINS - 1`` bins also inside it.
    The scan horizon for each fault ends at the next fault's injection
    (overlapping recoveries attribute each latency excursion to the
    fault that caused it).
    """
    entries = sorted(fault_log, key=lambda e: e["at_s"])
    if not entries:
        return []
    binned = result.collector.binned_series(EVENT_TIME, bin_s=BIN_S)
    raw = result.collector.series()
    ingest = result.throughput.ingest_series
    metrics: List[RecoveryMetrics] = []
    for i, entry in enumerate(entries):
        fault_t = float(entry["at_s"])
        horizon = (
            float(entries[i + 1]["at_s"])
            if i + 1 < len(entries)
            else result.duration_s
        )
        baseline = binned.window(
            max(0.0, fault_t - BASELINE_WINDOW_S), fault_t
        )
        if len(baseline):
            base_mean = baseline.mean()
            base_std = float(np.std(baseline.values))
            band = base_mean + max(
                2.0 * base_std, 0.25 * abs(base_mean), MIN_BAND_S
            )
        else:
            base_mean = NAN
            band = NAN
        recovery_time = NAN
        recovery_end = horizon
        post = binned.window(fault_t, horizon)
        if len(post) and band == band:
            values = post.values
            times = post.times
            inside = values <= band
            for j in range(inside.size):
                stop = min(j + SETTLE_BINS, inside.size)
                if bool(inside[j:stop].all()):
                    recovery_end = float(times[j]) + BIN_S
                    recovery_time = max(0.0, recovery_end - fault_t)
                    break
        catchup_span = ingest.window(fault_t, recovery_end)
        catchup = catchup_span.max() if len(catchup_span) else NAN
        baseline_p99 = _percentile(
            raw.window(max(0.0, fault_t - BASELINE_WINDOW_S), fault_t).values,
            99.0,
        )
        post_p99 = (
            _percentile(raw.window(recovery_end, horizon).values, 99.0)
            if not math.isnan(recovery_time)
            else NAN
        )
        metrics.append(
            RecoveryMetrics(
                kind=str(entry.get("kind", "fault")),
                fault_time_s=fault_t,
                detection_s=float(entry.get("detection_s", NAN)),
                injected_pause_s=float(entry.get("pause_s", NAN)),
                recovery_time_s=recovery_time,
                catchup_throughput=catchup,
                baseline_latency_s=base_mean,
                baseline_p99_s=baseline_p99,
                post_p99_s=post_p99,
                lost_weight=float(entry.get("lost_weight", 0.0)),
                duplicated_weight=float(entry.get("duplicated_weight", 0.0)),
            )
        )
    return metrics
