"""Scaling policies: when to add or remove workers.

The paper benchmarks fixed-size clusters; SProBench-style elasticity
asks the next question -- given a diurnal curve or a flash crowd, how
fast does each engine's *policy + rescale mechanics* pipeline restore
sustainable throughput, and what does the spare capacity cost?

Policies are deliberately blind to the simulation internals: a policy
sees only :class:`ScalingSignals`, a snapshot of obs-registry
instruments taken by the :class:`~repro.autoscale.rescale.Autoscaler`
at every registry sample.  Decisions therefore happen on the simulated
sampling clock -- deterministic, replayable, and exactly what a real
autoscaler bolted onto the metrics endpoint would see.

Two built-in policies:

- :class:`ThresholdPolicy` -- reactive rules on queue delay, watermark
  lag, and backpressure stall time, with hysteresis bands (scale-out
  triggers high, scale-in triggers low *and* calm) and a cooldown after
  every decision so the policy cannot flap.
- :class:`TargetUtilizationPolicy` -- PID-style tracking of the
  offered-rate / sustained-capacity ratio toward a target utilization,
  with an error deadband, anti-windup clamping, and the same cooldown.

Both guarantee: consecutive decisions (in particular, opposite-signed
ones) are separated by at least ``cooldown_s`` of simulated time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

#: Registered policy names (the ``--autoscale`` CLI values).
POLICY_NAMES = ("threshold", "target")

#: Threshold policy: queue-delay / watermark-lag band above which the
#: cluster is overloaded.  Half of it is the calm band both policies
#: require before a scale-in.
HIGH_DELAY_S = 4.0
#: Threshold policy: offered/capacity ratio below which (when calm) the
#: cluster is underloaded.
LOW_UTILIZATION = 0.4
#: Threshold policy: backpressure stalling more than this share of the
#: last sample interval is overload.
STALL_FRACTION = 0.5
#: Target policy: the offered/capacity ratio the PID tracks.
TARGET_UTILIZATION = 0.75
#: Target policy: PID gains, the error deadband, and the anti-windup
#: clamp on the integral term.
KP = 1.0
KI = 0.1
KD = 0.0
DEADBAND = 0.1
INTEGRAL_CLAMP = 2.0
#: Consecutive calm samples required before a scale-in fires.
SETTLE_SAMPLES = 3
#: Threshold policy: workers added/removed per decision; also the
#: per-decision clamp on the target policy's PID output.
STEP_WORKERS = 2


@dataclass(frozen=True)
class AutoscaleSpec:
    """Trial-level autoscaling configuration (picklable, hashable)."""

    policy: str = "threshold"
    """Which policy drives the trial: ``threshold`` or ``target``."""
    min_workers: int = 1
    """Scale-in floor on the total cluster size."""
    max_workers: int = 16
    """Scale-out ceiling on the total cluster size."""
    cooldown_s: float = 20.0
    """Minimum simulated time between two scaling decisions."""

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"policy must be one of {POLICY_NAMES}, got {self.policy!r}"
            )
        if self.min_workers < 1:
            raise ValueError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")

    def build_policy(self) -> "ScalingPolicy":
        """A fresh (stateful) policy instance for one trial."""
        if self.policy == "threshold":
            return ThresholdPolicy(self.cooldown_s)
        return TargetUtilizationPolicy(self.cooldown_s)


@dataclass(frozen=True)
class ScalingSignals:
    """One obs-registry snapshot as seen by a policy.

    Every field is read from registry instruments at sample time; NaN
    means the instrument does not exist (yet) and is treated as "no
    evidence" by the policies.
    """

    now: float
    queue_delay_s: float
    """Oldest wait in the driver queues (``driver.oldest_wait_s``)."""
    watermark_lag_s: float
    """Generation frontier minus source watermark
    (``driver.watermark_lag_s``)."""
    backpressure_stall_s: float
    """Cumulative engine stall/limit seconds (summed ``bp.*`` signals)."""
    offered_rate: float
    """Current total offered rate (``driver.offered_rate``)."""
    capacity_events_per_s: float
    """Engine's current CPU-bound capacity
    (``engine.capacity_events_per_s``)."""
    active_workers: int
    """Workers currently serving (``engine.active_workers``)."""

    @property
    def utilization(self) -> float:
        """Offered/capacity ratio; NaN when either side is unknown."""
        if (
            math.isnan(self.offered_rate)
            or math.isnan(self.capacity_events_per_s)
            or self.capacity_events_per_s <= 0
        ):
            return float("nan")
        return self.offered_rate / self.capacity_events_per_s


@dataclass(frozen=True)
class ScalingDecision:
    """One policy verdict: add (``delta > 0``) or remove workers."""

    delta: int
    reason: str
    detect_s: float
    """Simulated time from the first sample that breached the band to
    this decision -- the "detect" leg of time-to-resustain."""


class ScalingPolicy(ABC):
    """Stateful decision function evaluated once per registry sample."""

    def __init__(self, cooldown_s: float) -> None:
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.cooldown_s = float(cooldown_s)
        self._last_decision_s = -math.inf

    @abstractmethod
    def decide(self, signals: ScalingSignals) -> Optional[ScalingDecision]:
        """Return a decision, or None to hold."""

    # -- shared hysteresis machinery ------------------------------------

    def _in_cooldown(self, now: float) -> bool:
        return now - self._last_decision_s < self.cooldown_s

    def _commit(
        self, now: float, delta: int, reason: str, since: float
    ) -> ScalingDecision:
        self._last_decision_s = now
        detect = 0.0 if math.isnan(since) else max(0.0, now - since)
        return ScalingDecision(delta=delta, reason=reason, detect_s=detect)


class ThresholdPolicy(ScalingPolicy):
    """Reactive bands with hysteresis and cooldown.

    Scale-out: queue delay or watermark lag above :data:`HIGH_DELAY_S`,
    or the engine spent more than :data:`STALL_FRACTION` of the last
    sample interval stalled by backpressure.  Overload reacts on the
    first breaching sample (a flash crowd cannot wait out a settle
    count) but never inside the cooldown window.

    Scale-in: utilization below :data:`LOW_UTILIZATION` *and* delay/lag
    inside the calm band (half the high threshold) for
    :data:`SETTLE_SAMPLES` consecutive samples.  The asymmetric bands plus
    the universal cooldown are the anti-flapping mechanism: an
    oscillation would need the signals to cross both bands *and* out-wait
    the cooldown each way.
    """

    def __init__(self, cooldown_s: float) -> None:
        super().__init__(cooldown_s)
        self._overload_since = float("nan")
        self._underload_since = float("nan")
        self._underload_streak = 0
        self._prev_stall_s = float("nan")
        self._prev_now = float("nan")

    def decide(self, signals: ScalingSignals) -> Optional[ScalingDecision]:
        now = signals.now
        stalled = self._stalled_recently(signals)
        delay = signals.queue_delay_s
        lag = signals.watermark_lag_s
        hot = (
            (not math.isnan(delay) and delay > HIGH_DELAY_S)
            or (not math.isnan(lag) and lag > HIGH_DELAY_S)
            or stalled
        )
        calm_band = HIGH_DELAY_S / 2.0
        calm = (math.isnan(delay) or delay < calm_band) and (
            math.isnan(lag) or lag < calm_band
        )
        utilization = signals.utilization
        idle = (
            not math.isnan(utilization)
            and utilization < LOW_UTILIZATION
            and calm
            and not stalled
        )

        if hot:
            if math.isnan(self._overload_since):
                self._overload_since = now
            self._underload_since = float("nan")
            self._underload_streak = 0
        elif idle:
            if math.isnan(self._underload_since):
                self._underload_since = now
            self._underload_streak += 1
            self._overload_since = float("nan")
        else:
            self._overload_since = float("nan")
            self._underload_since = float("nan")
            self._underload_streak = 0

        if self._in_cooldown(now):
            return None
        if hot:
            reason = "stall" if stalled else "lag"
            decision = self._commit(
                now, STEP_WORKERS, reason, self._overload_since
            )
            self._overload_since = float("nan")
            return decision
        if idle and self._underload_streak >= SETTLE_SAMPLES:
            decision = self._commit(
                now, -STEP_WORKERS, "idle", self._underload_since
            )
            self._underload_since = float("nan")
            self._underload_streak = 0
            return decision
        return None

    def _stalled_recently(self, signals: ScalingSignals) -> bool:
        """Did backpressure stall more than :data:`STALL_FRACTION` of the
        last inter-sample interval?  (The stall signals are cumulative
        seconds, so the delta over the interval is the duty cycle.)"""
        stall = signals.backpressure_stall_s
        prev_stall, prev_now = self._prev_stall_s, self._prev_now
        self._prev_stall_s, self._prev_now = stall, signals.now
        if math.isnan(stall) or math.isnan(prev_stall):
            return False
        elapsed = signals.now - prev_now
        if elapsed <= 0:
            return False
        return (stall - prev_stall) / elapsed > STALL_FRACTION


class TargetUtilizationPolicy(ScalingPolicy):
    """PID-style tracking of offered/capacity toward a target ratio.

    The error is ``utilization - TARGET_UTILIZATION``; the control
    output (in worker units: ``active * error / target`` shaped by the
    PID terms) is clamped to :data:`STEP_WORKERS` per decision.  A
    symmetric :data:`DEADBAND` around zero error plus the cooldown
    prevent flapping; the integral term is clamped (anti-windup) so a
    long overload cannot bank an unbounded scale-in later.

    Utilization is *offered rate* over capacity -- it says nothing about
    backlog already queued.  After a flash crowd the offered rate drops
    while the queues are still full; shrinking then would starve the
    drain.  Scale-in is therefore additionally gated on queue delay and
    watermark lag being inside the threshold policy's calm band (half
    :data:`HIGH_DELAY_S`).
    """

    def __init__(self, cooldown_s: float) -> None:
        super().__init__(cooldown_s)
        self._integral = 0.0
        self._prev_error = float("nan")
        self._prev_now = float("nan")
        self._breach_since = float("nan")
        self._low_streak = 0

    def decide(self, signals: ScalingSignals) -> Optional[ScalingDecision]:
        now = signals.now
        utilization = signals.utilization
        if math.isnan(utilization):
            return None
        error = utilization - TARGET_UTILIZATION
        dt = now - self._prev_now if not math.isnan(self._prev_now) else 0.0
        derivative = 0.0
        if dt > 0 and not math.isnan(self._prev_error):
            self._integral += error * dt
            self._integral = max(
                -INTEGRAL_CLAMP, min(INTEGRAL_CLAMP, self._integral)
            )
            derivative = (error - self._prev_error) / dt
        self._prev_error = error
        self._prev_now = now

        control = KP * error + KI * self._integral + KD * derivative
        if abs(control) <= DEADBAND:
            self._breach_since = float("nan")
            self._low_streak = 0
            return None
        if math.isnan(self._breach_since):
            self._breach_since = now
        # Debounce the shrink direction only: over-target means latency
        # is already building, under-target merely wastes money.
        if control < 0:
            self._low_streak += 1
        else:
            self._low_streak = 0
        if self._in_cooldown(now):
            return None
        if control < 0 and self._low_streak < SETTLE_SAMPLES:
            return None
        if control < 0 and not self._calm(signals):
            return None
        workers = max(1, signals.active_workers)
        raw = control * workers / TARGET_UTILIZATION
        delta = int(math.copysign(math.ceil(min(abs(raw), STEP_WORKERS)), raw))
        if delta == 0:
            return None
        decision = self._commit(
            now,
            delta,
            "above-target" if delta > 0 else "below-target",
            self._breach_since,
        )
        self._breach_since = float("nan")
        self._low_streak = 0
        self._integral = 0.0
        return decision

    def _calm(self, signals: ScalingSignals) -> bool:
        """No queued backlog evidence: safe to remove capacity."""
        delay = signals.queue_delay_s
        lag = signals.watermark_lag_s
        calm_band = HIGH_DELAY_S / 2.0
        return (math.isnan(delay) or delay < calm_band) and (
            math.isnan(lag) or lag < calm_band
        )
