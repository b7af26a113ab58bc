"""Rescale mechanics: what a scale-out/scale-in *costs* per engine.

ShuffleBench's observation drives this module: at scale the price of
elasticity is not booting machines, it is **redistributing keyed state**
-- and every engine pays it differently.  A rescale here decomposes as

    decide -> provision (boot + warm-up) -> cutover (style pause +
    NIC-bounded state migration) -> catch-up (drain the backlog that
    accumulated while paused)

with the migration leg reusing the exact
:func:`~repro.recovery.reschedule.migration_pause_s` math the
self-healing layer uses for crash migrations: moved bytes over the
receivers' NICs at a fixed fraction of line rate.

Per-engine **styles** (:class:`RescaleSemantics`, a class attribute on
each engine):

- ``micro-batch`` (Spark): the next micro-batch simply schedules on the
  new cluster -- no style pause, no exposed data.  Nearly free.
- ``savepoint`` (Flink): an aligned savepoint is taken before the
  topology restarts at the new parallelism -- the cutover pays the
  checkpoint sync pause on the *whole* state, plus the migration.
  Exactly-once: nothing is lost or duplicated.
- ``rebalance`` (Storm/Heron): an in-flight rebalance redistributes
  executors without a snapshot; the moved partitions' un-acked window
  contents are simply gone, charged to the at-most-once delivery
  ledger.
- ``repartition`` (Samza): changelog-backed tasks restore on the new
  owners and re-consume since the last commit -- the moved share of the
  commit window is *re-delivered*, charged as at-least-once duplicates.

The :class:`Autoscaler` is the driver-side controller binding a
:class:`~repro.autoscale.policy.ScalingPolicy` to a running engine via
the obs registry's sample hook, so every decision happens on the
simulated sampling clock from registry signals alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.autoscale.policy import AutoscaleSpec, ScalingSignals

#: Next micro-batch plans on the new cluster; no pause, nothing exposed.
STYLE_MICRO_BATCH = "micro-batch"
#: Aligned savepoint + restart at the new parallelism (exactly-once).
STYLE_SAVEPOINT = "savepoint"
#: In-flight executor rebalance; moved un-acked state is dropped.
STYLE_REBALANCE = "rebalance"
#: Changelog repartition; the moved commit window is re-delivered.
STYLE_REPARTITION = "repartition"

RESCALE_STYLES = (
    STYLE_MICRO_BATCH,
    STYLE_SAVEPOINT,
    STYLE_REBALANCE,
    STYLE_REPARTITION,
)


@dataclass(frozen=True)
class RescaleSemantics:
    """How one engine executes a rescale (a class attribute)."""

    style: str = STYLE_SAVEPOINT
    provision_s: float = 15.0
    """Cold-node lead time: container boot + process start.  Skipped
    when the new capacity comes out of the standby pool (hot spares are
    already booted)."""
    warmup_s: float = 2.0
    """Slot/JVM warm-up after boot, paid even by hot spares."""

    def __post_init__(self) -> None:
        if self.style not in RESCALE_STYLES:
            raise ValueError(
                f"style must be one of {RESCALE_STYLES}, got {self.style!r}"
            )
        if self.provision_s < 0 or self.warmup_s < 0:
            raise ValueError(
                "provision_s and warmup_s must be >= 0, got "
                f"({self.provision_s}, {self.warmup_s})"
            )

    def lead_s(self, cold: int) -> float:
        """Decision-to-cutover lead time (``cold`` = nodes not drawn
        from the standby pool)."""
        return (self.provision_s if cold > 0 else 0.0) + self.warmup_s


class Autoscaler:
    """Drives one engine's cluster size from obs-registry signals.

    Installed on the :class:`~repro.obs.registry.MetricsRegistry` sample
    hook: after every snapshot it assembles :class:`ScalingSignals` from
    ``registry.latest(...)`` reads, asks the policy, clamps the verdict
    to ``[min_workers, max_workers]``, and calls the engine's
    ``request_scale_out`` / ``request_scale_in``.  It also integrates
    ``billed_nodes`` over simulated time into ``cost_node_seconds`` --
    the trial's elasticity bill.
    """

    #: Cumulative backpressure-stall instruments, summed into the
    #: policy's stall signal (whichever of them the engine publishes).
    STALL_GAUGES = ("bp.stalled_s", "bp.credit_limited_s", "bp.rate_limited_s")

    def __init__(self, engine: Any, registry: Any, spec: AutoscaleSpec) -> None:
        self.engine = engine
        self.registry = registry
        self.spec = spec
        self.policy = spec.build_policy()
        self.decisions: List[Dict[str, float]] = []
        """Every policy verdict (including clamped/blocked ones)."""
        self.blocked = 0
        """Decisions the bounds or an in-flight rescale suppressed."""
        self.cost_node_seconds = 0.0
        """Integral of billed nodes over simulated time."""
        self._last_sample_s: Optional[float] = None

    def install(self) -> None:
        self.registry.add_sample_hook(self.on_sample)

    # -- the control loop ------------------------------------------------

    def on_sample(self, now: float) -> None:
        engine = self.engine
        if self._last_sample_s is not None:
            self.cost_node_seconds += engine.billed_nodes * (
                now - self._last_sample_s
            )
        self._last_sample_s = now
        if engine.failed:
            return
        decision = self.policy.decide(self._signals(now))
        if decision is None:
            return
        entry: Dict[str, float] = {
            "at_s": now,
            "delta": float(decision.delta),
            "reason": decision.reason,  # type: ignore[dict-item]
            "detect_s": decision.detect_s,
        }
        self.decisions.append(entry)
        target = engine.target_workers
        if decision.delta > 0:
            grant = min(decision.delta, self.spec.max_workers - target)
        else:
            # Idle spares count as shrink headroom even at min_workers:
            # returning one never touches the active cluster.
            headroom = (
                max(0, target - self.spec.min_workers)
                + engine.standbys_available
            )
            grant = -min(-decision.delta, headroom)
        if grant == 0:
            entry["blocked"] = 1.0
            self.blocked += 1
            return
        if grant > 0:
            event = engine.request_scale_out(
                grant, reason=decision.reason, detect_s=decision.detect_s
            )
        else:
            event = engine.request_scale_in(
                -grant, reason=decision.reason, detect_s=decision.detect_s
            )
        if event is None:
            entry["blocked"] = 1.0
            self.blocked += 1

    def finalize(self, end_s: float) -> None:
        """Bill the tail between the last sample and the trial end."""
        if self._last_sample_s is not None and end_s > self._last_sample_s:
            self.cost_node_seconds += self.engine.billed_nodes * (
                end_s - self._last_sample_s
            )
            self._last_sample_s = end_s

    def _signals(self, now: float) -> ScalingSignals:
        latest = self.registry.latest
        stall = float("nan")
        for name in self.STALL_GAUGES:
            value = latest(name)
            if not math.isnan(value):
                stall = value if math.isnan(stall) else stall + value
        workers = latest("engine.active_workers")
        return ScalingSignals(
            now=now,
            queue_delay_s=latest("driver.oldest_wait_s"),
            watermark_lag_s=latest("driver.watermark_lag_s"),
            backpressure_stall_s=stall,
            offered_rate=latest("driver.offered_rate"),
            capacity_events_per_s=latest("engine.capacity_events_per_s"),
            active_workers=1 if math.isnan(workers) else int(workers),
        )

    # -- export ----------------------------------------------------------

    def diagnostics(self) -> Dict[str, float]:
        events = self.engine.rescale_log
        outs = sum(1 for e in events if e["kind"] == "scale-out")
        return {
            "autoscale.events": float(len(events)),
            "autoscale.scale_outs": float(outs),
            "autoscale.scale_ins": float(len(events) - outs),
            "autoscale.decisions": float(len(self.decisions)),
            "autoscale.blocked": float(self.blocked),
            "autoscale.cost_node_seconds": self.cost_node_seconds,
            "autoscale.min_workers": float(self.spec.min_workers),
            "autoscale.max_workers": float(self.spec.max_workers),
        }
