"""The Apache Flink 1.1.3 model.

Architectural traits reproduced (all from the paper's analysis):

- **Pipelined, tuple-at-a-time execution with operator chaining**: no
  blocking stages, so the unloaded pipeline delay is small and constant;
  "Flink ... performs operator chaining in query optimization part to
  avoid unnecessary data migration" (Experiment 2).
- **Credit-based flow control**: ingestion tracks the bottleneck
  smoothly, "in the order of tuples" (Experiment 5) -- Figure 9c's flat
  pull rate.
- **Incremental window aggregation**: "Flink computes aggregates
  on-the-fly and not after window closes" (Experiment 3), so aggregation
  results are emitted right at window close with no bulk pass, and
  per-window state is per-key accumulators only.  Flink "cannot share
  aggregate results among different sliding windows" -- each record pays
  one keyed update per containing window (part of the calibrated keyed
  cost).
- **Windowed join evaluated at window close**: the probe over the
  buffered window is a bulk operation whose duration grows with the
  window volume -- the reason join latencies (Table IV) are seconds
  while aggregation latencies (Table II) are fractions of a second.
- **Single-slot keyed stage**: "Flink and Storm use one slot per
  operator instance", so a single hot key caps throughput at one slot's
  rate and the deployment stops scaling (Experiment 4); under a skewed
  *join*, state on the hot slot blows up and the engine becomes
  unresponsive (modelled as a topology stall once the backlog passes a
  threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.autoscale.rescale import STYLE_SAVEPOINT, RescaleSemantics
from repro.engines.base import EngineConfig, StreamingEngine

# Flink's window operator, still importable from the engine module
# (benchmarks/perf/tests/test_boundaries.py wraps it here); the engine
# itself closes windows through the base pipeline.
from repro.engines.operators.aggregate import aggregation_outputs  # noqa: F401
from repro.faults.checkpoint import RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee
from repro.sim.failures import TopologyStalled


@dataclass(frozen=True)
class FlinkConfig(EngineConfig):
    """Flink defaults: short ticks and a small pipeline delay
    (tuple-at-a-time semantics); modest, infrequent JVM pauses (Flink's
    runtime manages most memory off-heap)."""

    buffer_seconds: float = 0.5
    gc_pause_mean_s: float = 0.25
    gc_pause_sigma: float = 0.6
    emit_jitter_sigma: float = 0.25


class FlinkEngine(StreamingEngine):
    """Pipelined engine with credit-based backpressure."""

    name = "flink"
    # Barrier checkpoints + source replay: restore the last snapshot over
    # the surviving NICs, replay since the barrier -- exactly once.
    recovery_semantics = RecoverySemantics.CHECKPOINT_RESTORE
    default_guarantee = DeliveryGuarantee.EXACTLY_ONCE
    # Rescale = aligned savepoint + restart at the new parallelism: the
    # cutover pays the savepoint sync pause over the whole keyed state
    # (plus NIC migration), but exactly-once survives intact.
    rescale = RescaleSemantics(
        style=STYLE_SAVEPOINT, provision_s=15.0, warmup_s=3.0
    )

    # Everything else is the base default: credit-based flow control;
    # spillable state ("Flink (as well as Spark) has built-in data
    # structures that can spill to disk when needed", Experiment 3); a
    # short re-admission ramp, since credits meter the catch-up burst on
    # their own, shedding from the head to keep exactly-once output
    # fresh; and emission at close after the jittered pipeline delay
    # (incremental aggregates), a join after its bulk probe.
    config_cls = FlinkConfig

    #: Driver-queue backlog (in seconds of single-slot capacity) beyond
    #: which a skewed join is declared unresponsive (Experiment 4).
    SKEW_JOIN_STALL_BACKLOG_S = 30.0

    def _on_tick_end(self, dt: float) -> None:
        self._check_skew_join_health()
        super()._on_tick_end(dt)

    def _check_skew_join_health(self) -> None:
        """Experiment 4: a skewed join makes Flink unresponsive."""
        if not self._is_join or self._hot_fraction < 0.5:
            return
        assert self.source is not None
        slot_rate = self.cost.keyed_slot_capacity_events_per_s()
        threshold = slot_rate * self.SKEW_JOIN_STALL_BACKLOG_S
        if self.source.backlog_weight > threshold:
            raise TopologyStalled(
                "Flink unresponsive: skewed join backlog "
                f"{self.source.backlog_weight:.0f} events exceeds "
                f"{threshold:.0f}",
                at_time=self.sim.now,
            )

    def diagnostics(self) -> Dict[str, float]:
        diag = super().diagnostics()
        if not self._is_join:
            diag["keyed_updates"] = float(self._store.updates)
        return diag
