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
from typing import Dict, List, Union

from repro.autoscale.rescale import STYLE_SAVEPOINT, RescaleSemantics
from repro.engines.backpressure import BackpressureMechanism, CreditBased
from repro.engines.base import (
    EngineConfig,
    StreamingEngine,
    windowed_conservation,
)
from repro.core.batch import RecordBlock
from repro.engines.operators.aggregate import aggregation_outputs
from repro.engines.operators.join import JoinWindowStore, join_window_outputs
from repro.engines.operators.window import KeyedWindowStore
from repro.faults.checkpoint import RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee
from repro.recovery.degradation import DegradationPolicy
from repro.sim.failures import TopologyStalled
from repro.workloads.queries import WindowedJoinQuery


@dataclass(frozen=True)
class FlinkConfig(EngineConfig):
    """Flink defaults: short ticks and a small pipeline delay
    (tuple-at-a-time semantics); modest, infrequent JVM pauses (Flink's
    runtime manages most memory off-heap)."""

    tick_interval_s: float = 0.05
    buffer_seconds: float = 0.5
    pipeline_delay_s: float = 0.05
    gc_rate_per_s: float = 0.02
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

    #: Driver-queue backlog (in seconds of single-slot capacity) beyond
    #: which a skewed join is declared unresponsive (Experiment 4).
    SKEW_JOIN_STALL_BACKLOG_S = 30.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._backpressure_mechanism = CreditBased()
        self._is_join = isinstance(self.query, WindowedJoinQuery)
        self._store: Union[JoinWindowStore, KeyedWindowStore]
        store_cls = JoinWindowStore if self._is_join else KeyedWindowStore
        self._store = store_cls(self.query.window, self.query.keys.num_keys)
        self.windows_emitted = 0

    @classmethod
    def default_config(cls) -> FlinkConfig:
        return FlinkConfig()

    @classmethod
    def supports_spill(cls) -> bool:
        # "Flink (as well as Spark) has built-in data structures that can
        # spill to disk when needed" (Experiment 3).
        return True

    @classmethod
    def recommended_degradation(cls):
        # Pipelined engine with fine-grained flow control: a short ramp
        # suffices (credit-based backpressure meters the catch-up burst
        # on its own) and shedding from the head keeps the exactly-once
        # output fresh.
        return DegradationPolicy(
            shed="oldest", max_queue_delay_s=5.0, readmission_ramp_s=2.0
        )

    def _backpressure(self) -> BackpressureMechanism:
        return self._backpressure_mechanism

    # -- pipeline ---------------------------------------------------------

    def _process_batch(self, blocks: List[RecordBlock], dt: float) -> None:
        for block in blocks:
            self._store.add_block(block)
        self._update_state_usage(self._store.stored_weight())

    def _on_tick_end(self, dt: float) -> None:
        assert self.source is not None
        self._check_skew_join_health()
        watermark = self.source.watermark - self.config.allowed_lateness_s
        for index in self._store.ready_indices(watermark):
            self._close_window(index)

    def _close_window(self, index: int) -> None:
        assert self.sink is not None
        if self._is_join:
            closed = self._store.close(index, at_time=self.sim.now)
            delay = (
                self.config.pipeline_delay_s
                + self.cost.bulk_emit_delay_s(closed.total_weight, self.cluster)
                * self._emit_jitter()
            )
            emit_time = self.sim.now + delay
            outputs = join_window_outputs(
                closed, self.query.selectivity, emit_time
            )
        else:
            contents = self._store.close(index, at_time=self.sim.now)
            delay = self.config.pipeline_delay_s * self._emit_jitter()
            emit_time = self.sim.now + delay
            outputs = aggregation_outputs(contents, emit_time)
        self.windows_emitted += 1
        self._update_state_usage(self._store.stored_weight())
        if outputs:
            self.sim.schedule(delay, self._emit, outputs)

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

    def conservation(self) -> Dict[str, float]:
        ledger = super().conservation()
        ledger.update(windowed_conservation(self._store))
        return ledger

    def diagnostics(self) -> Dict[str, float]:
        diag = super().diagnostics()
        diag["windows_emitted"] = float(self.windows_emitted)
        if isinstance(self._store, KeyedWindowStore):
            diag["keyed_updates"] = float(self._store.updates)
            diag["late_dropped_weight"] = self._store.dropped_weight
        else:
            diag["late_dropped_weight"] = (
                self._store.purchases.dropped_weight
                + self._store.ads.dropped_weight
            )
        return diag
