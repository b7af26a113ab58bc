"""Apache Samza: an EXTENSION engine model (not in the paper's tables).

Samza processes partitioned streams one message at a time, with state
in per-task RocksDB stores (changelogged to the log for recovery) and
flow control inherited from log consumption: a task only polls as fast
as it processes, so backpressure is implicit and smooth.

Model traits:

- pipelined per-partition processing (credit-like flow control);
- a per-batch *commit interval*: output visibility waits for the next
  commit (default 500 ms), giving Samza a small fixed latency floor
  between Flink's milliseconds and Spark's seconds;
- RocksDB state: effectively spill-native (large windows are fine, at a
  modest slowdown), and changelog-backed recovery after node failures
  (no data loss, moderate restore pause);
- per-partition parallelism: a single hot key serialises on one task,
  like Flink/Storm.

Calibration status: SPECULATIVE.  Constants are assumptions documented
inline; nothing here reproduces a published number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autoscale.rescale import STYLE_REPARTITION, RescaleSemantics
from repro.engines.base import EngineConfig, StreamingEngine
from repro.engines.calibration import (
    AGGREGATION,
    JOIN,
    CostModel,
    register_cost_model,
)
from repro.faults.checkpoint import RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee
from repro.recovery.degradation import DegradationPolicy

#: Window results become visible at the next task commit.
COMMIT_INTERVAL_S = 0.5

# Assumptions: heavier per-event cost than Flink (serde through the
# log), lighter than Storm; RocksDB makes the keyed stage costlier but
# large state cheap.
register_cost_model(
    CostModel(
        engine="samza",
        query_kind=AGGREGATION,
        pipeline_cost_us=38.0,
        keyed_cost_us=4.0,
        bulk_emit_cost_us=0.0,
        scaling_efficiency={2: 1.0, 4: 0.9, 8: 0.78},
        state_bytes_per_event=24.0,
    )
)
register_cost_model(
    CostModel(
        engine="samza",
        query_kind=JOIN,
        pipeline_cost_us=46.0,
        keyed_cost_us=10.0,
        bulk_emit_cost_us=14.0,
        scaling_efficiency={2: 1.0, 4: 0.85, 8: 0.7},
        state_bytes_per_event=120.0,
    )
)


@dataclass(frozen=True)
class SamzaConfig(EngineConfig):
    """Samza defaults (extension; assumptions, not calibration)."""

    emit_jitter_sigma: float = 0.15


class SamzaEngine(StreamingEngine):
    """Per-partition log-consumer engine (extension)."""

    name = "samza"
    # Changelog-backed store restore (a checkpoint in log form); commits
    # are offset-based without output dedup, so replays duplicate.
    recovery_semantics = RecoverySemantics.CHECKPOINT_RESTORE
    default_guarantee = DeliveryGuarantee.AT_LEAST_ONCE
    # Rescale repartitions the task-to-container assignment: moved
    # tasks restore from the changelog on their new owner and re-consume
    # since the last commit -- that share of the commit window is
    # re-delivered (at-least-once duplicates).
    rescale = RescaleSemantics(
        style=STYLE_REPARTITION, provision_s=15.0, warmup_s=2.0
    )

    # Pipelined per-partition processing: credit-like flow control (the
    # base default); RocksDB state is disk-backed by design (spills).
    config_cls = SamzaConfig
    # At-least-once via the changelog: history already queued will be
    # re-read on recovery anyway, so shed from the tail (newest) to
    # avoid double work, with a patient ramp while RocksDB compaction
    # settles.
    recommended_degradation = DegradationPolicy(
        shed="newest", max_queue_delay_s=8.0, readmission_ramp_s=3.0
    )

    def _emit_delay(self, closed) -> float:
        # Output becomes visible at the next task commit; a join pays its
        # bulk probe (jittered) on top.  Aggregates draw no jitter.
        delay = self.config.pipeline_delay_s
        delay += COMMIT_INTERVAL_S - self.sim.now % COMMIT_INTERVAL_S
        if self._is_join:
            delay += self.cost.bulk_emit_delay_s(
                closed.total_weight, self.cluster
            ) * self._emit_jitter()
        return delay

    def _rescale_exposed_weight(self, moved_fraction: float) -> float:
        # Moved tasks re-consume from their input topics since the last
        # committed offset: the moved share of the commit window is
        # re-delivered, which at-least-once accounting books as
        # duplicates (state itself restores intact from the changelog).
        return moved_fraction * self.control.replay_window_weight
