"""The checkpointing model that *derives* recovery pauses.

Before this subsystem, a node failure paused the engine for a fixed
``recovery_pause_s`` constant (6 s by default).  Vogel et al. (2024)
show that recovery time is a function of the fault-tolerance
configuration -- checkpoint interval, state size, and restore
bandwidth -- not an engine constant.  :class:`CheckpointSpec` models
exactly those knobs and derives both costs:

- **steady-state checkpoint pauses**: every ``interval_s`` a
  checkpoint's synchronous part suspends the pipeline for
  ``sync_pause_base_s + state_gb * sync_pause_s_per_gb`` (the
  alignment/sync barrier; the asynchronous upload is free);
- **the recovery pause after a fault**, per engine semantics
  (:class:`RecoverySemantics`):

  - ``CHECKPOINT_RESTORE`` (Flink; Samza's changelog restore):
    failure detection, process restart, pulling the last completed
    checkpoint's state back over the NIC of the surviving workers, and
    replaying the input since that checkpoint from the driver queues
    (``replay span * replay_cost_factor``);
  - ``LINEAGE_RECOMPUTE`` (Spark): detection + restart + parallel
    recomputation of only the *lost* partitions from cached lineage --
    no full-state transfer, no replay window, which is why Lopez et
    al. found Spark the most robust to node failures;
  - ``TUPLE_REPLAY`` (Storm, Heron): detection + topology rebalancing
    (growing with cluster size); state is not restored at all -- the
    delivery guarantee decides whether the exposed window contents are
    lost (no acking: at-most-once) or replayed as duplicates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.faults.guarantees import DeliveryGuarantee
from repro.sim.cluster import NodeSpec


class RecoverySemantics(enum.Enum):
    """How an engine reconstructs state after losing a worker."""

    CHECKPOINT_RESTORE = "checkpoint-restore"
    LINEAGE_RECOMPUTE = "lineage-recompute"
    TUPLE_REPLAY = "tuple-replay"


@dataclass(frozen=True)
class CheckpointSpec:
    """Fault-tolerance configuration of one trial.

    All constants are model assumptions (documented per field); none
    reproduce a published number.  The *structure* -- restore time
    proportional to state bytes over NIC bandwidth, replay proportional
    to the checkpoint interval -- is the Vogel et al. model.
    """

    interval_s: float = 10.0
    """Checkpoint interval.  Longer intervals mean cheaper steady state
    but a larger replay window after a failure."""
    detection_timeout_s: float = 2.0
    """Failure-detector timeout (heartbeat loss to suspicion)."""
    restart_base_s: float = 1.5
    """Process/container restart and task re-deployment latency."""
    rebalance_base_s: float = 12.0
    """Storm-style topology rebalance at 2 workers; scales with
    ``sqrt(workers / 2)`` (more executors to coordinate)."""
    sync_pause_base_s: float = 0.02
    """Fixed synchronous cost of a checkpoint (barrier alignment)."""
    sync_pause_s_per_gb: float = 0.1
    """Synchronous checkpoint cost per GB of live operator state (the
    async upload does not pause the pipeline)."""
    restore_nic_fraction: float = 0.8
    """Fraction of the surviving workers' NIC bandwidth usable for
    pulling checkpoint state from remote storage."""
    replay_cost_factor: float = 0.45
    """Pause seconds per second of replay window: replaying the input
    since the last checkpoint runs at catch-up (burst) rate -- roughly
    2x the offered load -- so it costs a fraction of the wall-clock
    span being replayed."""
    recompute_bytes_per_s_per_worker: float = 2e9
    """Lineage recomputation rate per surviving worker (cached parent
    blocks, CPU-bound, embarrassingly parallel)."""
    guarantee: Optional[DeliveryGuarantee] = None
    """Override of the engine's default delivery guarantee (e.g. run
    Storm with acking -> at-least-once, or Flink without barriers ->
    at-most-once)."""

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {self.interval_s}"
            )
        for name in (
            "detection_timeout_s",
            "restart_base_s",
            "rebalance_base_s",
            "sync_pause_base_s",
            "sync_pause_s_per_gb",
            "replay_cost_factor",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.restore_nic_fraction <= 1:
            raise ValueError(
                "restore_nic_fraction must be in (0, 1], "
                f"got {self.restore_nic_fraction}"
            )
        if self.recompute_bytes_per_s_per_worker <= 0:
            raise ValueError(
                "recompute_bytes_per_s_per_worker must be positive, "
                f"got {self.recompute_bytes_per_s_per_worker}"
            )

    # -- steady state ------------------------------------------------------

    def sync_pause_s(self, state_bytes: float) -> float:
        """Pipeline pause caused by one checkpoint's synchronous part."""
        return self.sync_pause_base_s + (
            max(0.0, state_bytes) / 1e9
        ) * self.sync_pause_s_per_gb

    # -- recovery ----------------------------------------------------------

    def restore_s(
        self, state_bytes: float, node: NodeSpec, active_workers: int
    ) -> float:
        """Time to pull ``state_bytes`` of checkpoint state back onto
        the surviving workers' NICs."""
        bandwidth = (
            max(1, active_workers)
            * node.nic_bytes_per_s
            * self.restore_nic_fraction
        )
        return max(0.0, state_bytes) / bandwidth

    def recovery_pause_s(
        self,
        semantics: RecoverySemantics,
        *,
        state_bytes: float,
        node: NodeSpec,
        active_workers: int,
        workers: int,
        replay_span_s: float,
        lost_fraction: float,
    ) -> float:
        """Derive the full processing outage for one fault.

        ``active_workers`` is the surviving count *after* the fault;
        ``replay_span_s`` is the wall-clock span since the last
        completed checkpoint; ``lost_fraction`` is the share of state
        that lived on the dead workers.
        """
        if semantics is RecoverySemantics.CHECKPOINT_RESTORE:
            return (
                self.detection_timeout_s
                + self.restart_base_s
                + self.restore_s(state_bytes, node, active_workers)
                + max(0.0, replay_span_s) * self.replay_cost_factor
            )
        if semantics is RecoverySemantics.LINEAGE_RECOMPUTE:
            recompute_bytes = max(0.0, lost_fraction) * max(0.0, state_bytes)
            rate = max(1, active_workers) * self.recompute_bytes_per_s_per_worker
            return (
                self.detection_timeout_s
                + self.restart_base_s
                + recompute_bytes / rate
            )
        # TUPLE_REPLAY: no state restore; the outage is detection plus
        # topology rebalancing, which grows with the executor count.
        return self.detection_timeout_s + self.rebalance_base_s * (
            max(workers, 2) / 2.0
        ) ** 0.5
