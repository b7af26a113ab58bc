"""The checkpointing model that *derives* recovery pauses.

Before this subsystem, a node failure paused the engine for a fixed
``recovery_pause_s`` constant (6 s by default).  Vogel et al. (2024)
show that recovery time is a function of the fault-tolerance
configuration -- checkpoint interval, state size, and restore
bandwidth -- not an engine constant.  :class:`CheckpointSpec` holds
the two knobs a deployment chooses (checkpoint interval and delivery
guarantee); the module constants below hold the model's assumptions,
and the functions here derive both costs:

- **steady-state checkpoint pauses**: every ``interval_s`` a
  checkpoint's synchronous part suspends the pipeline for
  ``SYNC_PAUSE_BASE_S + state_gb * SYNC_PAUSE_S_PER_GB`` (the
  alignment/sync barrier; the asynchronous upload is free);
- **the recovery pause after a fault**, per engine semantics
  (:class:`RecoverySemantics`):

  - ``CHECKPOINT_RESTORE`` (Flink; Samza's changelog restore):
    failure detection, process restart, pulling the last completed
    checkpoint's state back over the NIC of the surviving workers, and
    replaying the input since that checkpoint from the driver queues
    (``replay span * REPLAY_COST_FACTOR``);
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
from repro.sim.cluster import NIC_BYTES_PER_S


class RecoverySemantics(enum.Enum):
    """How an engine reconstructs state after losing a worker."""

    CHECKPOINT_RESTORE = "checkpoint-restore"
    LINEAGE_RECOMPUTE = "lineage-recompute"
    TUPLE_REPLAY = "tuple-replay"


#: Failure-detector timeout (heartbeat loss to suspicion).  The one
#: detection delay of the model: crash recovery pauses for it, a
#: straggler shorter than it is never migrated, and the heartbeat
#: detectors of :mod:`repro.detect` convict at it.
DETECTION_TIMEOUT_S = 2.0
#: Process/container restart and task re-deployment latency.
RESTART_BASE_S = 1.5
#: Storm-style topology rebalance at 2 workers; scales with
#: ``sqrt(workers / 2)`` (more executors to coordinate).
REBALANCE_BASE_S = 12.0
#: Fixed synchronous cost of a checkpoint (barrier alignment).
SYNC_PAUSE_BASE_S = 0.02
#: Synchronous checkpoint cost per GB of live operator state (the async
#: upload does not pause the pipeline).
SYNC_PAUSE_S_PER_GB = 0.1
#: Fraction of the surviving workers' NIC bandwidth usable for pulling
#: checkpoint state from remote storage.
RESTORE_NIC_FRACTION = 0.8
#: Pause seconds per second of replay window: replaying the input since
#: the last checkpoint runs at catch-up (burst) rate -- roughly 2x the
#: offered load -- so it costs a fraction of the wall-clock span being
#: replayed.
REPLAY_COST_FACTOR = 0.45
#: Lineage recomputation rate per surviving worker (cached parent
#: blocks, CPU-bound, embarrassingly parallel).
RECOMPUTE_BYTES_PER_S_PER_WORKER = 2e9


@dataclass(frozen=True)
class CheckpointSpec:
    """Fault-tolerance configuration of one trial.

    The two knobs a deployment chooses; every other term of the cost
    model is a module constant above.  Those constants are model
    assumptions; none reproduce a published number.  The *structure*
    -- restore time proportional to state bytes over NIC bandwidth,
    replay proportional to the checkpoint interval -- is the Vogel et
    al. model.
    """

    interval_s: float = 10.0
    """Checkpoint interval.  Longer intervals mean cheaper steady state
    but a larger replay window after a failure."""
    guarantee: Optional[DeliveryGuarantee] = None
    """Override of the engine's default delivery guarantee (e.g. run
    Storm with acking -> at-least-once, or Flink without barriers ->
    at-most-once)."""

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {self.interval_s}"
            )


# -- steady state ------------------------------------------------------------


def sync_pause_s(state_bytes: float) -> float:
    """Pipeline pause caused by one checkpoint's synchronous part."""
    return SYNC_PAUSE_BASE_S + (
        max(0.0, state_bytes) / 1e9
    ) * SYNC_PAUSE_S_PER_GB


# -- recovery ----------------------------------------------------------------


def restore_s(state_bytes: float, active_workers: int) -> float:
    """Time to pull ``state_bytes`` of checkpoint state back onto the
    surviving workers' NICs."""
    bandwidth = (
        max(1, active_workers)
        * NIC_BYTES_PER_S
        * RESTORE_NIC_FRACTION
    )
    return max(0.0, state_bytes) / bandwidth


def recovery_pause_s(
    semantics: RecoverySemantics,
    *,
    state_bytes: float,
    active_workers: int,
    workers: int,
    replay_span_s: float,
    lost_fraction: float,
) -> float:
    """Derive the full processing outage for one fault.

    ``active_workers`` is the surviving count *after* the fault;
    ``replay_span_s`` is the wall-clock span since the last completed
    checkpoint; ``lost_fraction`` is the share of state that lived on
    the dead workers.
    """
    if semantics is RecoverySemantics.CHECKPOINT_RESTORE:
        return (
            DETECTION_TIMEOUT_S
            + RESTART_BASE_S
            + restore_s(state_bytes, active_workers)
            + max(0.0, replay_span_s) * REPLAY_COST_FACTOR
        )
    if semantics is RecoverySemantics.LINEAGE_RECOMPUTE:
        recompute_bytes = max(0.0, lost_fraction) * max(0.0, state_bytes)
        rate = max(1, active_workers) * RECOMPUTE_BYTES_PER_S_PER_WORKER
        return (
            DETECTION_TIMEOUT_S
            + RESTART_BASE_S
            + recompute_bytes / rate
        )
    # TUPLE_REPLAY: no state restore; the outage is detection plus
    # topology rebalancing, which grows with the executor count.
    return DETECTION_TIMEOUT_S + REBALANCE_BASE_S * (
        max(workers, 2) / 2.0
    ) ** 0.5
