"""repro.faults -- fault-injection and recovery benchmarking.

The robustness extension of the framework (after Vogel et al. 2024):
typed fault timelines (:mod:`repro.faults.schedule`), a checkpointing
model that derives recovery pauses from state size, checkpoint
interval, and NIC bandwidth (:mod:`repro.faults.checkpoint`),
delivery-guarantee accounting of lost/duplicated data
(:mod:`repro.faults.guarantees`), and driver-side recovery metrology
(:mod:`repro.faults.metrics`).

Wire a schedule into a trial via ``ExperimentSpec(faults=...)``.
"""

from repro.faults.checkpoint import CheckpointSpec, RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee, GuaranteeAccounting
from repro.faults.metrics import RecoveryMetrics, compute_recovery_metrics
from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    DriverNodeSlow,
    DriverQueueLoss,
    FaultEvent,
    FaultSchedule,
    FlappingNode,
    GeneratorCrash,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)

__all__ = [
    "AsymmetricPartition",
    "CheckpointSpec",
    "DegradingNode",
    "DeliveryGuarantee",
    "DriverNodeSlow",
    "DriverQueueLoss",
    "FaultEvent",
    "FaultSchedule",
    "FlappingNode",
    "GeneratorCrash",
    "GuaranteeAccounting",
    "NetworkPartition",
    "NodeCrash",
    "ProcessRestart",
    "QueueDisconnect",
    "RecoveryMetrics",
    "RecoverySemantics",
    "SlowNode",
    "compute_recovery_metrics",
]
