"""repro: reproduction of "Benchmarking Distributed Stream Data
Processing Systems" (Karimov et al., ICDE 2018).

A driver/SUT-separated benchmarking framework for stream data processing
systems, together with simulated models of Apache Storm 1.0.2, Apache
Spark Streaming 2.0.1, and Apache Flink 1.1.3 faithful to the
architectural analysis in the paper.

Quick start::

    from repro import ExperimentSpec, run_experiment
    result = run_experiment(ExperimentSpec(engine="flink", profile=0.3e6))
    print(result.describe())

Subpackages
-----------
- ``repro.core`` -- the benchmark framework (generators, queues,
  event-/processing-time latency, sustainable throughput, driver).
- ``repro.engines`` -- the three engine models and the generic engine
  interface.
- ``repro.workloads`` -- the Rovio-inspired purchases/ads workload.
- ``repro.faults`` -- fault schedules, the checkpointing model,
  delivery-guarantee accounting, and recovery metrology.
- ``repro.sim`` -- the deterministic discrete-event substrate.
- ``repro.analysis`` -- post-processing, figure series, and the paper's
  published values for side-by-side comparison.
"""

from repro.core import (
    ExperimentSpec,
    SustainabilityCriteria,
    TrialResult,
    assess,
    find_sustainable_throughput,
    run_experiment,
)
from repro.engines import ENGINES, engine_class
from repro.faults import (
    CheckpointSpec,
    DeliveryGuarantee,
    FaultSchedule,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    RecoveryMetrics,
    SlowNode,
)
from repro.workloads import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

__version__ = "1.0.0"

__all__ = [
    "CheckpointSpec",
    "DeliveryGuarantee",
    "ENGINES",
    "ExperimentSpec",
    "FaultSchedule",
    "NetworkPartition",
    "NodeCrash",
    "ProcessRestart",
    "QueueDisconnect",
    "RecoveryMetrics",
    "SlowNode",
    "SustainabilityCriteria",
    "TrialResult",
    "WindowSpec",
    "WindowedAggregationQuery",
    "WindowedJoinQuery",
    "assess",
    "engine_class",
    "find_sustainable_throughput",
    "run_experiment",
    "__version__",
]
