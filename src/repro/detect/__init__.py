"""repro.detect -- the pluggable failure-detection plane.

Until this package existed, failure detection in the framework was one
constant (:data:`~repro.faults.checkpoint.DETECTION_TIMEOUT_S`).  Here
the *detector* becomes a benchmarkable axis: seeded per-worker
heartbeats on the simulated sampling clock (:mod:`repro.detect.plane`),
exchangeable detector contracts -- fixed timeout, phi-accrual, k-of-n
quorum (:mod:`repro.detect.detectors`) -- and detection-quality
metrology (false positives/negatives, detection-latency distributions,
spurious migration node-seconds, cascade depth, metastability;
:mod:`repro.detect.metrics`).  Verdicts drive real evictions through
:func:`repro.recovery.reschedule.plan_suspect`, so a trigger-happy
detector pays for its mistakes in migration pauses.

The kind is the only knob: enable it per trial with
``ExperimentSpec(detector="timeout" | "phi" | "quorum")`` or
``--detector {timeout,phi,quorum}`` on ``repro run/chaos/recover``.
Heartbeat cadence, network delay and the detectors' thresholds are
module constants (``HEARTBEAT_INTERVAL_S`` and friends in
:mod:`repro.detect.plane`, ``PHI_THRESHOLD`` and friends in
:mod:`repro.detect.detectors`); the timeout detectors convict at
``DETECTION_TIMEOUT_S``.
"""

from repro.detect.detectors import (
    FailureDetector,
    PhiAccrualDetector,
    QuorumDetector,
    TimeoutDetector,
)
from repro.detect.metrics import DetectionMetrics, VerdictEvent
from repro.detect.plane import DETECTOR_KINDS, DetectionPlane

__all__ = [
    "DETECTOR_KINDS",
    "DetectionMetrics",
    "DetectionPlane",
    "FailureDetector",
    "PhiAccrualDetector",
    "QuorumDetector",
    "TimeoutDetector",
    "VerdictEvent",
]
