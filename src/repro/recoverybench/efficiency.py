"""Per-cell recovery efficiency: one fault, fully accounted.

A :class:`RecoveryEfficiency` record condenses everything one
(engine x reschedule policy x fault kind) trial says about recovery
quality into the quantities Vogel et al. (2024) rank frameworks on:

- the **time decomposition** of the recovery window (detection /
  restore / catch-up, from :class:`repro.faults.metrics.RecoveryMetrics`);
- **correctness exposure** -- lost and duplicated weight, normalized by
  the trial's ingested weight so engines at different rates compare,
  and labelled with the delivery guarantee that *permits* (or forbids)
  each kind of exposure;
- **residual damage** -- post-recovery p99 latency relative to the
  pre-fault baseline p99 (a recovered-but-limping cluster shows up
  here, not in the recovery time);
- the **recovery-cost score** -- node-seconds burned during the
  recovery window, the same billing unit as the autoscale scorecard's
  ``cost_node_seconds``: every billed node (workers plus hot standbys)
  is paid for while the pipeline is off its baseline, so cost is
  ``billed_nodes * recovery_window``.  A never-recovered fault burns
  through to the end of the trial.

Records are built from trial *digests* (JSON round-trippable dicts),
never raw results, so journal-replayed cells reconstruct bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.grid import nan, round6

NAN = float("nan")


@dataclass(frozen=True)
class RecoveryEfficiency:
    """Everything one benchmark cell measured about one fault."""

    engine: str
    policy: str
    kind: str
    guarantee: str
    failed: bool
    recovered: bool
    detection_s: float
    restore_s: float
    catchup_s: float
    recovery_time_s: float
    catchup_throughput: float
    p99_inflation: float
    """Post-recovery p99 over pre-fault baseline p99 (NaN when either
    side is unmeasurable; 1.0 means fully healed)."""
    lost_weight: float
    duplicated_weight: float
    lost_fraction: float
    """Lost weight over the trial's ingested weight (guarantee-level
    normalization: comparable across engines at different rates)."""
    duplicated_fraction: float
    recovery_cost_node_s: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "policy": self.policy,
            "kind": self.kind,
            "guarantee": self.guarantee,
            "failed": self.failed,
            "recovered": self.recovered,
            "detection_s": round6(self.detection_s),
            "restore_s": round6(self.restore_s),
            "catchup_s": round6(self.catchup_s),
            "recovery_time_s": round6(self.recovery_time_s),
            "catchup_throughput": round6(self.catchup_throughput),
            "p99_inflation": round6(self.p99_inflation),
            "lost_weight": round6(self.lost_weight),
            "duplicated_weight": round6(self.duplicated_weight),
            "lost_fraction": round6(self.lost_fraction),
            "duplicated_fraction": round6(self.duplicated_fraction),
            "recovery_cost_node_s": round6(self.recovery_cost_node_s),
            "violations": sorted(self.violations),
        }


def recovery_cost_node_s(
    billed_nodes: int,
    fault_time_s: float,
    recovery_time_s: float,
    duration_s: float,
) -> float:
    """Node-seconds burned above baseline during the recovery window.

    Same billing unit as ``autoscale.cost_node_seconds``: each billed
    node costs one node-second per second.  The window is the measured
    recovery time, or -- when latency never returned to the baseline
    band -- the remainder of the trial (the outage was still being
    paid for when the trial ended).
    """
    if recovery_time_s == recovery_time_s:
        window = max(0.0, recovery_time_s)
    else:
        window = max(0.0, duration_s - fault_time_s)
    return float(billed_nodes) * min(window, max(0.0, duration_s))


def efficiency_from_digest(
    digest: Dict[str, object], engine: str, policy: str, kind: str
) -> RecoveryEfficiency:
    """Reconstruct one cell's record from its JSON-safe digest.

    The digest's ``fault`` block comes from
    :meth:`RecoveryMetrics.to_dict` (first fault of the cell -- the
    benchmark injects exactly one per trial); a failed trial that
    produced no metrology yields an all-NaN record with
    ``recovered: false``.
    """
    fault = digest.get("fault") or {}
    ingested = float(digest.get("ingested_weight", 0.0))
    lost = nan(fault.get("lost_weight")) if fault else 0.0
    dup = nan(fault.get("duplicated_weight")) if fault else 0.0
    lost = lost if lost == lost else 0.0
    dup = dup if dup == dup else 0.0
    baseline_p99 = nan(fault.get("baseline_p99_s"))
    post_p99 = nan(fault.get("post_p99_s"))
    inflation = (
        post_p99 / baseline_p99
        if baseline_p99 == baseline_p99 and baseline_p99 > 0.0
        and post_p99 == post_p99
        else NAN
    )
    return RecoveryEfficiency(
        engine=engine,
        policy=policy,
        kind=kind,
        guarantee=str(digest.get("guarantee", "")),
        failed=bool(digest.get("failed", False)),
        recovered=bool(fault.get("recovered", False)),
        detection_s=nan(fault.get("detection_phase_s")),
        restore_s=nan(fault.get("restore_phase_s")),
        catchup_s=nan(fault.get("catchup_phase_s")),
        recovery_time_s=nan(fault.get("recovery_time_s")),
        catchup_throughput=nan(fault.get("catchup_throughput")),
        p99_inflation=inflation,
        lost_weight=lost,
        duplicated_weight=dup,
        lost_fraction=lost / ingested if ingested > 0 else 0.0,
        duplicated_fraction=dup / ingested if ingested > 0 else 0.0,
        recovery_cost_node_s=float(digest.get("recovery_cost_node_s", 0.0)),
        violations=tuple(digest.get("violations", ())),
    )
