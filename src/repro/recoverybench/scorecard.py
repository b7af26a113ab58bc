"""The ``repro recover`` harness: engines x policies x fault kinds.

Where the chaos soak throws *random* fault schedules at every cell and
checks invariants, this benchmark injects exactly **one deterministic
fault per cell** so the cells are comparable measurements: the same
fault kind at the same instant under the same offered load, varying
only the engine and the reschedule policy.  Each cell condenses to a
:class:`~repro.recoverybench.efficiency.RecoveryEfficiency` record;
each engine additionally runs the checkpoint-interval sensitivity
sweep (:mod:`repro.recoverybench.frontier`).

Determinism contract: :mod:`repro.grid` (one seed, one byte-identical
report JSON -- serial, ``--workers N``, or resumed from a journal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.detect.plane import DETECTOR_KINDS
import repro.engines.ext  # noqa: F401  (registers heron/samza in ENGINES)
from repro.engines import engine_class
from repro.faults.checkpoint import CheckpointSpec
from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.grid import (
    GENERATOR_INSTANCES,
    GridReport,
    canonical_json,
    check_invariants,
    require_axis,
    run_grid,
)
from repro.metrology.journal import TrialJournal
from repro.recovery.chaos import DEFAULT_ENGINES
from repro.recovery.reschedule import (
    MODE_NONE,
    MODE_SPREAD,
    MODE_STANDBY,
)
from repro.recoverybench.efficiency import (
    RecoveryEfficiency,
    efficiency_from_digest,
    recovery_cost_node_s,
)
from repro.recoverybench.frontier import (
    FrontierPoint,
    frontier_points,
    point_from_digest,
)
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

#: The SUT-side fault kinds benchmarked, one deterministic injection
#: each (driver-side faults injure the instrument, not the SUT, and are
#: chaos-soak material -- recovery efficiency is not defined for them).
FAULT_KINDS = ("crash", "restart", "slow", "partition", "disconnect")

#: The three reschedule policies compared per engine: legacy
#: lose-capacity, spreading over survivors, and standby promotion.
POLICY_NAMES = (MODE_NONE, MODE_SPREAD, MODE_STANDBY)

#: Log grid over CheckpointSpec.interval_s for the sensitivity sweep.
DEFAULT_INTERVALS = (2.5, 5.0, 10.0, 20.0, 40.0)

#: The fault driving every frontier trial: a process restart exercises
#: the checkpoint-derived recovery pause (detection + restart + restore
#: + replay-since-checkpoint) without entangling reschedule mechanics.
FRONTIER_KIND = "restart"

#: Injection instant as a fraction of the trial: late enough for a
#: clean baseline window, early enough to observe the full recovery.
FAULT_FRACTION = 0.4


@dataclass(frozen=True)
class RecoverConfig:
    """One recovery benchmark: grid cells plus per-engine frontiers."""

    seed: int = 0
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    policies: Tuple[str, ...] = POLICY_NAMES
    kinds: Tuple[str, ...] = FAULT_KINDS
    intervals: Tuple[float, ...] = DEFAULT_INTERVALS
    """Checkpoint intervals swept per engine; empty skips the frontier."""
    duration_s: float = 60.0
    rate: float = 30_000.0
    workers: int = 2
    """SUT cluster size (>= 2 so a crash under mode "none" leaves a
    survivor to measure instead of a failed trial)."""
    detector: Optional[str] = None
    """Failure-detector kind (``timeout`` / ``phi`` / ``quorum``) driving
    suspect migrations on every cell; ``None`` keeps the pre-existing
    fixed-timeout recovery semantics bit for bit."""

    def __post_init__(self) -> None:
        require_axis("engine", self.engines)
        require_axis("policy", self.policies, POLICY_NAMES)
        require_axis("fault kind", self.kinds, FAULT_KINDS)
        for interval in self.intervals:
            if interval <= 0:
                raise ValueError(
                    f"checkpoint intervals must be positive, got {interval}"
                )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.detector is not None:
            require_axis("detector", (self.detector,), DETECTOR_KINDS)

    @property
    def fault_at_s(self) -> float:
        return float(round(self.duration_s * FAULT_FRACTION, 3))

    def billed_nodes(self, policy: str) -> int:
        """Nodes paid for by the cell: workers plus hot standbys (the
        autoscale scorecard's node-second billing unit)."""
        return self.workers + (1 if policy == MODE_STANDBY else 0)


def fault_event(kind: str, at_s: float) -> FaultEvent:
    """The one deterministic injection of each benchmarked kind."""
    if kind == "crash":
        return NodeCrash(at_s=at_s, nodes=1)
    if kind == "restart":
        return ProcessRestart(at_s=at_s, nodes=1)
    if kind == "slow":
        return SlowNode(at_s=at_s, nodes=1, factor=0.5, duration_s=8.0)
    if kind == "partition":
        return NetworkPartition(at_s=at_s, duration_s=4.0)
    if kind == "disconnect":
        return QueueDisconnect(at_s=at_s, queue_index=0, duration_s=4.0)
    raise ValueError(f"unknown fault kind {kind!r}")


def _grid_spec(
    engine: str, policy: str, kind: str, config: RecoverConfig
) -> ExperimentSpec:
    standby = 1 if policy == MODE_STANDBY else 0
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=config.workers,
        profile=config.rate,
        duration_s=config.duration_s,
        seed=config.seed,
        generator=GeneratorConfig(instances=GENERATOR_INSTANCES),
        monitor_resources=False,
        faults=FaultSchedule((fault_event(kind, config.fault_at_s),)),
        standby=standby,
        reschedule=policy,
        detector=config.detector,
    )


def frontier_spec(
    engine: str, interval_s: float, config: RecoverConfig
) -> ExperimentSpec:
    """One frontier trial: a restart at ``config.fault_at_s`` under
    checkpoints every ``interval_s``."""
    # GC and emit jitter off: checkpoint pauses shift the GC process's
    # RNG draw count, so seeded pause noise would differ *per interval*
    # and smear the monotone trend the frontier exists to expose.
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=config.workers,
        profile=config.rate,
        duration_s=config.duration_s,
        seed=config.seed,
        generator=GeneratorConfig(instances=GENERATOR_INSTANCES),
        engine_config=engine_class(engine).config_cls(
            gc_rate_per_s=0.0, emit_jitter_sigma=0.0
        ),
        monitor_resources=False,
        faults=FaultSchedule(
            (fault_event(FRONTIER_KIND, config.fault_at_s),)
        ),
        checkpoint=CheckpointSpec(interval_s=interval_s),
        detector=config.detector,
    )


def _base_digest(
    result, config: RecoverConfig, violations: List[str]
) -> Dict[str, object]:
    fault = None
    if getattr(result, "recovery", None):
        fault = result.recovery[0].to_dict()
    return {
        "failed": bool(result.failed),
        "fault": fault,
        "violations": list(violations),
    }


def _grid_cell_task(payload) -> Dict[str, object]:
    """Scheduler worker body for one (engine, policy, kind) cell.  The
    spec is re-derived from the config (pure), so the digest is
    bit-identical to what the serial loop would produce."""
    config, engine, policy, kind = payload
    label = _grid_label(engine, policy, kind)
    result = run_experiment(_grid_spec(engine, policy, kind, config))
    violations = check_invariants(result, label, workers=config.workers)
    digest = _base_digest(result, config, violations)
    fault = digest["fault"] or {}
    recovery_time = fault.get("recovery_time_s")
    digest.update(
        {
            "guarantee": engine_class(engine).default_guarantee.value,
            "ingested_weight": float(
                result.diagnostics.get("conservation.ingested", 0.0)
            ),
            "recovery_cost_node_s": recovery_cost_node_s(
                billed_nodes=config.billed_nodes(policy),
                fault_time_s=config.fault_at_s,
                recovery_time_s=(
                    float(recovery_time)
                    if recovery_time is not None
                    else float("nan")
                ),
                duration_s=config.duration_s,
            ),
        }
    )
    return digest


def _frontier_cell_task(payload) -> Dict[str, object]:
    """Scheduler worker body for one (engine, interval) frontier trial."""
    config, engine, interval_s = payload
    result = run_experiment(frontier_spec(engine, interval_s, config))
    return frontier_digest(result, config, _frontier_label(engine, interval_s))


def frontier_digest(
    result, config: RecoverConfig, label: str
) -> Dict[str, object]:
    """One finished frontier trial, reduced: its fault's recovery, the
    checkpoint overhead fraction, and its invariant violations."""
    violations = check_invariants(result, label, workers=config.workers)
    digest = _base_digest(result, config, violations)
    d = result.diagnostics
    digest.update(
        {
            "overhead_fraction": float(
                d.get("checkpoint_pause_total_s", 0.0)
            )
            / config.duration_s,
            "checkpoints": int(d.get("checkpoints_completed", 0)),
        }
    )
    return digest


def _grid_label(engine: str, policy: str, kind: str) -> str:
    return f"{engine}/{policy}/{kind}"


def _frontier_label(engine: str, interval_s: float) -> str:
    return f"frontier/{engine}/{interval_s:g}s"


@dataclass
class RecoveryReport(GridReport):
    """Everything one recovery benchmark produced."""

    config: RecoverConfig
    cells: Dict[Tuple[str, str, str], RecoveryEfficiency]
    frontiers: Dict[str, List[FrontierPoint]]
    frontier_violations: List[str] = field(default_factory=list)

    def violation_groups(self):
        yield self.frontier_violations
        for cell in self.cells.values():
            yield cell.violations

    def to_dict(self) -> Dict[str, object]:
        frontiers: Dict[str, List[Dict[str, object]]] = {}
        for engine, points in sorted(self.frontiers.items()):
            annotated = frontier_points(points)
            frontiers[engine] = [
                dict(point.to_dict(), pareto=on_front)
                for point, on_front in annotated
            ]
        return {
            "seed": self.config.seed,
            "duration_s": self.config.duration_s,
            "rate": self.config.rate,
            "workers": self.config.workers,
            "fault_at_s": self.config.fault_at_s,
            "policies": list(self.config.policies),
            "kinds": list(self.config.kinds),
            "detector": self.config.detector,
            "intervals": list(self.config.intervals),
            "cells": {
                "/".join(key): cell.to_dict()
                for key, cell in sorted(self.cells.items())
            },
            "frontiers": frontiers,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        """Canonical serialisation -- byte-identical for equal seeds."""
        return canonical_json(self.to_dict())

    def render(self) -> str:
        """ASCII report: efficiency table, then per-engine frontiers."""
        header = (
            f"{'engine/policy/kind':<28} {'rec':>3} {'det(s)':>7} "
            f"{'rst(s)':>7} {'cat(s)':>7} {'total':>7} {'p99x':>6} "
            f"{'lost%':>7} {'dup%':>7} {'cost(ns)':>9}"
        )
        lines = [header, "-" * len(header)]
        for key, cell in sorted(self.cells.items()):
            d = cell.to_dict()

            def num(name, fmt="7.2f"):
                value = d[name]
                return f"{'n/a':>{fmt.split('.')[0]}}" if value is None else f"{value:>{fmt}}"

            lines.append(
                f"{'/'.join(key):<28} "
                f"{'yes' if cell.recovered else 'no':>3} "
                f"{num('detection_s')} {num('restore_s')} "
                f"{num('catchup_s')} {num('recovery_time_s')} "
                f"{num('p99_inflation', '6.2f')} "
                f"{cell.lost_fraction:>7.3%} "
                f"{cell.duplicated_fraction:>7.3%} "
                f"{cell.recovery_cost_node_s:>9.1f}"
            )
        for engine, points in sorted(self.frontiers.items()):
            lines.append("")
            lines.append(
                f"checkpoint-interval frontier: {engine} "
                f"(* = Pareto-efficient)"
            )
            sub = (
                f"  {'interval(s)':>11} {'recovery(s)':>11} "
                f"{'overhead':>9} {'ckpts':>5}"
            )
            lines.append(sub)
            lines.append("  " + "-" * (len(sub) - 2))
            for point, on_front in frontier_points(points):
                recovery = (
                    f"{point.recovery_time_s:>11.2f}"
                    if point.recovered
                    else f"{'never':>11}"
                )
                lines.append(
                    f"  {point.interval_s:>11g} {recovery} "
                    f"{point.overhead_fraction:>9.4%} "
                    f"{point.checkpoints:>5}"
                    + (" *" if on_front else "")
                )
        lines.append("")
        lines.extend(
            self.footer(
                f"{len(self.cells)} cells + "
                f"{sum(len(p) for p in self.frontiers.values())} frontier "
                f"trials, seed {self.config.seed}"
            )
        )
        return "\n".join(lines)


def recover_fingerprint(config: RecoverConfig) -> str:
    """Journal identity: a resumed benchmark must replay trials only
    from a journal written by the *same* benchmark.  Scheduler
    parallelism is deliberately absent -- serial and parallel runs of
    one config are the same experiment (byte-identical reports).  The
    ``v2`` tag versions the digest schema: the detection plane landed
    alongside it, and :class:`RecoverConfig` grew the ``detector``
    field -- a pre-detector journal's untagged fingerprint can never
    equal a ``v2`` one, so stale journals mismatch loudly instead of
    resuming against a different repr."""
    return f"recover|v2|{config!r}"


def run_recovery_bench(
    config: RecoverConfig = RecoverConfig(),
    progress=None,
    journal: Optional[TrialJournal] = None,
    workers: int = 1,
) -> RecoveryReport:
    """Run the benchmark: every engine under every reschedule policy
    against every fault kind, plus the checkpoint-interval frontier per
    engine.  ``progress``, ``journal`` and ``workers`` are
    :func:`repro.grid.run_grid`'s (``workers`` is scheduler
    parallelism, not ``config.workers``): the JSON is byte-identical
    however the trials were run.
    """
    cells = []
    grid: List[Tuple[str, str, str]] = []
    for engine in config.engines:
        for policy in config.policies:
            for kind in config.kinds:
                grid.append((engine, policy, kind))
                cells.append(
                    (
                        _grid_label(engine, policy, kind),
                        _grid_cell_task,
                        (config, engine, policy, kind),
                    )
                )
    sweep: List[Tuple[str, float]] = []
    for engine in config.engines:
        for interval in config.intervals:
            sweep.append((engine, interval))
            cells.append(
                (
                    _frontier_label(engine, interval),
                    _frontier_cell_task,
                    (config, engine, interval),
                )
            )

    def describe(digest, replayed: str) -> str:
        fault = digest.get("fault") or {}
        recovered = "recovered" if fault.get("recovered") else "unrecovered"
        return recovered + replayed

    digests = run_grid(cells, describe, progress, journal, workers)
    efficiencies: Dict[Tuple[str, str, str], RecoveryEfficiency] = {}
    for (engine, policy, kind), digest in zip(grid, digests):
        efficiencies[(engine, policy, kind)] = efficiency_from_digest(
            digest, engine, policy, kind
        )
    frontiers: Dict[str, List[FrontierPoint]] = {}
    frontier_violations: List[str] = []
    for (engine, interval), digest in zip(sweep, digests[len(grid):]):
        frontiers.setdefault(engine, []).append(
            point_from_digest(digest, engine, interval)
        )
        frontier_violations.extend(digest["violations"])
    return RecoveryReport(
        config=config,
        cells=efficiencies,
        frontiers=frontiers,
        frontier_violations=frontier_violations,
    )
