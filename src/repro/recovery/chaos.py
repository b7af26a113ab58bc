"""Chaos soak harness: seeded random fault schedules + invariant checks.

One fault schedule exercises one code path; a *soak* exercises the
product of {engines} x {recovery policies} x {randomized schedules} and
checks the properties that must hold on **every** path:

1. **conservation** -- the PR 3 weight ledgers balance on every trial,
   failed or not: engine-side ``ingested == staged + admitted +
   dropped`` and ``admitted == closed + stored + lost``; driver-side
   ``pushed == pulled + queued + shed + lost``;
2. **guarantee accounting** -- the engine's delivery guarantee holds
   under arbitrary fault interleavings (exactly-once loses and
   duplicates nothing, at-least-once loses nothing, at-most-once
   duplicates nothing);
3. **bounded recovery** -- a surviving trial ends with a bounded queue
   backlog (post-recovery event-time latency is bounded -- the SUT
   caught up, it is not quietly diverging at trial end);
4. **no hangs / no escapes** -- every trial returns a
   :class:`~repro.core.driver.TrialResult`; failures are flagged on the
   result, never raised out of the harness.

Schedules are drawn from a seeded generator, so a chaos run is fully
reproducible: the same seed yields byte-identical scorecards (pinned by
a determinism test), which makes the harness usable as a CI smoke step
(``repro chaos --seed 0 --rounds 3``).

The output is a per-(engine, policy) **recovery scorecard**: survival
counts, detection / recovery / catch-up milestones aggregated from the
driver-side recovery metrology, shed and migrated weight, and the list
of invariant violations (empty on a healthy build).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.driver import TrialResult
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.detect.plane import DETECTOR_KINDS, detector_spec
import repro.engines.ext  # noqa: F401  (registers heron/samza in ENGINES)
from repro.engines import engine_class
from repro.faults.schedule import (
    GRAY_CAPACITY_KINDS,
    AsymmetricPartition,
    DegradingNode,
    DriverNodeSlow,
    DriverQueueLoss,
    FaultEvent,
    FaultSchedule,
    FlappingNode,
    GeneratorCrash,
    GrayFaultEvent,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.grid import (
    GridReport,
    canonical_json,
    check_invariants,
    clean,
    nan,
    require_axis,
    round6,
    run_grid,
)
from repro.metrology.journal import TrialJournal
from repro.recovery.reschedule import MODE_STANDBY, ReschedulePolicy
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

DEFAULT_ENGINES = ("flink", "storm", "spark", "heron", "samza")


@dataclass(frozen=True)
class ChaosPolicy:
    """One recovery-policy configuration soaked against every engine."""

    name: str
    standby: int = 0
    shed: bool = False
    """Use the engine's ``recommended_degradation`` (load shedding
    + admission ramp) instead of the inert default."""

    def reschedule_policy(self) -> Optional[ReschedulePolicy]:
        if self.standby <= 0:
            return None
        return ReschedulePolicy(standby_nodes=self.standby, mode=MODE_STANDBY)


#: The three policy corners the scorecard compares: the legacy
#: fail-hard behaviour, pure graceful degradation, and standby
#: promotion with shedding on top.
DEFAULT_POLICIES: Tuple[ChaosPolicy, ...] = (
    ChaosPolicy(name="baseline"),
    ChaosPolicy(name="shed", shed=True),
    ChaosPolicy(name="standby", standby=1, shed=True),
)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos soak: engines x policies x seeded rounds."""

    seed: int = 0
    rounds: int = 3
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    policies: Tuple[ChaosPolicy, ...] = DEFAULT_POLICIES
    duration_s: float = 60.0
    rate: float = 30_000.0
    workers: int = 2
    generator_instances: int = 2
    max_faults_per_round: int = 3
    latency_bound_s: float = 20.0
    """Queue backlog age tolerated at the end of a *surviving* trial --
    the bounded post-recovery latency invariant."""
    driver_faults: bool = True
    """Mix driver-side faults (generator crash, queue loss, slow driver
    node) into the random schedules alongside the SUT faults -- the
    measurement plane is a fault domain too (see :mod:`repro.metrology`)."""
    detector: Optional[str] = None
    """Failure-detector kind driving suspect migrations on every trial
    (``timeout`` / ``phi`` / ``quorum``); ``None`` keeps the pre-existing
    fixed-timeout recovery semantics bit for bit."""
    gray_faults: bool = False
    """Mix gray failures (flapping node, fail-slow ramp, asymmetric
    partition) into the random schedules.  Off by default so the legacy
    draw sequence -- and therefore the journalled trial identity of
    existing soaks -- is untouched."""

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        require_axis("engine", self.engines)
        require_axis("policy", self.policies)
        if self.max_faults_per_round < 1:
            raise ValueError("max_faults_per_round must be >= 1")
        if self.detector is not None:
            require_axis("detector", (self.detector,), DETECTOR_KINDS)


def random_fault_schedule(
    rng: np.random.Generator, config: ChaosConfig
) -> FaultSchedule:
    """Draw one randomized fault schedule.

    Faults land in the middle half of the trial (so warmup is clean and
    there is room to observe recovery), with kinds weighted toward the
    transient faults real clusters see most.  A crash may kill the last
    worker -- that is a *policy outcome* the scorecard records, not a
    harness error.

    With ``config.gray_faults`` the mix also draws the gray family
    (flapping node, fail-slow ramp, asymmetric partition); the legacy
    kinds keep their relative weights, scaled to make room.  Gray node
    targets are assigned in a deterministic post-pass
    (:func:`_place_gray_faults`) so the drawn schedule always passes
    :meth:`~repro.faults.schedule.FaultSchedule.validate_against`'s
    same-node overlap rejections.
    """
    count = int(rng.integers(1, config.max_faults_per_round + 1))
    times = np.sort(
        rng.uniform(0.25 * config.duration_s, 0.75 * config.duration_s, count)
    )
    if config.driver_faults:
        kinds = [
            "crash", "restart", "slow", "partition", "disconnect",
            "gencrash", "queueloss", "driverslow",
        ]
        weights = [0.15, 0.15, 0.2, 0.1, 0.15, 0.1, 0.1, 0.05]
    else:
        kinds = ["crash", "restart", "slow", "partition", "disconnect"]
        weights = [0.2, 0.2, 0.25, 0.15, 0.2]
    if config.gray_faults:
        kinds = kinds + ["flap", "degrade", "asympart"]
        weights = [w * 0.8 for w in weights] + [0.08, 0.08, 0.04]
    events: List[FaultEvent] = []
    for at_s in times:
        at_s = float(round(at_s, 3))
        kind = rng.choice(kinds, p=weights)
        if kind == "gencrash":
            events.append(
                GeneratorCrash(
                    at_s=at_s,
                    instance=int(rng.integers(0, config.generator_instances)),
                )
            )
        elif kind == "queueloss":
            events.append(
                DriverQueueLoss(
                    at_s=at_s,
                    queue_index=int(
                        rng.integers(0, config.generator_instances)
                    ),
                )
            )
        elif kind == "driverslow":
            events.append(
                DriverNodeSlow(
                    at_s=at_s,
                    instance=int(rng.integers(0, config.generator_instances)),
                    factor=float(round(rng.uniform(0.3, 0.8), 3)),
                    duration_s=float(round(rng.uniform(4.0, 10.0), 3)),
                )
            )
        elif kind == "crash":
            events.append(NodeCrash(at_s=at_s, nodes=1))
        elif kind == "restart":
            events.append(ProcessRestart(at_s=at_s, nodes=1))
        elif kind == "slow":
            events.append(
                SlowNode(
                    at_s=at_s,
                    nodes=1,
                    factor=float(round(rng.uniform(0.3, 0.8), 3)),
                    duration_s=float(round(rng.uniform(4.0, 10.0), 3)),
                )
            )
        elif kind == "partition":
            events.append(
                NetworkPartition(
                    at_s=at_s,
                    duration_s=float(round(rng.uniform(2.0, 6.0), 3)),
                )
            )
        elif kind == "flap":
            events.append(
                FlappingNode(
                    at_s=at_s,
                    duration_s=float(round(rng.uniform(8.0, 14.0), 3)),
                    period_s=float(round(rng.uniform(4.0, 8.0), 3)),
                    duty=float(round(rng.uniform(0.3, 0.6), 3)),
                    seed=int(rng.integers(0, 2**16)),
                )
            )
        elif kind == "degrade":
            events.append(
                DegradingNode(
                    at_s=at_s,
                    duration_s=float(round(rng.uniform(8.0, 14.0), 3)),
                    floor_factor=float(round(rng.uniform(0.2, 0.5), 3)),
                )
            )
        elif kind == "asympart":
            events.append(
                AsymmetricPartition(
                    at_s=at_s,
                    duration_s=float(round(rng.uniform(4.0, 10.0), 3)),
                    direction=str(rng.choice(("heartbeat", "data"))),
                )
            )
        else:
            events.append(
                QueueDisconnect(
                    at_s=at_s,
                    queue_index=int(
                        rng.integers(0, config.generator_instances)
                    ),
                    duration_s=float(round(rng.uniform(2.0, 6.0), 3)),
                )
            )
    if config.gray_faults:
        events = _place_gray_faults(events, config.workers)
    return FaultSchedule(tuple(events))


def _place_gray_faults(
    events: List[FaultEvent], workers: int
) -> List[FaultEvent]:
    """Deterministically retarget the gray faults of one draw so the
    schedule always passes ``validate_against``'s overlap rejections.

    Gray capacity faults (flap / degrade) claim the lowest node index
    that is (a) outside the anonymous target range ``[0, nodes)`` of
    every time-overlapping :class:`SlowNode` and (b) not claimed by a
    time-overlapping gray capacity fault already placed; when no node
    is free the event is dropped -- a deterministically shorter
    schedule instead of an invalid one.  Asymmetric partitions carry no
    overlap constraint and pin the highest worker index.
    """
    slows = [e for e in events if isinstance(e, SlowNode)]
    placed: List[GrayFaultEvent] = []
    out: List[FaultEvent] = []
    for event in events:
        if not isinstance(event, GrayFaultEvent):
            out.append(event)
            continue
        if event.kind not in GRAY_CAPACITY_KINDS:
            out.append(replace(event, node=max(0, workers - 1)))
            continue
        chosen: Optional[int] = None
        for node in range(workers):
            blocked = any(
                node < s.nodes
                and event.at_s < s.end_s
                and s.at_s < event.end_s
                for s in slows
            ) or any(
                g.node == node
                and event.at_s < g.end_s
                and g.at_s < event.end_s
                for g in placed
            )
            if not blocked:
                chosen = node
                break
        if chosen is None:
            continue
        event = replace(event, node=chosen)
        placed.append(event)
        out.append(event)
    return out


# -- the soak ---------------------------------------------------------------


def trial_digest(result: TrialResult, violations: List[str]) -> Dict[str, object]:
    """Everything the scorecard needs from one trial, as a JSON-safe
    dict.  The scorecard absorbs *digests* (never raw results), so a
    journal-replayed trial aggregates bit-for-bit like a live one --
    the chaos resume byte-identity rests on this."""
    d = result.diagnostics
    recovery = []
    for entry in getattr(result, "recovery", None) or []:
        recovery.append(
            {
                "detection_s": clean(entry.detection_s),
                "migrated_bytes": float(getattr(entry, "migrated_bytes", 0.0)),
                "recovered": bool(entry.recovered),
                "recovery_time_s": clean(entry.recovery_time_s),
                "detection_phase_s": clean(entry.detection_phase_s),
                "restore_phase_s": clean(entry.restore_phase_s),
                "catchup_phase_s": clean(entry.catchup_phase_s),
                "catchup_throughput": clean(entry.catchup_throughput),
                "lost_weight": float(entry.lost_weight),
                "duplicated_weight": float(entry.duplicated_weight),
            }
        )
    detection = getattr(result, "detection", None)
    return {
        "failed": bool(result.failed),
        "detection": None if detection is None else detection.to_dict(),
        "end_queue_delay_s": (
            0.0 if result.failed else float(result.throughput.queue_delay_at_end())
        ),
        "faults_injected": float(d.get("faults_injected", 0.0)),
        "driver_faults_injected": float(d.get("driver.faults_injected", 0.0)),
        "shed_weight": float(d.get("shed_weight", 0.0)),
        "standbys_promoted": float(d.get("standbys_promoted", 0.0)),
        "lost_weight": float(d.get("lost_weight", 0.0)),
        "duplicated_weight": float(d.get("duplicated_weight", 0.0)),
        "driver_lost_weight": float(d.get("driver.lost_weight", 0.0)),
        "recovery": recovery,
        "violations": list(violations),
    }


@dataclass
class Scorecard:
    """Aggregated recovery behaviour of one (engine, policy) cell."""

    engine: str
    policy: str
    rounds: int = 0
    survived: int = 0
    failed: int = 0
    faults_injected: int = 0
    driver_faults_injected: int = 0
    faults_recovered: int = 0
    faults_unrecovered: int = 0
    detection_s_sum: float = 0.0
    detect_phase_s_sum: float = 0.0
    restore_phase_s_sum: float = 0.0
    catchup_phase_s_sum: float = 0.0
    fault_lost_weight: float = 0.0
    fault_duplicated_weight: float = 0.0
    recovery_s_max: float = 0.0
    catchup_rate_max: float = 0.0
    shed_weight: float = 0.0
    migrated_bytes: float = 0.0
    standbys_promoted: float = 0.0
    lost_weight: float = 0.0
    duplicated_weight: float = 0.0
    driver_lost_weight: float = 0.0
    end_queue_delay_s_max: float = 0.0
    false_positives: int = 0
    spurious_migration_node_s: float = 0.0
    cascade_depth_max: int = 0
    metastable: int = 0
    violations: List[str] = field(default_factory=list)

    def absorb(self, result: TrialResult, violations: List[str]) -> None:
        self.absorb_digest(trial_digest(result, violations))

    def absorb_digest(self, digest: Dict[str, object]) -> None:
        """Fold one trial digest into the cell.  Live trials and
        journal-replayed ones go through this same method, so a resumed
        soak aggregates bit-for-bit."""
        self.rounds += 1
        if digest["failed"]:
            self.failed += 1
        else:
            self.survived += 1
            self.end_queue_delay_s_max = max(
                self.end_queue_delay_s_max,
                float(digest["end_queue_delay_s"]),
            )
        self.faults_injected += int(digest["faults_injected"])
        self.driver_faults_injected += int(digest.get("driver_faults_injected", 0.0))
        self.shed_weight += float(digest["shed_weight"])
        self.standbys_promoted += float(digest["standbys_promoted"])
        self.lost_weight += float(digest["lost_weight"])
        self.duplicated_weight += float(digest["duplicated_weight"])
        self.driver_lost_weight += float(digest.get("driver_lost_weight", 0.0))
        detection = digest.get("detection")
        if detection is not None:
            self.false_positives += int(detection["false_positives"])
            self.spurious_migration_node_s += float(
                detection["spurious_migration_node_s"] or 0.0
            )
            self.cascade_depth_max = max(
                self.cascade_depth_max, int(detection["cascade_depth_max"])
            )
            self.metastable += int(bool(detection["metastable"]))
        for entry in digest["recovery"]:
            detection = nan(entry["detection_s"])
            if detection == detection:
                self.detection_s_sum += detection
            self.migrated_bytes += float(entry["migrated_bytes"])
            self.fault_lost_weight += float(entry.get("lost_weight", 0.0))
            self.fault_duplicated_weight += float(
                entry.get("duplicated_weight", 0.0)
            )
            if entry["recovered"]:
                self.faults_recovered += 1
                self.recovery_s_max = max(
                    self.recovery_s_max, nan(entry["recovery_time_s"])
                )
                for key, attr in (
                    ("detection_phase_s", "detect_phase_s_sum"),
                    ("restore_phase_s", "restore_phase_s_sum"),
                    ("catchup_phase_s", "catchup_phase_s_sum"),
                ):
                    phase = nan(entry.get(key))
                    if phase == phase:
                        setattr(self, attr, getattr(self, attr) + phase)
                catchup = nan(entry["catchup_throughput"])
                if catchup == catchup:
                    self.catchup_rate_max = max(
                        self.catchup_rate_max, catchup
                    )
            else:
                self.faults_unrecovered += 1
        self.violations.extend(digest["violations"])

    def _phase_mean(self, phase: str) -> float:
        """Mean per-recovered-fault phase duration (0 when none
        recovered: the decomposition only exists for recovered faults)."""
        if not self.faults_recovered:
            return 0.0
        total = getattr(self, f"{phase}_phase_s_sum")
        return total / self.faults_recovered

    def to_dict(self) -> Dict[str, object]:
        detection_mean = (
            self.detection_s_sum / self.faults_injected
            if self.faults_injected
            else 0.0
        )
        return {
            "engine": self.engine,
            "policy": self.policy,
            "rounds": self.rounds,
            "survived": self.survived,
            "failed": self.failed,
            "faults_injected": self.faults_injected,
            "driver_faults_injected": self.driver_faults_injected,
            "faults_recovered": self.faults_recovered,
            "faults_unrecovered": self.faults_unrecovered,
            "detection_s_mean": round6(detection_mean),
            "recovery_s_max": round6(self.recovery_s_max),
            "detect_phase_s_mean": round6(self._phase_mean("detect")),
            "restore_phase_s_mean": round6(self._phase_mean("restore")),
            "catchup_phase_s_mean": round6(self._phase_mean("catchup")),
            "fault_lost_weight": round6(self.fault_lost_weight),
            "fault_duplicated_weight": round6(self.fault_duplicated_weight),
            "catchup_rate_max": round6(self.catchup_rate_max),
            "shed_weight": round6(self.shed_weight),
            "migrated_bytes": round6(self.migrated_bytes),
            "standbys_promoted": round6(self.standbys_promoted),
            "lost_weight": round6(self.lost_weight),
            "duplicated_weight": round6(self.duplicated_weight),
            "driver_lost_weight": round6(self.driver_lost_weight),
            "end_queue_delay_s_max": round6(self.end_queue_delay_s_max),
            "false_positives": self.false_positives,
            "spurious_migration_node_s": round6(
                self.spurious_migration_node_s
            ),
            "cascade_depth_max": self.cascade_depth_max,
            "metastable": self.metastable,
            "violations": sorted(self.violations),
        }


@dataclass
class ChaosReport(GridReport):
    """Everything one soak produced."""

    config: ChaosConfig
    schedules: List[str]
    scorecards: Dict[Tuple[str, str], Scorecard]

    def violation_groups(self):
        return (card.violations for card in self.scorecards.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.config.seed,
            "rounds": self.config.rounds,
            "duration_s": self.config.duration_s,
            "rate": self.config.rate,
            "workers": self.config.workers,
            "schedules": list(self.schedules),
            "scorecards": {
                f"{engine}/{policy}": card.to_dict()
                for (engine, policy), card in sorted(self.scorecards.items())
            },
            "violations": self.violations,
        }

    def to_json(self) -> str:
        """Canonical serialisation -- byte-identical for equal seeds."""
        return canonical_json(self.to_dict())

    def render(self) -> str:
        """ASCII scorecard table."""
        header = (
            f"{'engine/policy':<18} {'ok':>5} {'fail':>4} {'faults':>6} "
            f"{'recov':>5} {'det(s)':>7} {'rst(s)':>7} {'cat(s)':>7} "
            f"{'rec(s)':>7} {'lost':>8} {'dup':>8} {'shed':>10} "
            f"{'promoted':>8} {'viol':>4}"
        )
        lines = [header, "-" * len(header)]
        for (engine, policy), card in sorted(self.scorecards.items()):
            d = card.to_dict()
            lines.append(
                f"{engine + '/' + policy:<18} {card.survived:>5} "
                f"{card.failed:>4} {card.faults_injected:>6} "
                f"{card.faults_recovered:>5} "
                f"{d['detect_phase_s_mean'] or 0:>7.2f} "
                f"{d['restore_phase_s_mean'] or 0:>7.2f} "
                f"{d['catchup_phase_s_mean'] or 0:>7.2f} "
                f"{d['recovery_s_max'] or 0:>7.2f} "
                f"{card.fault_lost_weight:>8.0f} "
                f"{card.fault_duplicated_weight:>8.0f} "
                f"{card.shed_weight:>10.0f} "
                f"{card.standbys_promoted:>8.0f} "
                f"{len(card.violations):>4}"
            )
        lines.append("-" * len(header))
        lines.extend(
            self.footer(
                f"{len(self.scorecards)} cells, "
                f"{self.config.rounds} rounds, seed {self.config.seed}"
            )
        )
        return "\n".join(lines)


def _trial_spec(
    engine: str,
    policy: ChaosPolicy,
    schedule: FaultSchedule,
    config: ChaosConfig,
    seed: int,
) -> ExperimentSpec:
    degradation = (
        engine_class(engine).recommended_degradation if policy.shed else None
    )
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=config.workers,
        profile=config.rate,
        duration_s=config.duration_s,
        seed=seed,
        generator=GeneratorConfig(instances=config.generator_instances),
        monitor_resources=False,
        faults=schedule,
        standby=policy.standby,
        reschedule=policy.reschedule_policy(),
        degradation=degradation,
        detector=detector_spec(config.detector),
    )


def chaos_fingerprint(config: ChaosConfig) -> str:
    """Identity of a soak for journal resume: a resumed run must replay
    trials only from a journal written by the *same* soak.  Scheduler
    parallelism is deliberately absent -- a parallel run and a serial
    run of the same config are the same experiment (byte-identical
    scorecards), so their journals are interchangeable.  The version
    tag versions the *digest schema*: ``v2`` (PR 9) added the recovery
    phase decomposition and per-fault guarantee weights to
    ``trial_digest``; ``v3`` adds the ``detection`` section (and the
    scorecard columns folded from it), so journals written before that
    carry digests the scorecard would aggregate differently -- they
    must mismatch loudly, not silently resume.  The detector kind and
    the gray-fault flag need no extra terms here: both live on
    :class:`ChaosConfig`, so ``config!r`` already separates their
    journals."""
    return f"chaos|v3|{config!r}"


def round_seed(seed: int, round_index: int) -> int:
    """Per-round trial seed, collision-free across ``(seed, round)``.

    The old ``seed * 1_000 + round_index`` arithmetic collided across
    configs (seed=1/round=0 drew the same trials as seed=0/round=1000);
    deriving through :class:`numpy.random.SeedSequence` spawning -- the
    same scheme :mod:`repro.sim.rng` uses for per-component streams --
    keys the seed on the *pair*, not their sum.
    """
    sequence = np.random.SeedSequence([int(seed), int(round_index)])
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def _cell_label(engine: str, policy_name: str, round_index: int) -> str:
    return f"{engine}/{policy_name}/round{round_index}"


def _chaos_cell_task(payload) -> Dict[str, object]:
    """Scheduler worker body: one (engine, policy, round) trial cell.

    The fault schedule and per-round seed are re-derived from the
    config -- pure functions of ``(seed, round_index)`` -- so a worker
    needs no state beyond the payload and the digest it returns is
    bit-identical to what the serial loop would have produced.
    """
    config, engine, policy, round_index = payload
    label = _cell_label(engine, policy.name, round_index)
    rng = np.random.default_rng([config.seed, round_index])
    schedule = random_fault_schedule(rng, config)
    spec = _trial_spec(
        engine, policy, schedule, config,
        seed=round_seed(config.seed, round_index),
    )
    result = run_experiment(spec)
    violations = check_invariants(
        result,
        label,
        workers=config.workers,
        latency_bound_s=config.latency_bound_s,
    )
    return trial_digest(result, violations)


def run_chaos(
    config: ChaosConfig = ChaosConfig(),
    progress=None,
    journal: Optional[TrialJournal] = None,
    workers: int = 1,
) -> ChaosReport:
    """Run the soak: for each round, draw one fault schedule and push it
    through every (engine, policy) cell, checking invariants on every
    trial.  ``progress``, ``journal`` and ``workers`` are
    :func:`repro.grid.run_grid`'s (``workers`` is scheduler
    parallelism; the simulated cluster size is ``config.workers``):
    the scorecard JSON is byte-identical however the cells were run.
    """
    scorecards: Dict[Tuple[str, str], Scorecard] = {
        (engine, policy.name): Scorecard(engine=engine, policy=policy.name)
        for engine in config.engines
        for policy in config.policies
    }
    schedules: List[str] = []
    cards: List[Scorecard] = []  # the scorecard each cell folds into
    cells = []
    for round_index in range(config.rounds):
        rng = np.random.default_rng([config.seed, round_index])
        schedules.append(random_fault_schedule(rng, config).describe())
        for engine in config.engines:
            for policy in config.policies:
                cards.append(scorecards[(engine, policy.name)])
                cells.append(
                    (
                        _cell_label(engine, policy.name, round_index),
                        _chaos_cell_task,
                        (config, engine, policy, round_index),
                    )
                )

    def describe(digest, replayed: str) -> str:
        return ("FAILED" if digest["failed"] else "ok") + replayed

    digests = run_grid(cells, describe, progress, journal, workers)
    for card, digest in zip(cards, digests):
        card.absorb_digest(digest)
    return ChaosReport(
        config=config, schedules=schedules, scorecards=scorecards
    )
