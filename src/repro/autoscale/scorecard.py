"""Cross-engine elasticity scorecard: engines x policies x workloads.

The chaos soak (:mod:`repro.recovery.chaos`) asks "does the SUT survive
faults?"; this harness asks the SProBench-style follow-up -- given a
diurnal curve or a flash crowd, how fast does each engine's *policy +
rescale mechanics* pipeline restore sustainable throughput, and what
does the elasticity cost in node-seconds and delivery-guarantee
exposure?

Each cell runs one engine under one scaling policy against one rate
profile, starting from a deliberately small cluster.  Offered load is
parameterized *relative to the engine's own single-worker capacity*
(derived from its cost model -- a pure function of the config), so
every engine sees the same relative overload: a flash crowd at
:data:`PEAK_FRACTION` times what one worker sustains.  Absolute rates would
make the weakest engine drown while the strongest never scales.

Invariants checked on every cell (the shared grid checks plus bounds):

1. conservation ledgers balance through every scale event;
2. delivery-guarantee accounting holds (exactly-once engines lose and
   duplicate nothing across rescales; at-least-once loses nothing;
   at-most-once duplicates nothing);
3. a surviving trial ends with bounded queue backlog (the autoscaler
   actually caught up, it is not quietly diverging);
4. the cluster never leaves ``[min_workers, max_workers]``.

Determinism contract: :mod:`repro.grid` (one seed, one byte-identical
scorecard JSON -- serial, parallel, or resumed from a journal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.autoscale.policy import POLICY_NAMES, AutoscaleSpec
from repro.core.driver import TrialResult
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
import repro.engines.ext  # noqa: F401  (registers heron/samza in ENGINES)
from repro.engines import engine_class
from repro.grid import (
    GENERATOR_INSTANCES,
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
from repro.recovery.chaos import DEFAULT_ENGINES
from repro.sim.cluster import ClusterSpec
from repro.sim.network import DataPlane
from repro.sim.simulator import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.profiles import DiurnalRate, FlashCrowdRate, RateProfile
from repro.workloads.queries import WindowedAggregationQuery

#: The two workload shapes every (engine, policy) cell is driven with.
PROFILE_NAMES = ("diurnal", "flash-crowd")

#: Trough offered load, as a fraction of the engine's single-worker
#: sustained capacity.
BASE_FRACTION = 0.4
#: Crest offered load, same units: above 1.0 (else nothing ever needs
#: to scale) and within what ``max_workers`` sustains.
PEAK_FRACTION = 2.0
#: Length of the flash crowd's one burst.
SPIKE_DURATION_S = 25.0


@dataclass(frozen=True)
class ElasticityConfig:
    """One elasticity sweep: engines x policies x rate profiles."""

    seed: int = 0
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    policies: Tuple[str, ...] = POLICY_NAMES
    profiles: Tuple[str, ...] = PROFILE_NAMES
    duration_s: float = 120.0
    workers: int = 1
    """Initial (deliberately small) cluster size."""
    min_workers: int = 1
    max_workers: int = 6
    cooldown_s: float = 12.0

    def __post_init__(self) -> None:
        require_axis("engine", self.engines)
        require_axis("policy", self.policies, POLICY_NAMES)
        require_axis("profile", self.profiles, PROFILE_NAMES)
        if not SPIKE_DURATION_S < self.duration_s:
            raise ValueError(
                f"duration_s must exceed the {SPIKE_DURATION_S:g} s "
                f"spike, got {self.duration_s}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def autoscale_spec(self, policy: str) -> AutoscaleSpec:
        return AutoscaleSpec(
            policy=policy,
            min_workers=self.min_workers,
            max_workers=self.max_workers,
            cooldown_s=self.cooldown_s,
        )


def single_worker_capacity(engine: str) -> float:
    """The engine's sustained events/s on one worker, from its cost
    model.  A pure function of the engine name (throwaway simulator,
    nothing runs), so parallel workers re-derive it bit-identically."""
    sim = Simulator()
    rng = RngRegistry(seed=1)
    instance = engine_class(engine)(
        sim=sim,
        cluster=ClusterSpec(1),
        query=WindowedAggregationQuery(),
        plane=DataPlane(sim),
        rng=rng.stream("capacity-probe"),
    )
    return instance._capacity_events_per_s()


def profile_for(
    name: str, engine: str, config: ElasticityConfig
) -> RateProfile:
    """The rate profile for one cell, scaled to the engine's capacity."""
    capacity = single_worker_capacity(engine)
    base = BASE_FRACTION * capacity
    peak = PEAK_FRACTION * capacity
    if name == "diurnal":
        # One full "day" compressed into the trial: trough at both ends,
        # crest mid-trial, so the tail drains and scales back in.
        return DiurnalRate(low=base, high=peak, period_s=config.duration_s)
    # Flash crowd: one seeded burst inside the first half, leaving the
    # second half to catch up and scale back in.
    return FlashCrowdRate(
        base=base,
        spike=peak,
        horizon_s=config.duration_s / 2.0,
        spikes=1,
        spike_duration_s=SPIKE_DURATION_S,
        seed=config.seed,
    )


def _trial_spec(
    engine: str, policy: str, profile_name: str, config: ElasticityConfig
) -> ExperimentSpec:
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(),
        workers=config.workers,
        profile=profile_for(profile_name, engine, config),
        duration_s=config.duration_s,
        seed=config.seed,
        generator=GeneratorConfig(instances=GENERATOR_INSTANCES),
        monitor_resources=False,
        autoscale=config.autoscale_spec(policy),
    )


def check_elasticity_invariants(
    result: TrialResult, config: ElasticityConfig, label: str
) -> List[str]:
    """Grid invariants (ledgers, guarantees, bounded end backlog) plus
    the autoscale-specific ones (cluster stays inside the bounds)."""
    violations = check_invariants(result, label, workers=config.max_workers)
    workers_end = result.diagnostics.get("cluster_workers", float("nan"))
    if workers_end == workers_end and not (
        config.min_workers <= workers_end <= config.max_workers
    ):
        violations.append(
            f"{label}: cluster ended at {workers_end:.0f} workers, "
            f"outside [{config.min_workers}, {config.max_workers}]"
        )
    for event in result.autoscale or []:
        if event.to_workers > config.max_workers or (
            event.kind == "scale-in" and event.to_workers < config.min_workers
        ):
            violations.append(
                f"{label}: {event.kind} targeted {event.to_workers:.0f} "
                f"workers, outside [{config.min_workers}, "
                f"{config.max_workers}]"
            )
    return violations


def trial_digest(
    result: TrialResult, config: ElasticityConfig, violations: List[str]
) -> Dict[str, object]:
    """Everything the scorecard needs from one cell, JSON-safe.  The
    scorecard absorbs digests (never raw results), so journal-replayed
    cells aggregate bit-for-bit like live ones."""
    d = result.diagnostics
    events = []
    for m in result.autoscale or []:
        events.append(
            {
                "kind": m.kind,
                "resustained": bool(m.resustained),
                "detect_s": clean(m.detect_s),
                "provision_s": clean(m.provision_s),
                "migrate_s": clean(m.migrate_s),
                "catchup_s": clean(m.catchup_s),
                "time_to_resustain_s": clean(m.time_to_resustain_s),
                "migrated_bytes": float(m.migrated_bytes),
            }
        )
    return {
        "failed": bool(result.failed),
        "end_queue_delay_s": (
            0.0
            if result.failed
            else float(result.throughput.queue_delay_at_end())
        ),
        "scale_outs": float(d.get("autoscale.scale_outs", 0.0)),
        "scale_ins": float(d.get("autoscale.scale_ins", 0.0)),
        "decisions": float(d.get("autoscale.decisions", 0.0)),
        "blocked": float(d.get("autoscale.blocked", 0.0)),
        "cost_node_seconds": float(d.get("autoscale.cost_node_seconds", 0.0)),
        "fixed_cost_node_seconds": float(
            config.max_workers * config.duration_s
        ),
        "workers_end": float(d.get("cluster_workers", 0.0)),
        "rescale_pause_s": float(d.get("rescale_pause_total_s", 0.0)),
        "lost_weight": float(d.get("lost_weight", 0.0)),
        "duplicated_weight": float(d.get("duplicated_weight", 0.0)),
        "events": events,
        "violations": list(violations),
    }


@dataclass
class ElasticityScorecard:
    """Aggregated elasticity behaviour of one (engine, policy) cell
    across the workload profiles."""

    engine: str
    policy: str
    trials: int = 0
    survived: int = 0
    failed: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    decisions: int = 0
    blocked: int = 0
    resustained: int = 0
    unresustained: int = 0
    detect_s_sum: float = 0.0
    provision_s_sum: float = 0.0
    migrate_s_sum: float = 0.0
    catchup_s_sum: float = 0.0
    resustain_s_max: float = 0.0
    migrated_bytes: float = 0.0
    rescale_pause_s: float = 0.0
    cost_node_seconds: float = 0.0
    fixed_cost_node_seconds: float = 0.0
    lost_weight: float = 0.0
    duplicated_weight: float = 0.0
    end_queue_delay_s_max: float = 0.0
    violations: List[str] = field(default_factory=list)

    def absorb_digest(self, digest: Dict[str, object]) -> None:
        """Fold one cell digest in; live and journal-replayed cells go
        through this same method (byte-identical resume)."""
        self.trials += 1
        if digest["failed"]:
            self.failed += 1
        else:
            self.survived += 1
            self.end_queue_delay_s_max = max(
                self.end_queue_delay_s_max, float(digest["end_queue_delay_s"])
            )
        self.scale_outs += int(digest["scale_outs"])
        self.scale_ins += int(digest["scale_ins"])
        self.decisions += int(digest["decisions"])
        self.blocked += int(digest["blocked"])
        self.cost_node_seconds += float(digest["cost_node_seconds"])
        self.fixed_cost_node_seconds += float(digest["fixed_cost_node_seconds"])
        self.rescale_pause_s += float(digest["rescale_pause_s"])
        self.lost_weight += float(digest["lost_weight"])
        self.duplicated_weight += float(digest["duplicated_weight"])
        for event in digest["events"]:
            self.migrated_bytes += float(event["migrated_bytes"])
            if event["resustained"]:
                self.resustained += 1
                self.resustain_s_max = max(
                    self.resustain_s_max, nan(event["time_to_resustain_s"])
                )
                for leg, bucket in (
                    ("detect_s", "detect_s_sum"),
                    ("provision_s", "provision_s_sum"),
                    ("migrate_s", "migrate_s_sum"),
                    ("catchup_s", "catchup_s_sum"),
                ):
                    value = nan(event[leg])
                    if value == value:
                        setattr(
                            self, bucket, getattr(self, bucket) + value
                        )
            else:
                self.unresustained += 1
        self.violations.extend(digest["violations"])

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "policy": self.policy,
            "trials": self.trials,
            "survived": self.survived,
            "failed": self.failed,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "decisions": self.decisions,
            "blocked": self.blocked,
            "resustained": self.resustained,
            "unresustained": self.unresustained,
            "detect_s_sum": round6(self.detect_s_sum),
            "provision_s_sum": round6(self.provision_s_sum),
            "migrate_s_sum": round6(self.migrate_s_sum),
            "catchup_s_sum": round6(self.catchup_s_sum),
            "resustain_s_max": round6(self.resustain_s_max),
            "migrated_bytes": round6(self.migrated_bytes),
            "rescale_pause_s": round6(self.rescale_pause_s),
            "cost_node_seconds": round6(self.cost_node_seconds),
            "fixed_cost_node_seconds": round6(self.fixed_cost_node_seconds),
            "cost_saving_fraction": round6(
                1.0 - self.cost_node_seconds / self.fixed_cost_node_seconds
                if self.fixed_cost_node_seconds
                else 0.0
            ),
            "lost_weight": round6(self.lost_weight),
            "duplicated_weight": round6(self.duplicated_weight),
            "end_queue_delay_s_max": round6(self.end_queue_delay_s_max),
            "violations": sorted(self.violations),
        }


@dataclass
class ElasticityReport(GridReport):
    """Everything one elasticity sweep produced."""

    config: ElasticityConfig
    scorecards: Dict[Tuple[str, str], ElasticityScorecard]

    def violation_groups(self):
        return (card.violations for card in self.scorecards.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.config.seed,
            "duration_s": self.config.duration_s,
            "workers": self.config.workers,
            "min_workers": self.config.min_workers,
            "max_workers": self.config.max_workers,
            "cooldown_s": self.config.cooldown_s,
            "base_fraction": BASE_FRACTION,
            "peak_fraction": PEAK_FRACTION,
            "profiles": list(self.config.profiles),
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
            f"{'engine/policy':<16} {'ok':>3} {'out':>4} {'in':>4} "
            f"{'resus':>5} {'never':>5} {'ttr-max':>8} {'pause(s)':>8} "
            f"{'cost(ns)':>9} {'saved':>6} {'viol':>4}"
        )
        lines = [header, "-" * len(header)]
        for (engine, policy), card in sorted(self.scorecards.items()):
            d = card.to_dict()
            saved = d["cost_saving_fraction"] or 0.0
            lines.append(
                f"{engine + '/' + policy:<16} {card.survived:>3} "
                f"{card.scale_outs:>4} {card.scale_ins:>4} "
                f"{card.resustained:>5} {card.unresustained:>5} "
                f"{d['resustain_s_max'] or 0:>8.2f} "
                f"{d['rescale_pause_s'] or 0:>8.2f} "
                f"{card.cost_node_seconds:>9.0f} "
                f"{saved:>6.1%} "
                f"{len(card.violations):>4}"
            )
        lines.append("-" * len(header))
        lines.extend(
            self.footer(
                f"{len(self.scorecards)} cells x "
                f"{len(self.config.profiles)} profiles, "
                f"seed {self.config.seed}"
            )
        )
        return "\n".join(lines)


def elasticity_fingerprint(config: ElasticityConfig) -> str:
    """Journal identity: a resumed sweep must replay cells only from a
    journal written by the *same* sweep.  Scheduler parallelism is
    deliberately absent -- serial and parallel runs of one config are
    the same experiment (byte-identical scorecards)."""
    return f"elasticity|{config!r}"


def _cell_label(engine: str, policy: str, profile: str) -> str:
    return f"{engine}/{policy}/{profile}"


def _elasticity_cell_task(payload) -> Dict[str, object]:
    """Scheduler worker body: one (engine, policy, profile) cell.  The
    spec is re-derived from the config (pure), so the digest is
    bit-identical to what the serial loop would produce."""
    config, engine, policy, profile = payload
    label = _cell_label(engine, policy, profile)
    result = run_experiment(_trial_spec(engine, policy, profile, config))
    violations = check_elasticity_invariants(result, config, label)
    return trial_digest(result, config, violations)


def run_elasticity(
    config: ElasticityConfig = ElasticityConfig(),
    progress=None,
    journal: Optional[TrialJournal] = None,
    workers: int = 1,
) -> ElasticityReport:
    """Run the sweep: every engine under every policy against every
    profile, checking invariants on every cell.  ``progress``,
    ``journal`` and ``workers`` are :func:`repro.grid.run_grid`'s
    (``workers`` is scheduler parallelism; the simulated cluster sizes
    itself): the JSON is byte-identical however the cells were run.
    """
    scorecards: Dict[Tuple[str, str], ElasticityScorecard] = {
        (engine, policy): ElasticityScorecard(engine=engine, policy=policy)
        for engine in config.engines
        for policy in config.policies
    }
    cards: List[ElasticityScorecard] = []  # the card each cell folds into
    cells = []
    for engine in config.engines:
        for policy in config.policies:
            for profile in config.profiles:
                cards.append(scorecards[(engine, policy)])
                cells.append(
                    (
                        _cell_label(engine, policy, profile),
                        _elasticity_cell_task,
                        (config, engine, policy, profile),
                    )
                )

    def describe(digest, replayed: str) -> str:
        status = "FAILED" if digest["failed"] else "ok"
        return (
            f"{status}{replayed} "
            f"({digest['scale_outs']:.0f} out / {digest['scale_ins']:.0f} in)"
        )

    digests = run_grid(cells, describe, progress, journal, workers)
    for card, digest in zip(cards, digests):
        card.absorb_digest(digest)
    return ElasticityReport(config=config, scorecards=scorecards)
