"""The four workloads, as lists of operations over public entry points.

An *operation* is one call a user of the repository makes -- a trial, a
sustainable-throughput search, or one pass over the scorecard grids --
returning the simulated statistics it produced (for the digest), how
many countable units it attempted (trials, searches, grid cells) and
which of them failed.  Host time is measured by the caller; nothing in
here reads a clock.

Entry points are looked up on their module at call time
(``experiment.run_experiment(...)``), so the traced run's stand-ins are
the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.paper_values import (
    PAPER_TABLE1_AGG_THROUGHPUT,
    PAPER_TABLE3_JOIN_THROUGHPUT,
)
from repro.autoscale import scorecard
from repro.core import experiment, sustainable
from repro.core.driver import TrialResult
from repro.core.experiment import ExperimentSpec
from repro.core.generator import GeneratorConfig
from repro.metrology.journal import TrialJournal
from repro.recovery import chaos
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import (
    Query,
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

WINDOW = WindowSpec(8.0, 4.0)
RATE = 0.3e6
"""Offered load of the steady trials: sustainable for all three engines."""
WIDE_KEYS = 4096
SEARCH_HIGH_RATE = 1.6e6
WARMUP_SIM_S = 20.0
LEDGER_REL_TOL = 1e-9

#: Diagnostics read from the host clock, not from the simulation: the
#: only trial statistics allowed to differ between two runs of one seed
#: (the same set ``benchmarks/bench_engine_hotpath.py`` excludes).
HOST_CLOCK_KEYS = frozenset(
    {"driver.summary_s", "collector.collect_s", "collector.samples_per_s"}
)


@dataclass
class Outcome:
    """What one operation produced."""

    stats: Any
    """Every simulated statistic, JSON-safe; hashed into the digest."""
    attempted: int
    failures: List[str] = field(default_factory=list)
    paper_rel_err: Optional[float] = None


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[], Outcome]


def digest(stats: Any) -> str:
    """sha256 over canonical JSON (sorted keys, shortest float repr)."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_spec(
    engine: str, query: Query, duration_s: float, seed: int
) -> ExperimentSpec:
    return ExperimentSpec(
        engine=engine,
        query=query,
        workers=2,
        profile=RATE,
        duration_s=duration_s,
        seed=seed,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )


def trial_stats(result: TrialResult) -> Dict[str, Any]:
    return {
        "failure": result.failure,
        "event_latency": result.event_latency.to_dict(),
        "processing_latency": result.processing_latency.to_dict(),
        "mean_ingest_rate": result.mean_ingest_rate,
        "diagnostics": {
            key: value
            for key, value in result.diagnostics.items()
            if key not in HOST_CLOCK_KEYS
        },
    }


def ledger_failures(result: TrialResult) -> List[str]:
    """Weight-conservation ledgers of one trial that do not balance."""
    d = result.diagnostics
    broken: List[str] = []

    def balance(name: str, lhs: float, rhs: float, scale: float) -> None:
        if abs(lhs - rhs) > LEDGER_REL_TOL * max(1.0, scale):
            broken.append(f"{name} ledger: {lhs!r} != {rhs!r}")

    pushed = d["driver.pushed_weight"]
    balance(
        "driver",
        pushed,
        d["driver.pulled_weight"]
        + d["driver.queued_weight"]
        + d["driver.shed_weight"]
        + d["driver.lost_weight"],
        pushed,
    )
    if "conservation.staged" in d:
        ingested = d["conservation.ingested"]
        balance(
            "ingest",
            ingested,
            d["conservation.staged"]
            + d["conservation.admitted"]
            + d["conservation.dropped"],
            ingested,
        )
        balance(
            "window",
            d["conservation.admitted"],
            d["conservation.closed"]
            + d["conservation.stored"]
            + d["conservation.lost"],
            ingested,
        )
    return broken


def run_trial(spec: ExperimentSpec) -> Outcome:
    result = experiment.run_experiment(spec)
    failures = ledger_failures(result)
    if result.failed:
        failures.append(f"trial failed: {result.failure}")
    return Outcome(stats=trial_stats(result), attempted=1, failures=failures)


def run_search(spec: ExperimentSpec, paper_rate: float) -> Outcome:
    # ``run`` is passed explicitly because the function's default was
    # bound at import time and would bypass the traced stand-in.
    found = sustainable.find_sustainable_throughput(
        spec, high_rate=SEARCH_HIGH_RATE, run=experiment.run_experiment
    )
    rate = found.sustainable_rate
    failures = []
    if math.isnan(rate) or not 0.0 < rate <= SEARCH_HIGH_RATE:
        failures.append(f"search returned {rate!r}")
    stats = {
        "sustainable_rate": None if math.isnan(rate) else rate,
        "ladder": [trial.export_entry() for trial in found.trials],
    }
    return Outcome(
        stats=stats,
        attempted=1,
        failures=failures,
        paper_rel_err=abs(rate - paper_rate) / paper_rate,
    )


def run_grids(seed: int, workers: int, scratch: pathlib.Path) -> Outcome:
    """One pass over both scorecard grids, journals in a fresh directory."""
    chaos_config = chaos.ChaosConfig(
        seed=seed, rounds=1, detector="phi", gray_faults=True
    )
    elastic_config = scorecard.ElasticityConfig(seed=seed, engines=("flink",))
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        root = pathlib.Path(directory)
        chaos_report = chaos.run_chaos(
            chaos_config,
            journal=TrialJournal(
                root / "chaos.json", chaos.chaos_fingerprint(chaos_config)
            ),
            workers=workers,
        )
        elastic_report = scorecard.run_elasticity(
            elastic_config,
            journal=TrialJournal(
                root / "elasticity.json",
                scorecard.elasticity_fingerprint(elastic_config),
            ),
            workers=workers,
        )
        stats = {
            "chaos": chaos_report.to_json(),
            "elasticity": elastic_report.to_json(),
        }
    cells = (
        chaos_config.rounds
        * len(chaos_config.engines)
        * len(chaos_config.policies)
        + len(elastic_config.engines)
        * len(elastic_config.policies)
        * len(elastic_config.profiles)
    )
    failures = list(chaos_report.violations) + list(elastic_report.violations)
    return Outcome(stats=stats, attempted=cells, failures=failures[:cells])


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Callable[[], Outcome]
    operations: List[Operation]
    identical: bool = False
    """Every operation must produce the same bytes (the grid passes)."""


AGG = WindowedAggregationQuery(window=WINDOW)
JOIN = WindowedJoinQuery(window=WINDOW)
WIDE_AGG = WindowedAggregationQuery(window=WINDOW, keys=UniformKeys(WIDE_KEYS))
WIDE_JOIN = WindowedJoinQuery(window=WINDOW, keys=UniformKeys(WIDE_KEYS))

#: workload -> (simulated seconds per trial, [(label, engine, query)]).
STEADY_TRIALS = {
    "agg_steady": (
        120.0,
        [
            ("storm_agg", "storm", AGG),
            ("spark_agg", "spark", AGG),
            ("flink_agg", "flink", AGG),
        ],
    ),
    "wide_keys": (
        60.0,
        [
            ("storm_agg_4k", "storm", WIDE_AGG),
            ("flink_join_4k", "flink", WIDE_JOIN),
            ("spark_join_4k", "spark", WIDE_JOIN),
        ],
    ),
}
#: (label, engine, query, the paper's table for that query).
SEARCHES = [
    ("storm_agg_search", "storm", AGG, PAPER_TABLE1_AGG_THROUGHPUT),
    ("flink_join_search", "flink", JOIN, PAPER_TABLE3_JOIN_THROUGHPUT),
]
SEARCH_PROBE_SIM_S = 120.0
GRID_PASSES = [("grid_serial", 1), ("grid_w2", 2)]

#: label of every operation, per workload, in ``BENCHMARK.json``'s
#: workload order -- the ``trial.wall_s.<label>`` names.
LABELS: Dict[str, List[str]] = {
    "agg_steady": [cell[0] for cell in STEADY_TRIALS["agg_steady"][1]],
    "wide_keys": [cell[0] for cell in STEADY_TRIALS["wide_keys"][1]],
    "search_overload": [cell[0] for cell in SEARCHES],
    "grid_planes": [label for label, _ in GRID_PASSES],
}


def warm_grid(seed: int) -> Outcome:
    """The chaos grid's trial shape (faults, detector) once, short."""
    config = chaos.ChaosConfig(
        seed=seed, rounds=1, detector="phi", gray_faults=True,
        engines=("flink",), policies=chaos.DEFAULT_POLICIES[:1],
        duration_s=WARMUP_SIM_S,
    )
    report = chaos.run_chaos(config)
    return Outcome(
        stats=report.to_json(), attempted=1, failures=list(report.violations)
    )


def build(name: str, seed: int, scratch: pathlib.Path) -> Workload:
    """The named workload's warm-up and operations for ``seed``.  The
    warm-up is the workload's first trial at 20 simulated seconds."""
    if name in STEADY_TRIALS:
        duration_s, cells = STEADY_TRIALS[name]
        _, engine, query = cells[0]
        return Workload(
            name,
            partial(run_trial, trial_spec(engine, query, WARMUP_SIM_S, seed)),
            [
                Operation(
                    label,
                    partial(run_trial, trial_spec(engine, query, duration_s, seed)),
                )
                for label, engine, query in cells
            ],
        )
    if name == "search_overload":
        _, engine, query, _ = SEARCHES[0]
        return Workload(
            name,
            partial(run_trial, trial_spec(engine, query, WARMUP_SIM_S, seed)),
            [
                Operation(
                    label,
                    partial(
                        run_search,
                        trial_spec(engine, query, SEARCH_PROBE_SIM_S, seed),
                        table[(engine, 2)],
                    ),
                )
                for label, engine, query, table in SEARCHES
            ],
        )
    if name == "grid_planes":
        return Workload(
            name,
            partial(warm_grid, seed),
            [
                Operation(label, partial(run_grids, seed, workers, scratch))
                for label, workers in GRID_PASSES
            ],
            identical=True,
        )
    raise ValueError(f"unknown workload {name!r}")
