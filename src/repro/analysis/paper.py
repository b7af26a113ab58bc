"""The paper's evaluation, declared once: ``python -m repro paper``.

Every artifact of the evaluation -- Tables I-IV, Figures 4-11,
Experiments 3 and 4, the five ablations of the paper's design decisions
and the two extensions -- is one :class:`Artifact`:

- its **cells**: each a :class:`Search` (a sustainable-throughput
  search, Definition 5) or a :class:`Trial` (one run of an
  :class:`ExperimentSpec`, reduced to JSON by an observer).  A trial
  may run at a fraction of the rate a search cell found (``at``):
  Table II measures latency *at* the rates Table I found, as the paper
  does;
- its **paper values** (:mod:`repro.analysis.paper_values`), shown
  beside the measured ones;
- its **checks**: each shape claim the reproduction makes (who wins,
  what scales, what fails), named, with the cell fields it reads.  A
  check is a pure function of those fields, so it can be re-judged on a
  stored report without simulating anything.

:func:`run_paper` runs every search cell through
:func:`~repro.core.sustainable.sweep_sustainable_rates` and every
distinct trial once through :func:`~repro.core.experiment.run_experiment` (Table II
and Figure 4 share their runs), fanning both over ``jobs`` scheduler
workers, and returns one JSON-safe report: the same for any ``jobs``,
and nothing in it read from the host clock.  The cells are declared at
:data:`SEED`; another seed re-seeds every spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.analysis.ascii_plots import sparkline
from repro.analysis.paper_values import (
    PAPER_EXP4_FLINK_SKEW_THROUGHPUT,
    PAPER_EXP4_SPARK_SKEW_THROUGHPUT_4NODE,
    PAPER_EXP4_STORM_SKEW_THROUGHPUT,
    PAPER_STORM_NAIVE_JOIN_THROUGHPUT_2NODE,
    PAPER_TABLE1_AGG_THROUGHPUT,
    PAPER_TABLE2_AGG_LATENCY,
    PAPER_TABLE3_JOIN_THROUGHPUT,
    PAPER_TABLE4_JOIN_LATENCY,
)
from repro.analysis.stats import (
    coefficient_of_variation,
    relative_error,
    within_factor,
)
from repro.core.broker import BrokerSpec
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.latency import EVENT_TIME, PROCESSING_TIME
from repro.core.metrics import StatSummary, TimeSeries
from repro.core.report import latency_table, shape_check, throughput_table
from repro.core.sustainable import (
    SustainabilityCriteria,
    sweep_sustainable_rates,
)
from repro.engines.flink import FlinkConfig
from repro.engines.spark import SparkConfig
from repro.engines.storm import StormConfig
from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.sched.pool import TrialScheduler, TrialTask
from repro.workloads.disorder import DisorderSpec
from repro.workloads.keys import SingleKey
from repro.workloads.profiles import fig6_profile
from repro.workloads.queries import (
    LARGE_WINDOW,
    PAPER_DEFAULT_WINDOW,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

SEED = 17
"""The seed every cell is declared at (``repro paper --seed``'s
default)."""
SEARCH_DURATION_S = 120.0
"""Simulated seconds per search probe: ~15 windows after warmup."""
MEASURE_DURATION_S = 200.0
GENERATOR = GeneratorConfig(instances=2)
WORKER_SWEEP = (2, 4, 8)
AGG_ENGINES = ("storm", "spark", "flink")
JOIN_ENGINES = ("spark", "flink")
TABLE_SEARCH = dict(high_rate=1.6e6, rel_tol=0.05, max_trials=9)
"""How Tables I and III search each cell: from "a very high generation
rate" (Section IV-B) down."""
AGG = WindowedAggregationQuery(window=PAPER_DEFAULT_WINDOW)
JOIN = WindowedJoinQuery(window=PAPER_DEFAULT_WINDOW)
LARGE_AGG = WindowedAggregationQuery(window=LARGE_WINDOW)


def agg_spec(engine: str, workers: int, **overrides) -> ExperimentSpec:
    """The paper's aggregation trial (8 s, 4 s) on ``workers`` nodes."""
    fields = dict(
        engine=engine,
        query=AGG,
        workers=workers,
        duration_s=SEARCH_DURATION_S,
        generator=GENERATOR,
        seed=SEED,
        monitor_resources=False,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def join_spec(engine: str, workers: int, **overrides) -> ExperimentSpec:
    """The paper's join trial (8 s, 4 s) on ``workers`` nodes."""
    return agg_spec(engine, workers, **{"query": JOIN, **overrides})


# -- the declaration's vocabulary ----------------------------------------------

Observer = Callable[..., Dict[str, Any]]


@dataclass(frozen=True)
class Search:
    """One sustainable-throughput search; observed as ``rate`` (``None``
    when no probed rate held), ``probes`` and ``simulated_s``."""

    spec: ExperimentSpec
    high_rate: float
    rel_tol: float
    max_trials: int
    criteria: SustainabilityCriteria = SustainabilityCriteria()


@dataclass(frozen=True)
class Trial:
    """One run of ``spec``, reduced to JSON by ``observe(result,
    engine)`` (a module-level function, so a worker process can run
    it)."""

    spec: ExperimentSpec
    observe: Observer
    at: Optional[Tuple[str, str, float]] = None
    """``(artifact, search cell, factor)``: run at ``factor`` times the
    rate that search cell found, instead of ``spec``'s profile."""


Cell = Union[Search, Trial]


@dataclass(frozen=True)
class Check:
    """A named shape claim over the cell fields ``inputs`` (paths
    ``"cell.field[.subfield]"``), passed to ``holds`` in order."""

    name: str
    inputs: Tuple[str, ...]
    holds: Callable[..., bool]


@dataclass(frozen=True)
class Artifact:
    name: str
    title: str
    cells: Mapping[str, Cell]
    checks: Tuple[Check, ...]
    paper: Mapping[str, Any] = field(default_factory=dict)
    """Published value per cell key: an events/s rate for a search
    cell, an (avg, min, max, q90, q95, q99) tuple for a latency row."""


def field_at(cells: Mapping[str, Any], path: str) -> Any:
    value: Any = cells
    for part in path.split("."):
        value = value[part]
    return value


def holds(check: Check, cells: Mapping[str, Any]) -> bool:
    """Judge ``check`` on an artifact's observed cells.  A missing or
    null input (a search that found nothing, an empty summary) fails
    it, as the claim cannot be shown."""
    try:
        return bool(check.holds(*(field_at(cells, p) for p in check.inputs)))
    except (KeyError, TypeError, ZeroDivisionError):
        return False


# -- observers: a finished run, reduced to what its checks read ----------------

def headline(result, engine) -> Dict[str, Any]:
    """Failure, ingest rate and both post-warmup latency summaries."""
    return {
        "failure": result.failure,
        "ingest_rate": result.mean_ingest_rate,
        "event": result.event_latency.to_dict(),
        "processing": result.processing_latency.to_dict(),
    }


def _latency_bins(result, kind: str = EVENT_TIME, bin_s: float = 5.0):
    return result.collector.binned_series(
        kind, bin_s=bin_s, start_time=result.warmup_s
    )


def latency_panel(result, engine) -> Dict[str, Any]:
    """One Figure 4/5 panel: event-time latency binned 5 s."""
    return {"series": _latency_bins(result).values.tolist()}


def latency_spike(result, engine) -> Dict[str, Any]:
    """A Figure 6 panel and its spike severity: the worst bin above the
    calm phase (the 20th percentile of the bins)."""
    values = _latency_bins(result).values
    severity = values.max() - np.percentile(values, 20) if values.size else np.inf
    return {
        "failure": result.failure,
        "series": values.tolist(),
        "severity": float(severity),
    }


def overload_latencies(result, engine) -> Dict[str, Any]:
    """Figure 7: both latencies binned 10 s, their slopes and means."""
    event = _latency_bins(result, EVENT_TIME, bin_s=10.0)
    proc = _latency_bins(result, PROCESSING_TIME, bin_s=10.0)
    return {
        "event_series": event.values.tolist(),
        "processing_series": proc.values.tolist(),
        "event_slope": event.slope_per_s(),
        "processing_slope": proc.slope_per_s(),
        "event_mean": result.event_latency.mean,
        "processing_mean": result.processing_latency.mean,
    }


def pull_rate(result, engine) -> Dict[str, Any]:
    """Figure 9: the driver-side ingest series after warmup and its
    coefficient of variation."""
    series = result.throughput.ingest_series.window(result.warmup_s)
    return {
        "failure": result.failure,
        "series": series.values.tolist(),
        "cv": coefficient_of_variation(series.values),
    }


def resource_use(result, engine) -> Dict[str, Any]:
    """Figure 10: mean CPU load and network MB per interval after
    warmup, overall and per node."""
    resources = result.resources

    def mean(samples, metric: str) -> float:
        return float(np.mean([
            getattr(s, metric) for s in samples if s.time >= result.warmup_s
        ]))

    return {
        "cpu": mean(resources.samples, "cpu_load_pct"),
        "net": mean(resources.samples, "network_mb"),
        "node_cpu": [
            mean(resources.node_series(node), "cpu_load_pct")
            for node in range(result.workers)
        ],
    }


def scheduler_delay(result, engine) -> Dict[str, Any]:
    """Figure 11: Spark's per-job scheduler delay beside the ingest
    series; ``early`` is the peak of the first ten pull samples,
    ``steady`` the post-warmup mean."""
    sched = TimeSeries()
    for job in engine.job_log:
        sched.append(job["started_at"], job["sched_delay"])
    ingest = result.throughput.ingest_series
    return {
        "failure": result.failure,
        "jobs_run": result.diagnostics.get("jobs_run"),
        "sched_delay": sched.values.tolist(),
        "ingest": ingest.values.tolist(),
        "early": float(max(ingest.values[:10])),
        "steady": float(np.mean(ingest.window(result.warmup_s).values)),
        "sched_mean": sched.mean(),
        "sched_count": len(sched),
    }


def window_anchor(result, engine) -> Dict[str, Any]:
    """Ablation 3: mean latency of post-warmup windowed outputs anchored
    at the max contributing event time (Definition 3) and at the window
    start."""
    size = engine.query.window.size_s
    post = [o for o in result.collector.outputs if o.emit_time >= result.warmup_s]
    starts = sum(o.emit_time - (o.window_end - size) for o in post)
    return {
        "definition3": sum(o.event_time_latency for o in post) / len(post),
        "window_start": starts / len(post),
    }


EXT_FAIL_AT_S = 80.0


def failure_excess(result, engine) -> Dict[str, Any]:
    """Extension: mean binned latency after a crash at
    :data:`EXT_FAIL_AT_S` minus before it, state lost, ingest kept."""
    series = result.collector.binned_series(bin_s=5.0, start_time=0.0)
    before = series.window(30.0, EXT_FAIL_AT_S - 2).mean()
    after = series.window(EXT_FAIL_AT_S + 5, result.duration_s).mean()
    return {
        "excess": after - before,
        "state_lost": result.diagnostics["state_lost_weight"],
        "ingest_rate": result.mean_ingest_rate,
    }


def late_drops(result, engine) -> Dict[str, Any]:
    """Extension: weight dropped as too late, and the mean latency."""
    return {
        "dropped": result.diagnostics["late_dropped_weight"],
        "event_mean": result.event_latency.mean,
    }


# -- check vocabulary ----------------------------------------------------------

def failed(failure) -> bool:
    return failure is not None


def completes(*failures) -> bool:
    return all(f is None for f in failures)


def increasing(*values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def decreasing(*values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def below(a, b) -> bool:
    return a < b


def above(a, b) -> bool:
    return a > b


def completion_check(cells: Mapping[str, Cell]) -> Check:
    """Every trial cell ran to the end."""
    return Check(
        "every run completes",
        tuple(f"{k}.failure" for k, c in cells.items() if isinstance(c, Trial)),
        completes,
    )


def paper_bands(paper: Mapping[str, float], factor: float) -> Tuple[Check, ...]:
    return tuple(
        Check(
            f"{key} within {factor:g}x of the paper", (f"{key}.rate",),
            lambda rate, ref=ref: within_factor(rate, ref, factor),
        )
        for key, ref in paper.items()
    )


def per_size(make) -> Tuple[Check, ...]:
    """``make(w)``'s checks for each cluster size of the sweep."""
    return tuple(check for w in WORKER_SWEEP for check in make(w))


def _keyed(paper) -> Dict[str, Any]:
    return {f"{label}/{w}": value for (label, w), value in paper.items()}


# -- Tables I and III: sustainable throughput ----------------------------------

def table_searches(spec_of, engines) -> Dict[str, Cell]:
    return {
        f"{engine}/{w}": Search(spec_of(engine, w), **TABLE_SEARCH)
        for engine in engines
        for w in WORKER_SWEEP
    }


TABLE1_PAPER = _keyed(PAPER_TABLE1_AGG_THROUGHPUT)
TABLE1 = Artifact(
    "table1",
    "Table I: sustainable throughput, windowed aggregation (8s, 4s)",
    cells=table_searches(agg_spec, AGG_ENGINES),
    paper=TABLE1_PAPER,
    checks=paper_bands(TABLE1_PAPER, 2.0)
    + (
        Check(
            "flink flat across sizes (network-bound): max/min < 1.15",
            tuple(f"flink/{w}.rate" for w in WORKER_SWEEP),
            lambda *rates: max(rates) / min(rates) < 1.15,
        ),
    )
    + per_size(lambda w: (
        Check(
            f"flink above storm and spark at {w} nodes",
            (f"flink/{w}.rate", f"storm/{w}.rate", f"spark/{w}.rate"),
            lambda flink, storm, spark: flink > storm and flink > spark,
        ),
        Check(
            f"storm above 0.95x spark at {w} nodes",
            (f"storm/{w}.rate", f"spark/{w}.rate"),
            lambda storm, spark: storm > 0.95 * spark,
        ),
    ))
    + tuple(
        Check(
            f"{engine} scales 2 < 4 < 8 nodes",
            tuple(f"{engine}/{w}.rate" for w in WORKER_SWEEP), increasing,
        )
        for engine in ("storm", "spark")
    ),
)

TABLE3_PAPER = _keyed(PAPER_TABLE3_JOIN_THROUGHPUT)
TABLE3 = Artifact(
    "table3",
    "Table III: sustainable throughput, windowed join (8s, 4s)",
    cells={
        **table_searches(join_spec, JOIN_ENGINES),
        # The naive Storm join: searched on 2 nodes only, beyond which
        # it fails outright.
        "storm/2": Search(
            join_spec("storm", 2), high_rate=0.4e6, rel_tol=0.05, max_trials=8
        ),
        "storm/4": Trial(join_spec("storm", 4, profile=0.2e6), headline),
    },
    paper={**TABLE3_PAPER, "storm/2": PAPER_STORM_NAIVE_JOIN_THROUGHPUT_2NODE},
    checks=paper_bands(TABLE3_PAPER, 2.0)
    + per_size(lambda w: (
        Check(
            f"flink above spark at {w} nodes",
            (f"flink/{w}.rate", f"spark/{w}.rate"), above,
        ),
    ))
    + (
        Check(
            "flink scales from 2 to 4 nodes",
            ("flink/2.rate", "flink/4.rate"), below,
        ),
        Check(
            "flink at 8 nodes within 1.1x of the aggregation network bound",
            ("flink/8.rate",),
            lambda rate: rate <= TABLE1_PAPER["flink/8"] * 1.1,
        ),
        Check(
            "naive storm join below half of spark at 2 nodes",
            ("storm/2.rate", "spark/2.rate"),
            lambda storm, spark: storm < 0.5 * spark,
        ),
        Check(
            "naive storm join fails beyond 2 nodes", ("storm/4.failure",),
            lambda failure: failed(failure) and "naive" in failure,
        ),
    ),
)


# -- Tables II and IV, Figures 4 and 5: latency at the found rates -------------

def load_rows(table: str, spec_of, engines, observe) -> Dict[str, Cell]:
    """Each (engine, size) at its ``table`` rate and at 90% of it: the
    paper's max-load and 90%-load rows."""
    return {
        f"{engine}{label}/{w}": Trial(
            spec_of(engine, w, duration_s=MEASURE_DURATION_S),
            observe,
            at=(table, f"{engine}/{w}", factor),
        )
        for engine in engines
        for w in WORKER_SWEEP
        for label, factor in (("", 1.0), ("(90%)", 0.9))
    }


def ninety_percent_checks(engines) -> Tuple[Check, ...]:
    return per_size(lambda w: tuple(
        Check(
            f"{engine} at 90% load no slower than 1.15x max load, {w} nodes",
            (f"{engine}(90%)/{w}.event.mean", f"{engine}/{w}.event.mean"),
            lambda ninety, full: ninety <= full * 1.15,
        )
        for engine in engines
    ))


TABLE2_CELLS = load_rows("table1", agg_spec, AGG_ENGINES, headline)
TABLE2 = Artifact(
    "table2",
    "Table II: event-time latency, windowed aggregation (max and 90% load)",
    cells=TABLE2_CELLS,
    paper=_keyed(PAPER_TABLE2_AGG_LATENCY),
    checks=(completion_check(TABLE2_CELLS),)
    + per_size(lambda w: (
        Check(
            f"mean latency flink < storm < spark at {w} nodes",
            tuple(f"{e}/{w}.event.mean" for e in ("flink", "storm", "spark")),
            increasing,
        ),
    ))
    + ninety_percent_checks(AGG_ENGINES)
    + (
        Check(
            "storm latency grows from 2 to 8 nodes",
            ("storm/8.event.mean", "storm/2.event.mean"), above,
        ),
        Check(
            "spark latency does not grow from 2 to 8 nodes (< 1.05x)",
            ("spark/8.event.mean", "spark/2.event.mean"),
            lambda eight, two: eight < two * 1.05,
        ),
    )
    + per_size(lambda w: (
        Check(
            f"spark's relative spread tighter than storm's at {w} nodes",
            (f"spark/{w}.event.std", f"spark/{w}.event.mean",
             f"storm/{w}.event.std", f"storm/{w}.event.mean"),
            lambda spark_std, spark_mean, storm_std, storm_mean: (
                spark_std / spark_mean < storm_std / storm_mean
            ),
        ),
    )),
)

TABLE4_CELLS = load_rows("table3", join_spec, JOIN_ENGINES, headline)
TABLE4 = Artifact(
    "table4",
    "Table IV: event-time latency, windowed join (max and 90% load)",
    cells=TABLE4_CELLS,
    paper=_keyed(PAPER_TABLE4_JOIN_LATENCY),
    checks=(completion_check(TABLE4_CELLS),)
    + per_size(lambda w: tuple(
        Check(
            f"flink {stat} below spark's at {w} nodes",
            (f"flink/{w}.event.{stat}", f"spark/{w}.event.{stat}"), below,
        )
        for stat in ("mean", "p99")
    ))
    + ninety_percent_checks(JOIN_ENGINES)
    + (
        Check(
            "flink latency falls from 2 to 8 nodes",
            ("flink/8.event.mean", "flink/2.event.mean"), below,
        ),
        Check(
            "spark latency does not grow from 2 to 8 nodes (< 1.2x)",
            ("spark/8.event.mean", "spark/2.event.mean"),
            lambda eight, two: eight < two * 1.2,
        ),
        Check(
            "spark mean above its 4 s batch interval at 2 nodes",
            ("spark/2.event.mean",), lambda mean: mean > 4.0,
        ),
    ),
)


def panel_pairs(engines) -> Tuple[str, ...]:
    """Each panel's max-load then 90%-load series, interleaved."""
    return tuple(
        f"{engine}{label}/{w}.series"
        for engine in engines
        for w in WORKER_SWEEP
        for label in ("", "(90%)")
    )


def most_pairs(test: Callable[[Any, Any], bool]) -> Callable[..., bool]:
    """At least two thirds of the (max load, 90% load) pairs pass
    ``test``: ``passing >= pairs * 2 // 3``."""

    def judge(*inputs) -> bool:
        pairs = list(zip(inputs[::2], inputs[1::2]))
        passing = sum(test(full, ninety) for full, ninety in pairs)
        return passing >= len(pairs) * 2 // 3

    return judge


def _std(values) -> float:
    return np.std(values) if len(values) else 0.0


FIG4 = Artifact(
    "fig4",
    "Figure 4: aggregation event-time latency over time (binned 5 s)",
    cells=load_rows("table1", agg_spec, AGG_ENGINES, latency_panel),
    checks=(
        Check(
            "90% load calmer (binned std <= 1.05x max load's) in >= 2/3 "
            "of panels",
            panel_pairs(AGG_ENGINES),
            most_pairs(lambda full, ninety: _std(ninety) <= _std(full) * 1.05),
        ),
        Check(
            "spark's latency floor above 5x flink's (2 nodes, max load)",
            ("spark/2.series", "flink/2.series"),
            lambda spark, flink: min(spark) > 5 * min(flink),
        ),
    ),
)

FIG5 = Artifact(
    "fig5",
    "Figure 5: join event-time latency over time (binned 5 s)",
    cells=load_rows("table3", join_spec, JOIN_ENGINES, latency_panel),
    checks=(
        Check(
            "flink join latency above 1 s (2 nodes, max load)",
            ("flink/2.series",), lambda series: np.mean(series) > 1.0,
        ),
        Check(
            "90% load's worst bin <= 1.1x max load's in >= 2/3 of panels",
            panel_pairs(JOIN_ENGINES),
            most_pairs(lambda full, ninety: max(ninety) <= max(full) * 1.1),
        ),
    ),
)


# -- Figures 6-11 --------------------------------------------------------------

FIG6_DURATION_S = 300.0
FIG6_PROFILE = fig6_profile(FIG6_DURATION_S)
FIG6_CELLS: Dict[str, Cell] = {
    f"{engine} {kind}": Trial(
        spec_of(engine, 8, profile=FIG6_PROFILE, duration_s=FIG6_DURATION_S),
        latency_spike,
    )
    for kind, spec_of, engines in (
        ("agg", agg_spec, AGG_ENGINES), ("join", join_spec, JOIN_ENGINES)
    )
    for engine in engines
}
FIG6 = Artifact(
    "fig6",
    "Figure 6: event-time latency under fluctuating load "
    "(0.84 -> 0.28 -> 0.84 M/s), 8 nodes",
    cells=FIG6_CELLS,
    checks=(
        completion_check(FIG6_CELLS),
        Check(
            "storm agg spikes above spark agg and flink agg",
            ("storm agg.severity", "spark agg.severity", "flink agg.severity"),
            lambda storm, spark, flink: storm > spark and storm > flink,
        ),
        Check(
            "flink join spikes below spark join",
            ("flink join.severity", "spark join.severity"), below,
        ),
    ),
)

FIG7 = Artifact(
    "fig7",
    "Figure 7: Spark under unsustainable load (0.6 M/s, 2 nodes) -- "
    "event vs processing-time latency (s)",
    cells={
        "spark/2": Trial(
            agg_spec(
                "spark", 2, profile=0.6e6, duration_s=240.0,
                generator=GeneratorConfig(
                    instances=2, queue_capacity_seconds=1200.0
                ),
            ),
            overload_latencies,
        ),
    },
    checks=(
        Check(
            "event-time latency climbs (> 0.2 s/s)",
            ("spark/2.event_slope",), lambda slope: slope > 0.2,
        ),
        Check(
            "processing-time slope below a third of event-time's",
            ("spark/2.processing_slope", "spark/2.event_slope"),
            lambda proc, event: proc < event / 3,
        ),
        Check(
            "event-time mean above 2x processing-time mean",
            ("spark/2.event_mean", "spark/2.processing_mean"),
            lambda event, proc: event > 2 * proc,
        ),
    ),
)


def at_table1(engine: str, workers: int, observe: Observer, **overrides) -> Trial:
    """``engine`` on ``workers`` nodes at its Table I rate."""
    overrides.setdefault("duration_s", MEASURE_DURATION_S)
    return Trial(
        agg_spec(engine, workers, **overrides),
        observe,
        at=("table1", f"{engine}/{workers}", 1.0),
    )


FIG8_CELLS = {e: at_table1(e, 2, headline) for e in AGG_ENGINES}
FIG8 = Artifact(
    "fig8",
    "Figure 8: event-time vs processing-time latency, aggregation (8s,4s), "
    "2 nodes, sustainable max",
    cells=FIG8_CELLS,
    checks=(completion_check(FIG8_CELLS),)
    + tuple(
        Check(
            f"{e}: processing time is a component of event time (-0.05 s)",
            (f"{e}.event.mean", f"{e}.processing.mean"),
            lambda event, proc: event >= proc - 0.05,
        )
        for e in AGG_ENGINES
    ),
)

FIG9_CELLS = {e: at_table1(e, 4, pull_rate) for e in AGG_ENGINES}
FIG9 = Artifact(
    "fig9",
    "Figure 9: ingest (pull) rate over time, aggregation, 4 nodes, "
    "sustainable max",
    cells=FIG9_CELLS,
    checks=(
        completion_check(FIG9_CELLS),
        Check(
            "flink pulls smoothest (lowest coefficient of variation)",
            ("flink.cv", "spark.cv", "storm.cv"),
            lambda flink, spark, storm: flink < spark and flink < storm,
        ),
        Check(
            "storm's pull rate fluctuates over 2x flink's",
            ("storm.cv", "flink.cv"), lambda storm, flink: storm > 2 * flink,
        ),
    ),
)

FIG10 = Artifact(
    "fig10",
    "Figure 10: resource usage, aggregation, 4 nodes, sustainable max",
    cells={
        e: at_table1(e, 4, resource_use, monitor_resources=True)
        for e in AGG_ENGINES
    },
    checks=(
        Check(
            "flink uses the least CPU", ("flink.cpu", "storm.cpu", "spark.cpu"),
            lambda flink, storm, spark: flink < storm and flink < spark,
        ),
        Check(
            "flink moves the most network bytes",
            ("flink.net", "storm.net", "spark.net"),
            lambda flink, storm, spark: flink > storm and flink > spark,
        ),
        Check(
            "storm and spark burn over 1.3x flink's CPU",
            ("storm.cpu", "spark.cpu", "flink.cpu"),
            lambda storm, spark, flink: storm > 1.3 * flink
            and spark > 1.3 * flink,
        ),
    ),
)

FIG11 = Artifact(
    "fig11",
    "Figure 11: Spark scheduler delay (s) vs ingest rate (ev/s), 4 nodes",
    cells={"spark/4": at_table1("spark", 4, scheduler_delay, duration_s=240.0)},
    checks=(
        Check("the run completes", ("spark/4.failure",), completes),
        Check(
            "more than 10 jobs ran", ("spark/4.jobs_run",),
            lambda jobs: bool(jobs) and jobs > 10,
        ),
        Check(
            "initial over-ingestion: early pulls above 1.04x steady state",
            ("spark/4.early", "spark/4.steady"),
            lambda early, steady: early > steady * 1.04,
        ),
        Check(
            "scheduler delays are batch-scale (mean > 0.05 s)",
            ("spark/4.sched_mean",), lambda mean: mean > 0.05,
        ),
        Check(
            "more than 20 scheduler delays recorded",
            ("spark/4.sched_count",), lambda count: count > 20,
        ),
    ),
)


# -- Experiments 3 and 4 -------------------------------------------------------

SPARK_SMALL_WINDOW_RATE = TABLE1_PAPER["spark/2"]
"""Spark's (8s, 4s) Table I rate on 2 nodes (0.38 M/s)."""
SPARK_SMALL_WINDOW_LATENCY_S = PAPER_TABLE2_AGG_LATENCY[("spark", 2)][0]


def large_window(engine: str, **overrides) -> ExperimentSpec:
    """``engine`` on 2 nodes with the (60 s, 60 s) window."""
    return agg_spec(engine, 2, query=LARGE_AGG, **overrides)


EXP3 = Artifact(
    "exp3",
    "Experiment 3: (60s, 60s) window, 2 nodes",
    cells={
        "spark@small-window-rate": Trial(
            large_window(
                "spark", profile=SPARK_SMALL_WINDOW_RATE, duration_s=240.0
            ),
            headline,
        ),
        "spark cached": Search(
            large_window("spark"), high_rate=SPARK_SMALL_WINDOW_RATE * 1.1,
            rel_tol=0.07, max_trials=8,
        ),
        "spark inverse-reduce": Search(
            large_window("spark", engine_config=SparkConfig(inverse_reduce=True)),
            high_rate=SPARK_SMALL_WINDOW_RATE * 1.2, rel_tol=0.07, max_trials=8,
        ),
        "storm default": Trial(
            large_window("storm", profile=0.4e6, duration_s=200.0), headline
        ),
        "storm advanced": Trial(
            large_window(
                "storm", profile=0.15e6, duration_s=200.0,
                engine_config=StormConfig(advanced_state=True),
            ),
            headline,
        ),
        "flink": Trial(
            large_window("flink", profile=1.1e6, duration_s=200.0), headline
        ),
    },
    checks=(
        Check(
            "spark collapses at its small-window rate (fails, or latency "
            "> 3x the small window's 3.6 s)",
            ("spark@small-window-rate.failure",
             "spark@small-window-rate.event.mean"),
            lambda failure, mean: failed(failure)
            or mean > 3 * SPARK_SMALL_WINDOW_LATENCY_S,
        ),
        Check(
            "caching spark's rate roughly halves (0.3x-0.75x)",
            ("spark cached.rate",),
            lambda rate: 0.3 < rate / SPARK_SMALL_WINDOW_RATE < 0.75,
        ),
        Check(
            "inverse reduce restores spark's rate (> 0.85x)",
            ("spark inverse-reduce.rate",),
            lambda rate: rate > 0.85 * SPARK_SMALL_WINDOW_RATE,
        ),
        Check(
            "storm fails without spillable state", ("storm default.failure",),
            failed,
        ),
        Check(
            "storm's failure is the heap budget", ("storm default.failure",),
            lambda failure: "heap budget" in failure,
        ),
        Check(
            "storm with spillable state survives", ("storm advanced.failure",),
            completes,
        ),
        Check("flink is unaffected", ("flink.failure",), completes),
    ),
)

EXP4_PAPER = {
    "flink/2": PAPER_EXP4_FLINK_SKEW_THROUGHPUT,
    "flink/4": PAPER_EXP4_FLINK_SKEW_THROUGHPUT,
    "storm/2": PAPER_EXP4_STORM_SKEW_THROUGHPUT,
    "storm/4": PAPER_EXP4_STORM_SKEW_THROUGHPUT,
    "spark/4": PAPER_EXP4_SPARK_SKEW_THROUGHPUT_4NODE,
}
SKEWED_AGG = WindowedAggregationQuery(window=PAPER_DEFAULT_WINDOW, keys=SingleKey())
SKEWED_JOIN = WindowedJoinQuery(window=PAPER_DEFAULT_WINDOW, keys=SingleKey())

EXP4 = Artifact(
    "exp4",
    "Experiment 4: sustainable throughput under single-key skew "
    "(aggregation) and the skewed join",
    cells={
        **{
            f"{engine}/{w}": Search(
                agg_spec(engine, w, query=SKEWED_AGG),
                high_rate=0.9e6, rel_tol=0.06, max_trials=8,
            )
            for engine in AGG_ENGINES
            for w in (2, 4)
        },
        "flink join/4": Trial(
            join_spec("flink", 4, query=SKEWED_JOIN, profile=0.5e6,
                      duration_s=150.0),
            headline,
        ),
        "spark join/4": Trial(
            join_spec("spark", 4, query=SKEWED_JOIN, profile=0.33e6,
                      duration_s=150.0),
            headline,
        ),
    },
    paper=EXP4_PAPER,
    checks=tuple(
        check
        for engine in ("flink", "storm")
        for check in (
            Check(
                f"{engine} does not scale under skew (4 nodes < 1.15x 2)",
                (f"{engine}/4.rate", f"{engine}/2.rate"),
                lambda four, two: four < two * 1.15,
            ),
            *paper_bands({f"{engine}/2": EXP4_PAPER[f"{engine}/2"]}, 1.5),
        )
    )
    + (
        Check(
            "spark scales under skew (4 nodes > 2)",
            ("spark/4.rate", "spark/2.rate"), above,
        ),
        Check(
            "spark beats flink and storm at 4 nodes",
            ("spark/4.rate", "flink/4.rate", "storm/4.rate"),
            lambda spark, flink, storm: spark > flink and spark > storm,
        ),
        *paper_bands({"spark/4": EXP4_PAPER["spark/4"]}, 1.5),
        Check(
            "flink's skewed join goes unresponsive", ("flink join/4.failure",),
            lambda failure: failed(failure) and "unresponsive" in failure,
        ),
        Check(
            "spark's skewed join survives", ("spark join/4.failure",),
            completes,
        ),
        Check(
            "spark's skewed join runs at batch-scale latency (> 3.5 s)",
            ("spark join/4.event.mean",), lambda mean: mean > 3.5,
        ),
    ),
)


# -- ablations of the paper's design decisions (DESIGN.md Section 5) -----------

ABLATION_BROKER = Artifact(
    "ablation_broker",
    "Ablation: message broker between generator and SUT (Flink 2 nodes, "
    "0.9 M/s offered)",
    cells={
        "direct": Trial(agg_spec("flink", 2, profile=0.9e6), headline),
        "brokered": Trial(
            agg_spec("flink", 2, profile=0.9e6, broker=BrokerSpec()), headline
        ),
    },
    checks=(
        Check(
            "direct ingest above 0.85 M/s", ("direct.ingest_rate",),
            lambda rate: rate > 0.85e6,
        ),
        Check(
            "the broker caps ingest below 0.75 M/s", ("brokered.ingest_rate",),
            lambda rate: rate < 0.75e6,
        ),
        Check(
            "the broker's backlog inflates latency over 5x",
            ("brokered.event.mean", "direct.event.mean"),
            lambda brokered, direct: brokered > 5 * direct,
        ),
    ),
)

ABLATION_COORDINATED_OMISSION = Artifact(
    "ablation_coordinated_omission",
    "Ablation: coordinated omission (Spark 2 nodes, 0.55 M/s overload)",
    cells={
        "spark/2": Trial(
            agg_spec(
                "spark", 2, profile=0.55e6, duration_s=200.0,
                generator=GeneratorConfig(
                    instances=2, queue_capacity_seconds=1000.0
                ),
            ),
            headline,
        ),
    },
    checks=(
        Check(
            "processing time underestimates event-time latency over 2x",
            ("spark/2.event.mean", "spark/2.processing.mean"),
            lambda event, proc: event / max(proc, 1e-9) > 2.0,
        ),
    ),
)

ABLATION_LATENCY_DEFINITION = Artifact(
    "ablation_latency_definition",
    "Ablation: windowed event-time anchor (Flink 2 nodes, 0.4 M/s)",
    cells={
        "flink/2": Trial(
            agg_spec("flink", 2, profile=0.4e6, keep_outputs=True),
            window_anchor,
        ),
    },
    checks=(
        Check(
            "anchoring at the window start adds over half a window",
            ("flink/2.window_start", "flink/2.definition3"),
            lambda start, definition3: start
            > definition3 + 0.5 * PAPER_DEFAULT_WINDOW.size_s,
        ),
    ),
)

ABLATION_SUSTAINABILITY_TOLERANCE = Artifact(
    "ablation_sustainability_tolerance",
    "Ablation: queue-growth tolerance of the sustainability test "
    "(Storm 2 nodes)",
    cells={
        f"tolerance={tol:.0%}": Search(
            agg_spec("storm", 2), high_rate=0.8e6, rel_tol=0.05, max_trials=8,
            criteria=SustainabilityCriteria(max_occupancy_slope_frac=tol),
        )
        for tol in (0.02, 0.05)
    },
    checks=(
        Check(
            "the found rate moves under 1.25x between tolerances",
            ("tolerance=2%.rate", "tolerance=5%.rate"),
            lambda *rates: max(rates) / max(min(rates), 1.0) < 1.25,
        ),
    ),
)


def batch_spec(batch_s: float) -> ExperimentSpec:
    """Spark on 2 nodes with ``batch_s``-second micro-batches."""
    config = SparkConfig(batch_interval_s=batch_s)
    return agg_spec("spark", 2, engine_config=config)


BATCHES_S = (2.0, 4.0, 8.0)
ABLATION_SPARK_BATCH_INTERVAL = Artifact(
    "ablation_spark_batch_interval",
    "Ablation: Spark batch interval (2-node aggregation); latency at 92% "
    "of each found rate",
    cells={
        **{
            f"batch={b:g}s": Search(
                batch_spec(b), high_rate=0.6e6, rel_tol=0.06, max_trials=7
            )
            for b in BATCHES_S
        },
        # At the exact maximum the residual queue drift masks the
        # batch-interval effect; 92% of it does not.
        **{
            f"batch={b:g}s@92%": Trial(
                batch_spec(b), headline,
                at=("ablation_spark_batch_interval", f"batch={b:g}s", 0.92),
            )
            for b in BATCHES_S
        },
    },
    checks=(
        Check(
            "latency grows with the batch interval",
            tuple(f"batch={b:g}s@92%.event.mean" for b in BATCHES_S),
            increasing,
        ),
        Check(
            "8 s batches sustain at least 0.9x of 4 s batches",
            ("batch=8s.rate", "batch=4s.rate"),
            lambda eight, four: eight >= four * 0.9,
        ),
        Check(
            "4 s batches sustain at least 0.95x of 2 s batches",
            ("batch=4s.rate", "batch=2s.rate"),
            lambda four, two: four >= two * 0.95,
        ),
    ),
)


# -- extensions (not artifacts of the paper) -----------------------------------

EXT_NODE_FAILURES = Artifact(
    "ext_node_failures",
    "Extension: one of four workers fails at t=80 s (0.4 M/s offered)",
    cells={
        engine: Trial(
            agg_spec(
                engine, 4, profile=0.4e6, duration_s=240.0,
                faults=FaultSchedule((NodeCrash(at_s=EXT_FAIL_AT_S),)),
            ),
            failure_excess,
        )
        for engine in AGG_ENGINES
    },
    checks=(
        Check(
            "spark recovers with less excess latency than storm",
            ("spark.excess", "storm.excess"), below,
        ),
        Check("storm loses state", ("storm.state_lost",), lambda lost: lost > 0),
        Check(
            "spark and flink lose no state",
            ("spark.state_lost", "flink.state_lost"),
            lambda spark, flink: spark == 0 and flink == 0,
        ),
    ),
)

LATENESS_MS = (0, 1000, 2500)
EXT_LATE_EVENTS = Artifact(
    "ext_late_events",
    "Extension: 15% of events up to 2 s late (Flink 2 nodes, 0.3 M/s)",
    cells={
        f"lateness={ms}ms": Trial(
            agg_spec(
                "flink", 2, profile=0.3e6, duration_s=160.0,
                engine_config=FlinkConfig(allowed_lateness_s=ms / 1e3),
                generator=GeneratorConfig(
                    instances=2,
                    disorder=DisorderSpec(fraction=0.15, max_delay_s=2.0),
                ),
            ),
            late_drops,
        )
        for ms in LATENESS_MS
    },
    checks=(
        Check(
            "more allowed lateness drops less",
            tuple(f"lateness={ms}ms.dropped" for ms in LATENESS_MS), decreasing,
        ),
        Check(
            "more allowed lateness costs latency",
            tuple(f"lateness={ms}ms.event_mean" for ms in LATENESS_MS),
            increasing,
        ),
    ),
)


ARTIFACTS: Tuple[Artifact, ...] = (
    TABLE1, TABLE2, TABLE3, TABLE4,
    FIG4, FIG5, FIG6, FIG7, FIG8, FIG9, FIG10, FIG11,
    EXP3, EXP4,
    ABLATION_BROKER,
    ABLATION_COORDINATED_OMISSION,
    ABLATION_LATENCY_DEFINITION,
    ABLATION_SUSTAINABILITY_TOLERANCE,
    ABLATION_SPARK_BATCH_INTERVAL,
    EXT_NODE_FAILURES,
    EXT_LATE_EVENTS,
)


# -- running -------------------------------------------------------------------

Where = Tuple[str, str]
"""(artifact name, cell key)."""


def _cells(kind) -> Dict[Where, Cell]:
    return {
        (artifact.name, key): cell
        for artifact in ARTIFACTS
        for key, cell in artifact.cells.items()
        if isinstance(cell, kind)
    }


def run_searches(seed: int, jobs: int) -> Dict[Where, dict]:
    """Every search cell, re-seeded, through
    :func:`sweep_sustainable_rates`: one sweep per distinct search
    setting, whole cells fanned over ``jobs`` workers."""
    groups: Dict[tuple, list] = {}
    for where, cell in _cells(Search).items():
        settings = (cell.high_rate, cell.rel_tol, cell.max_trials, cell.criteria)
        groups.setdefault(settings, []).append((where, cell.spec.with_seed(seed)))
    found: Dict[Where, dict] = {}
    for (high_rate, rel_tol, max_trials, criteria), cells in groups.items():
        found.update(sweep_sustainable_rates(
            cells, high_rate, rel_tol=rel_tol, max_trials=max_trials,
            criteria=criteria, workers=jobs,
        ))
    return found


def observe_trial(payload) -> list:
    """Scheduler worker body: run one spec, apply each observer."""
    spec, observers = payload
    drivers: list = []
    result = run_experiment(spec, driver_hook=drivers.append)
    return [observe(result, drivers[0].engine) for observe in observers]


def run_trials(
    seed: int, jobs: int, found: Mapping[Where, float]
) -> Dict[Where, Optional[dict]]:
    """Every trial cell, re-seeded and placed at its found rate; each
    distinct spec runs once, whatever number of cells observe it.  A
    cell whose search found no rate is not run (``None``)."""
    runs: Dict[str, Tuple[ExperimentSpec, list]] = {}
    observed: Dict[Where, Optional[dict]] = {}
    for where, cell in _cells(Trial).items():
        spec = cell.spec.with_seed(seed)
        if cell.at is not None:
            rate = found[cell.at[:2]]
            if rate != rate:
                observed[where] = None
                continue
            spec = spec.with_rate(rate * cell.at[2])
        runs.setdefault(repr(spec), (spec, []))[1].append((where, cell.observe))
    tasks = [
        TrialTask(
            key=str(index),
            fn=observe_trial,
            payload=(spec, tuple(observe for _, observe in users)),
        )
        for index, (spec, users) in enumerate(runs.values())
    ]
    results = TrialScheduler(workers=jobs).run(tasks)
    for task, (_, users) in zip(tasks, runs.values()):
        for (where, _), observation in zip(users, results[task.key]):
            observed[where] = observation
    return observed


def run_paper(seed: int = SEED, jobs: int = 1) -> Dict[str, Any]:
    """Run every artifact at ``seed`` and judge its checks.

    The report maps each artifact to its observed cells (a search cell:
    ``rate``, ``probes``, ``simulated_s``; with a published value also
    ``paper`` and ``paper_rel_err``) and each check's verdict;
    ``failed_checks`` lists the checks that did not hold."""
    searches = run_searches(seed, jobs)
    found = {where: s["sustainable_rate"] for where, s in searches.items()}
    observed = run_trials(seed, jobs, found)
    artifacts: Dict[str, Any] = {}
    failed_checks = []
    for artifact in ARTIFACTS:
        cells: Dict[str, Any] = {}
        for key, cell in artifact.cells.items():
            where = (artifact.name, key)
            if isinstance(cell, Search):
                rate = found[where]
                cells[key] = {
                    "rate": None if rate != rate else rate,
                    "probes": searches[where]["trial_count"],
                    "simulated_s": searches[where]["simulated_s"],
                }
            else:
                cells[key] = observed[where]
            ref = artifact.paper.get(key)
            if ref is not None and cells[key] is not None:
                cells[key]["paper"] = ref
                if isinstance(cell, Search) and cells[key]["rate"] is not None:
                    cells[key]["paper_rel_err"] = relative_error(rate, ref)
        verdicts = {check.name: holds(check, cells) for check in artifact.checks}
        failed_checks += [
            f"{artifact.name}: {name}" for name, ok in verdicts.items() if not ok
        ]
        artifacts[artifact.name] = {"cells": cells, "checks": verdicts}
    return {"seed": seed, "artifacts": artifacts, "failed_checks": failed_checks}


# -- rendering -----------------------------------------------------------------

def _summary(d: Mapping[str, Any]) -> StatSummary:
    """A :meth:`StatSummary.to_dict` read back (``None`` -> NaN)."""
    v = {name: float("nan") if x is None else x for name, x in d.items()}
    return StatSummary(
        v["count"], v["weight"], v["mean"], v["min"], v["max"],
        v["p90"], v["p95"], v["p99"], v["std"],
    )


def _describe(name: str, value: Any) -> str:
    if isinstance(value, dict):
        return f"{name} {_summary(value).row()}"
    if isinstance(value, list):
        finite = [v for v in value if v == v]
        span = f" [{min(finite):.3g} .. {max(finite):.3g}]" if finite else ""
        return f"{name} {sparkline(value, width=40)}{span}"
    if isinstance(value, float):
        return f"{name} {value:.4g}"
    return f"{name} {value}"


def _engine_workers(key: str) -> Tuple[str, int]:
    label, _, workers = key.rpartition("/")
    return label, int(workers)


def _table(artifact: Artifact, cells: Mapping[str, Any]) -> Optional[str]:
    """Tables I-IV and Experiment 4's table, measured beside the paper,
    through :mod:`repro.core.report`; ``None`` for other artifacts."""
    if not artifact.paper:
        return None
    paper = {_engine_workers(key): ref for key, ref in artifact.paper.items()}
    searched = [k for k, c in artifact.cells.items() if isinstance(c, Search)]
    if not searched:
        measured = {
            _engine_workers(key): _summary(cell["event"])
            for key, cell in cells.items()
            if cell is not None
        }
        return latency_table(
            artifact.title, measured, paper=paper, workers=WORKER_SWEEP
        )
    rates = {
        _engine_workers(key): cells[key]["rate"]
        for key in searched
        if cells[key]["rate"] is not None
    }
    workers = sorted({w for _, w in paper} | {w for _, w in rates})
    return throughput_table(artifact.title, rates, paper=paper, workers=workers)


def render_artifact(artifact: Artifact, entry: Mapping[str, Any]) -> str:
    """One artifact as text: its table beside the paper's, the observed
    fields of every cell a latency table does not show, and each check's
    verdict."""
    cells = entry["cells"]
    table = _table(artifact, cells)
    lines = [artifact.title if table is None else table]
    if table is None or "rows:" not in table:
        for key, cell in cells.items():
            if cell is None:
                lines.append(f"  {key}: not run (its search found no rate)")
                continue
            fields = [
                _describe(name, value)
                for name, value in cell.items()
                if name not in ("paper", "failure")
            ]
            if cell.get("failure") is not None:
                fields.append(f"FAILED ({cell['failure']})")
            lines.append(f"  {key}: " + "; ".join(fields))
    lines += [shape_check(name, ok)[1] for name, ok in entry["checks"].items()]
    return "\n".join(lines)


def render_paper(report: Mapping[str, Any]) -> str:
    blocks = [
        render_artifact(artifact, report["artifacts"][artifact.name])
        for artifact in ARTIFACTS
    ]
    total = sum(len(artifact.checks) for artifact in ARTIFACTS)
    failed = report["failed_checks"]
    blocks.append(
        f"seed {report['seed']}: {total - len(failed)} of {total} checks hold"
        + "".join(f"\n  FAILED {name}" for name in failed)
    )
    return "\n\n".join(blocks)
