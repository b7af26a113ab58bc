"""Which public callables of ``repro`` form which layer.

Layers carry this repository's module names.  :func:`install` registers
one wrapper per boundary callable on a :class:`~benchmarks.perf.tracing.
Tracer`; :func:`layer_metrics` turns what the tracer folded into the
per-layer metric names ``BENCHMARK.json`` declares.

Simulator callbacks are attributed where they are scheduled: the public
``Simulator.schedule_at`` / ``Simulator.every`` are stood in for by
versions that time each callback under the module of the object owning
it (``callback.__self__``), so generator ticks, engine ticks, throughput
sampling, heartbeats and checkpoints separate without touching ``src/``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.cli  # noqa: F401  (imports every subsystem, ext engines included)
from repro.autoscale import metrics as autoscale_metrics
from repro.autoscale import scorecard
from repro.autoscale.rescale import Autoscaler
from repro.core import experiment, sustainable
from repro.core.batch import RecordBlock
from repro.core.driver import BenchmarkDriver
from repro.core.latency import LatencyCollector
from repro.core.queues import DriverQueue
from repro.core.throughput import ThroughputMonitor
from repro.detect.plane import DetectionPlane
from repro.engines.base import StreamingEngine
from repro.engines.operators import aggregate, join
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
)
from repro.engines.operators.join import JoinWindowStore
from repro.engines.operators.sink import Sink
from repro.engines.operators.source import SourceSet
from repro.engines.operators.window import KeyedWindowStore
from repro.faults import metrics as fault_metrics
from repro.metrology.journal import TrialJournal
from repro.obs.context import ObsContext
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceLog
from repro.recovery import chaos
from repro.sched.pool import TrialScheduler
from repro.sim.network import DataPlane
from repro.sim.simulator import Simulator

from benchmarks.perf.tracing import Tracer

#: Callbacks owned by a module no declared layer covers (the driver's
#: engine watchdog, generator rebalancing) are timed under this name
#: and reported as ``trace.unattributed_s``.
OTHER = "other.callback"


def classify(owner: type, function: str) -> Optional[Tuple[str, str]]:
    """Span name and layer of a simulator callback, from its owner."""
    module = owner.__module__
    if module.startswith("repro.sim."):
        return None  # PeriodicProcess._fire: the event loop's own work
    if module.startswith("repro.engines."):
        if function == "_tick":
            return "engines.tick", "engines"
        if function == "_checkpoint_tick":
            return "engines.checkpoint", "engines"
        # Engine-scheduled one-offs: Storm/Flink jittered emits, Spark
        # job completion, recovery and rescale cut-overs.
        return "engines.deferred", "engines"
    if module == "repro.core.generator":
        return "generator.tick", "core.generator"
    if module == "repro.core.throughput":
        return "throughput.sample", "core.throughput"
    if module.startswith("repro.detect."):
        return "detect.callback", "detect"
    return OTHER, "other"


def _subclasses(base: type) -> Iterable[type]:
    yield base
    for sub in base.__subclasses__():
        yield from _subclasses(sub)


def _methods(
    tracer: Tracer,
    bases: Iterable[type],
    names: Iterable[str],
    span: str,
    layer: str,
    after: Optional[Callable[[Any, tuple], None]] = None,
) -> None:
    """Wrap each of ``names`` wherever ``bases`` or a subclass defines
    it, so an override is timed like the method it overrides."""
    seen = set()
    for base in bases:
        for cls in _subclasses(base):
            if cls in seen:
                continue
            seen.add(cls)
            for name in names:
                if name in vars(cls):
                    tracer.patch(cls, name, span, layer, after)


def _function(
    tracer: Tracer,
    fn: Callable[..., Any],
    span: str,
    layer: str,
    after: Optional[Callable[[Any, tuple], None]] = None,
) -> None:
    """Wrap a module-level function under every name it was imported
    by (``from x import f`` copies the reference into the importer)."""
    wrapper = tracer.wrap(fn, tracer.name_id(span, layer), after)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                tracer.replace(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Register every boundary of the ledger on ``tracer``."""
    counters = tracer.counters

    # -- sim ---------------------------------------------------------------
    schedule_at = Simulator.schedule_at
    every = Simulator.every

    def traced_schedule_at(sim, time, callback, *args):
        counters["sim.events"] += 1
        return schedule_at(sim, time, tracer.callback(callback), *args)

    def traced_every(sim, interval, callback, start=None):
        return every(sim, interval, tracer.callback(callback), start)

    tracer.replace(Simulator, "schedule_at", traced_schedule_at)
    tracer.replace(Simulator, "every", traced_every)
    tracer.patch(Simulator, "run_until", "sim.run_until", "sim")
    tracer.patch(DataPlane, "allocate", "sim.allocate", "sim")

    # -- core.experiment ---------------------------------------------------
    _function(
        tracer, experiment.run_experiment, "run_experiment", "core.experiment"
    )

    # -- core.queues -------------------------------------------------------
    def after_push(_result, args):
        queued = args[0].queued_weight
        if queued > counters["peak:core.queues.queued_weight"]:
            counters["peak:core.queues.queued_weight"] = queued
        pushed = args[1]
        counters["core.generator.cohorts"] += (
            len(pushed) if isinstance(pushed, RecordBlock) else 1
        )

    tracer.patch(DriverQueue, "push", "queues.push", "core.queues", after_push)
    tracer.patch(
        DriverQueue, "push_block", "queues.push", "core.queues", after_push
    )
    tracer.patch(DriverQueue, "pull", "queues.pull", "core.queues")
    tracer.patch(DriverQueue, "pull_blocks", "queues.pull", "core.queues")
    tracer.patch(DriverQueue, "shed", "queues.shed", "core.queues")

    # -- engines.operators -------------------------------------------------
    def after_pull(result, _args):
        if result:
            counters["engines.productive_ticks"] += 1

    _methods(
        tracer, [SourceSet], ["pull", "pull_batch"],
        "operators.source", "engines.operators", after_pull,
    )
    stores = [
        KeyedWindowStore,
        JoinWindowStore,
        BatchPartialAggregator,
        WindowedPartialMerger,
    ]
    _methods(
        tracer, stores, ["add", "add_block", "absorb"],
        "operators.add", "engines.operators",
    )
    _methods(
        tracer, stores, ["close", "pop_ready", "drain"],
        "operators.close", "engines.operators",
    )
    _function(
        tracer, aggregate.aggregation_outputs,
        "operators.close", "engines.operators",
    )
    _function(
        tracer, join.join_window_outputs,
        "operators.close", "engines.operators",
    )

    def after_emit(_result, args):
        counters["engines.operators.outputs"] += len(args[1])

    tracer.patch(
        Sink, "emit", "operators.sink", "engines.operators", after_emit
    )

    # -- core.latency / core.throughput -----------------------------------
    def after_collect(_result, args):
        counters["core.latency.samples"] += len(args[1])

    tracer.patch(
        LatencyCollector, "collect", "latency.collect", "core.latency",
        after_collect,
    )
    for name in ("summary", "trend_slope", "binned_series"):
        tracer.patch(LatencyCollector, name, "latency.summary", "core.latency")
    for name in ("mean_ingest_rate", "occupancy_slope"):
        tracer.patch(
            ThroughputMonitor, name, "throughput.read", "core.throughput"
        )

    # -- core.sustainable --------------------------------------------------
    def after_assess(result, _args):
        if not result.sustainable:
            counters["core.sustainable.unsustainable"] += 1

    _function(
        tracer, sustainable.find_sustainable_throughput,
        "sustainable.search", "core.sustainable",
    )
    _function(
        tracer, sustainable.assess,
        "sustainable.assess", "core.sustainable", after_assess,
    )

    # -- obs ---------------------------------------------------------------
    tracer.patch(MetricsRegistry, "sample", "obs.sample", "obs")
    tracer.patch(TraceLog, "on_complete", "obs.trace_complete", "obs")
    tracer.patch(ObsContext, "finalize", "obs.finalize", "obs")

    # -- faults ------------------------------------------------------------
    _methods(
        tracer, [StreamingEngine, BenchmarkDriver], ["inject_fault"],
        "faults.inject", "faults",
    )
    _function(
        tracer, fault_metrics.compute_recovery_metrics,
        "faults.recovery_metrics", "faults",
    )

    # -- detect ------------------------------------------------------------
    tracer.patch(DetectionPlane, "finalize", "detect.finalize", "detect")

    # -- autoscale ---------------------------------------------------------
    tracer.patch(Autoscaler, "on_sample", "autoscale.sample", "autoscale")
    _methods(
        tracer, [StreamingEngine], ["request_scale_out", "request_scale_in"],
        "autoscale.request", "autoscale",
    )
    _function(
        tracer, autoscale_metrics.compute_rescale_metrics,
        "autoscale.rescale_metrics", "autoscale",
    )

    # -- grid harnesses ----------------------------------------------------
    def after_grid(result, _args):
        counters["grid.violations"] += len(result.violations)

    _function(tracer, chaos.run_chaos, "grid.run", "grid", after_grid)
    _function(tracer, scorecard.run_elasticity, "grid.run", "grid", after_grid)
    tracer.patch(chaos.ChaosReport, "to_json", "grid.to_json", "grid")
    tracer.patch(scorecard.ElasticityReport, "to_json", "grid.to_json", "grid")

    # -- sched / metrology.journal ----------------------------------------
    def after_schedule(result, _args):
        counters["grid.cells"] += len(result)

    tracer.patch(TrialScheduler, "run", "sched.run", "sched", after_schedule)

    def after_record(_result, args):
        counters["metrology.journal.bytes_written"] += (
            args[0].path.stat().st_size
        )

    tracer.patch(
        TrialJournal, "record", "journal.record", "metrology.journal",
        after_record,
    )
    tracer.patch(
        TrialJournal, "merge_shards", "journal.merge", "metrology.journal"
    )


# -- from folded spans to declared metric names -----------------------------

#: metric -> span names whose self time it sums.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "core.experiment.self_s": ("run_experiment",),
    "sim.dispatch_self_s": ("sim.run_until",),
    "sim.plane_self_s": ("sim.allocate",),
    "core.generator.self_s": ("generator.tick",),
    "core.queues.self_s": ("queues.push", "queues.pull", "queues.shed"),
    "engines.tick_self_s": ("engines.tick", "engines.deferred"),
    "engines.checkpoint_self_s": ("engines.checkpoint",),
    "engines.operators.source_self_s": ("operators.source",),
    "engines.operators.add_self_s": ("operators.add",),
    "engines.operators.close_self_s": ("operators.close",),
    "engines.operators.sink_self_s": ("operators.sink",),
    "core.latency.collect_self_s": ("latency.collect",),
    "core.latency.summary_self_s": ("latency.summary",),
    "core.throughput.self_s": ("throughput.sample", "throughput.read"),
    "core.sustainable.self_s": ("sustainable.search", "sustainable.assess"),
    "obs.self_s": ("obs.sample", "obs.trace_complete", "obs.finalize"),
    "faults.self_s": ("faults.inject", "faults.recovery_metrics"),
    "detect.self_s": ("detect.callback", "detect.finalize"),
    "autoscale.self_s": (
        "autoscale.sample", "autoscale.request", "autoscale.rescale_metrics",
    ),
    "grid.harness_self_s": ("grid.run", "grid.to_json"),
    "sched.self_s": ("sched.run",),
    "metrology.journal.self_s": ("journal.record", "journal.merge"),
    "metrology.journal.merge_self_s": ("journal.merge",),
}

#: metric -> span name whose calls it counts.
CALLS: Dict[str, str] = {
    "core.experiment.trials": "run_experiment",
    "sim.plane_calls": "sim.allocate",
    "core.generator.ticks": "generator.tick",
    "core.queues.push_calls": "queues.push",
    "core.queues.pull_calls": "queues.pull",
    "engines.ticks": "engines.tick",
    "engines.operators.add_calls": "operators.add",
    "engines.operators.close_calls": "operators.close",
    "engines.operators.sink_calls": "operators.sink",
    "core.latency.collect_calls": "latency.collect",
    "core.throughput.samples": "throughput.sample",
    "core.sustainable.probes": "sustainable.assess",
    "obs.samples": "obs.sample",
    "obs.traces_completed": "obs.trace_complete",
    "faults.injected": "faults.inject",
    "detect.callbacks": "detect.callback",
    "autoscale.decisions": "autoscale.request",
    "metrology.journal.records": "journal.record",
}

#: metric -> hook counter it reports.
COUNTERS: Dict[str, str] = {
    "sim.events": "sim.events",
    "core.generator.cohorts": "core.generator.cohorts",
    "core.queues.peak_queued_weight": "peak:core.queues.queued_weight",
    "engines.operators.outputs": "engines.operators.outputs",
    "core.latency.samples": "core.latency.samples",
    "grid.cells": "grid.cells",
    "grid.violations": "grid.violations",
    "metrology.journal.bytes_written": "metrology.journal.bytes_written",
}

#: The metrics whose self times add up, each span counted once, to the
#: attributed part of a traced operation's wall time (``merge_self_s``
#: repeats part of ``journal.self_s``).
ATTRIBUTED: List[str] = [
    metric for metric in SELF_TIME if metric != "metrology.journal.merge_self_s"
]


def merge(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Add up what :meth:`Tracer.take` returned for several operations
    (``peak:`` counters take the maximum instead)."""
    total: Dict[str, Any] = {
        "self_s": {}, "calls": {}, "counters": {}, "spans": 0, "root_s": 0.0,
    }
    for part in parts:
        for field in ("self_s", "calls"):
            for name, value in part[field].items():
                total[field][name] = total[field].get(name, 0) + value
        for name, value in part["counters"].items():
            if name.startswith("peak:"):
                value = max(value, total["counters"].get(name, 0.0))
            else:
                value += total["counters"].get(name, 0.0)
            total["counters"][name] = value
        total["spans"] += part["spans"]
        total["root_s"] += part["root_s"]
    return total


def layer_metrics(taken: Dict[str, Any]) -> Dict[str, float]:
    """The declared per-layer metrics from one :meth:`Tracer.take` (or a
    :func:`merge` of several)."""
    self_s, calls, counters = taken["self_s"], taken["calls"], taken["counters"]
    out: Dict[str, float] = {}
    for metric, spans in SELF_TIME.items():
        out[metric] = sum(self_s.get(span, 0.0) for span in spans)
    for metric, span in CALLS.items():
        out[metric] = float(calls.get(span, 0))
    for metric, counter in COUNTERS.items():
        out[metric] = float(counters.get(counter, 0.0))
    ticks = calls.get("engines.tick", 0)
    out["engines.productive_tick_ratio"] = (
        counters.get("engines.productive_ticks", 0.0) / ticks if ticks else 0.0
    )
    probes = calls.get("sustainable.assess", 0)
    out["core.sustainable.unsustainable_ratio"] = (
        counters.get("core.sustainable.unsustainable", 0.0) / probes
        if probes
        else 0.0
    )
    out["trace.spans"] = float(taken["spans"])
    return out
