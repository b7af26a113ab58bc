"""The benchmark driver: full separation of driver and SUT.

Section III-C: "We choose to isolate the benchmark driver, i.e., the
data generator, queues, and measurements from the SUT. ... we measure
throughput at the queues between the data generator and the SUT and
measure latency at the sink operator of the SUT."

The driver owns everything except the engine:

- the generator fleet and their queues (driver nodes);
- the throughput monitor (at the queues) and the latency collector
  (fed by the sink callback);
- the failure rules: a dropped queue connection or an engine failure
  halts the trial with a "cannot sustain" verdict;
- the warmup policy ("We use 25% of the input data as a warmup"): all
  reported statistics exclude outputs emitted before the warmup end.

The engine only ever receives ``(queues, sink)`` -- it cannot observe or
influence measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.generator import DataGenerator
from repro.autoscale.metrics import RescaleMetrics
from repro.core.criteria import SustainabilityCriteria
from repro.core.latency import EVENT_TIME, PROCESSING_TIME, LatencyCollector
from repro.core.metrics import StatSummary
from repro.core.queues import QueueSet
from repro.core.throughput import ThroughputMonitor
from repro.detect.metrics import DetectionMetrics
from repro.engines.base import StreamingEngine
from repro.engines.operators.sink import Sink
from repro.faults.metrics import RecoveryMetrics
from repro.faults.schedule import (
    DriverNodeSlow,
    DriverQueueLoss,
    FaultEvent,
    GeneratorCrash,
)
from repro.metrology.skew import SkewModel
from repro.metrology.watchdog import AttemptRecord
from repro.obs.context import ObsContext, ObsReport
from repro.sim.failures import (
    ConnectionDropped,
    MeasurementFault,
    SutFailure,
)
from repro.sim.resources import ResourceMonitor
from repro.sim.simulator import Simulator
from repro.workloads.profiles import RateProfile


@dataclass
class TrialResult:
    """Everything measured in one benchmark trial.

    Latency summaries and the ingest rate exclude the warmup period;
    the raw collectors/monitors are kept for figure generation.
    """

    engine: str
    workers: int
    query_kind: str
    offered_profile: RateProfile
    duration_s: float
    warmup_s: float
    failure: Optional[str]
    failure_time: float
    event_latency: StatSummary
    processing_latency: StatSummary
    mean_ingest_rate: float
    collector: LatencyCollector
    throughput: ThroughputMonitor
    resources: Optional[ResourceMonitor]
    diagnostics: Dict[str, float] = field(default_factory=dict)
    recovery: Optional[List[RecoveryMetrics]] = None
    """Per-fault recovery metrology (populated when the trial injected
    faults; ``None`` for fault-free trials)."""
    observability: Optional[ObsReport] = None
    """Metrics registry series and lifecycle traces (populated when the
    trial ran with an :class:`~repro.obs.context.ObsSpec`)."""
    attempts: Optional[List[AttemptRecord]] = None
    """Per-attempt history when the trial ran under the watchdog retry
    runner (``None`` for unwatched trials)."""
    autoscale: Optional[List["RescaleMetrics"]] = None
    """Per-scaling-event time-to-resustain metrology (populated when the
    trial ran with an :class:`~repro.autoscale.policy.AutoscaleSpec`;
    ``None`` for fixed-size trials)."""
    detection: Optional["DetectionMetrics"] = None
    """Detection-quality metrology (populated when the trial ran with a
    failure detector, ``ExperimentSpec.detector``; ``None`` otherwise)."""
    stopped_at_s: Optional[float] = None
    """Simulated time at which the driver stopped the trial because its
    Definition 5 verdict was settled as "unsustainable" (``None`` for a
    full-length trial).  ``duration_s`` / ``warmup_s`` stay as planned;
    the summaries cover ``[warmup_s, stopped_at_s]``.  Not a failure:
    the SUT did not fail, the driver stopped asking."""

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def measurement_start(self) -> float:
        return self.warmup_s

    def describe(self) -> str:
        status = f"FAILED: {self.failure}" if self.failed else "completed"
        return (
            f"{self.engine} / {self.workers} workers / {self.query_kind}: "
            f"{status}; ingest {self.mean_ingest_rate / 1e6:.3f} M/s; "
            f"event latency {self.event_latency.row()}"
        )


#: Leading share of every trial excluded from the measurements (the
#: engine's warm-up).
WARMUP_FRACTION = 0.25
#: Seconds before the fleet supervisor notices a dead generator and
#: rebalances its share over the survivors.
REBALANCE_DETECTION_S = 2.0


class BenchmarkDriver:
    """Runs one trial: generators + queues + one engine + measurement."""

    def __init__(
        self,
        sim: Simulator,
        engine: StreamingEngine,
        generators: List[DataGenerator],
        duration_s: float,
        queues: Optional[QueueSet] = None,
        keep_outputs: bool = False,
        obs: Optional[ObsContext] = None,
        skew: Optional[SkewModel] = None,
        judged_by: Optional[SustainabilityCriteria] = None,
    ) -> None:
        """``judged_by`` (if given) makes this an *anytime* trial: the
        driver stops it at the first throughput sample where the
        verdict under those criteria is settled as "unsustainable"
        (see :meth:`ThroughputMonitor.verdict_settled`)."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.sim = sim
        self.engine = engine
        self.generators = generators
        # The SUT-facing queues are normally the generators' own; a
        # mediator stage (the broker ablation) interposes its own queues.
        self.queues = queues or QueueSet([g.queue for g in generators])
        self.duration_s = duration_s
        self.warmup_s = duration_s * WARMUP_FRACTION
        self.skew = skew
        self.collector = LatencyCollector(keep_outputs=keep_outputs, skew=skew)
        self.obs = obs
        # With tracing on, the sink callback routes through a thin shim
        # that finalises traces; without obs the collector is attached
        # directly -- the measured hot path is byte-identical to before.
        if obs is not None and obs.sampler is not None:
            self.sink = Sink(self._collect_traced)
        else:
            self.sink = Sink(self.collector.collect)
        self.judged_by = judged_by
        self.stopped_at_s: Optional[float] = None
        self.monitor = ThroughputMonitor(
            sim,
            self.queues,
            on_sample=self._check_verdict if judged_by is not None else None,
        )
        if obs is not None:
            self._bind_driver_gauges(obs.registry)
        self._watchdog = sim.every(1.0, self._check_engine)
        self._failure: Optional[SutFailure] = None
        # Driver-side fault log: mirrors the engine's fault_log shape so
        # recovery metrology and the obs timeline consume both alike.
        self.fault_log: List[Dict[str, float]] = []
        self._rebalances = 0
        self._offered_shortfall_frac = 0.0

    def _collect_traced(self, outputs) -> None:
        """Sink callback when tracing: complete any riding traces, then
        forward to the latency collector unchanged."""
        log = self.obs.trace_log
        for output in outputs:
            traces = output.traces
            if traces:
                for trace in traces:
                    trace.mark("emitted", output.emit_time)
                    log.on_complete(trace)
                output.traces = None
        self.collector.collect(outputs)

    def _bind_driver_gauges(self, registry) -> None:
        """Publish driver-side instruments: per-queue depth/throughput
        and the aggregate ingestion watermark lag.  All are polled
        gauges -- nothing is pushed from the hot path."""
        for queue in self.queues:
            name = queue.name
            registry.gauge(f"queue.depth{{{name}}}").bind(
                lambda q=queue: q.queued_weight
            )
            registry.gauge(f"queue.pushed_weight{{{name}}}").bind(
                lambda q=queue: q.pushed_weight
            )
            registry.gauge(f"queue.pulled_weight{{{name}}}").bind(
                lambda q=queue: q.pulled_weight
            )
        registry.gauge("driver.queue_depth_total").bind(
            lambda: self.queues.total_queued_weight
        )
        registry.gauge("driver.shed_weight").bind(
            lambda: self.queues.total_shed_weight
        )
        registry.gauge("driver.lost_weight").bind(
            lambda: self.queues.total_lost_weight
        )
        registry.gauge("driver.oldest_wait_s").bind(
            lambda: self.queues.max_oldest_wait(self.sim.now)
        )
        registry.gauge("driver.watermark_lag_s").bind(self._watermark_lag)
        registry.gauge("driver.offered_rate").bind(
            lambda: sum(
                g.profile.rate_at(self.sim.now) * g.share
                for g in self.generators
            )
        )
        registry.gauge("sink.emitted_weight").bind(
            lambda: self.sink.emitted_weight
        )

    def _watermark_lag(self) -> float:
        """How far the SUT's ingestion watermark trails the generation
        frontier (0 before any generation)."""
        frontier = max(
            (q.frontier_event_time for q in self.queues), default=float("-inf")
        )
        watermark = self.queues.watermark
        if frontier == float("-inf") or watermark == float("-inf"):
            return 0.0
        return max(0.0, frontier - watermark)

    def _check_engine(self, sim: Simulator) -> None:
        """Halt the run as soon as the SUT has failed (Section VI-A)."""
        if self.engine.failed:
            self._failure = self.engine.failure
            sim.stop()

    def _check_verdict(self, sim: Simulator) -> None:
        """Halt the run as soon as its verdict is settled (anytime
        Definition 5): the search needs a failing probe's verdict,
        never its tail."""
        if self.monitor.verdict_settled(self.judged_by, self.warmup_s):
            self.stopped_at_s = sim.now
            sim.stop()

    # -- driver-side fault injection --------------------------------------

    def inject_fault(self, event: FaultEvent) -> None:
        """Apply one *driver-side* fault (``event.driver_side`` is True).

        These injure the measurement plane -- generators and driver
        queues -- never the SUT; the engine keeps running against
        whatever the wounded instrument still offers it.
        """
        if self._failure is not None:
            return
        if isinstance(event, GeneratorCrash):
            self._crash_generator(event.instance)
        elif isinstance(event, DriverQueueLoss):
            self._lose_queue(event.queue_index)
        elif isinstance(event, DriverNodeSlow):
            self._slow_generator(event.instance, event.factor, event.duration_s)
        else:
            raise TypeError(
                f"not a driver-side fault event: {event!r}"
            )

    def _log_driver_fault(self, kind: str, **fields: float) -> None:
        entry: Dict[str, float] = {"kind": kind, "at_s": self.sim.now}
        entry.update(fields)
        self.fault_log.append(entry)
        if self.obs is not None:
            self.obs.add_event(f"fault.{kind}", self.sim.now, **fields)

    def _crash_generator(self, instance: int) -> None:
        index = instance % len(self.generators)
        generator = self.generators[index]
        if generator.crashed:
            return
        generator.crash()
        self._log_driver_fault("gencrash", instance=float(index))
        # The fleet supervisor notices the dead instance only after the
        # detection window, then rebalances its share over survivors.
        self.sim.schedule(
            REBALANCE_DETECTION_S, self._rebalance_generators
        )

    def _rebalance_generators(self) -> None:
        survivors = [g for g in self.generators if not g.crashed]
        for generator in self.generators:
            if generator.crashed:
                # The dead queue's frontier is frozen; retiring it lets
                # the fleet watermark advance once it drains.
                generator.queue.retire()
        if not survivors:
            # Nothing left to carry the load; the watchdog's progress
            # check is the backstop for a fully dead fleet.
            self._log_driver_fault("rebalance", survivors=0.0)
            return
        target_share = 1.0 / len(survivors)
        achieved = 0.0
        for generator in survivors:
            generator.set_share(target_share)
            achieved += generator.share
        # Over-provisioning check: with headroom factor f, up to
        # (1 - 1/f) of the fleet may die before survivors can no longer
        # re-attain the offered rate.  The shortfall is first-class in
        # diagnostics -- a silently lowered offered rate is exactly the
        # measurement lie this fault exists to expose.
        shortfall = max(0.0, 1.0 - achieved)
        self._rebalances += 1
        self._offered_shortfall_frac = max(
            self._offered_shortfall_frac, shortfall
        )
        self._log_driver_fault(
            "rebalance",
            survivors=float(len(survivors)),
            share=target_share,
            shortfall_frac=shortfall,
        )

    def _lose_queue(self, queue_index: int) -> None:
        queue = self.queues.queues[queue_index % len(self.queues)]
        lost = queue.lose_queued()
        self._log_driver_fault("queueloss", lost_weight=lost)

    def _slow_generator(
        self, instance: int, factor: float, duration_s: float
    ) -> None:
        index = instance % len(self.generators)
        self.generators[index].slow(self.sim.now + duration_s, factor)
        self._log_driver_fault(
            "driverslow",
            instance=float(index),
            factor=factor,
            duration_s=duration_s,
        )

    def _record_fatal(self, failure: SutFailure) -> None:
        """Log a trial-ending driver-observed failure into the fault
        log / obs timeline, mirroring how engines log fatal faults
        before aborting (PR 4): an aborted trial must keep its
        telemetry, including the event that killed it."""
        if isinstance(failure, ConnectionDropped):
            kind = "overflow"
        elif isinstance(failure, MeasurementFault):
            kind = "watchdog"
        else:
            kind = "driver-abort"
        at_s = failure.at_time
        if at_s != at_s:
            at_s = self.sim.now
        entry: Dict[str, float] = {"kind": kind, "at_s": at_s, "fatal": 1.0}
        self.fault_log.append(entry)
        if self.obs is not None:
            self.obs.add_event(f"fault.{kind}", at_s, fatal=1.0)

    def run(self) -> TrialResult:
        """Execute the trial and assemble the result."""
        for generator in self.generators:
            generator.start()
        self.engine.start(self.queues, self.sink)
        try:
            self.sim.run_until(self.duration_s)
        except SutFailure as failure:
            # Raised by a queue push (connection drop) or a watchdog
            # trip: the driver halts the experiment, keeping the fatal
            # event in the fault log so partial diagnostics survive.
            self._failure = failure
            self._record_fatal(failure)
        finally:
            self.engine.stop()
            for generator in self.generators:
                generator.stop()
            self.monitor.stop()
            self._watchdog.stop()
        if self._failure is None and self.engine.failed:
            self._failure = self.engine.failure
        failure_msg = str(self._failure) if self._failure else None
        failure_time = (
            self._failure.at_time if self._failure is not None else float("nan")
        )
        event_latency = self.collector.summary(EVENT_TIME, self.warmup_s)
        processing_latency = self.collector.summary(
            PROCESSING_TIME, self.warmup_s
        )
        mean_ingest_rate = self.monitor.mean_ingest_rate(self.warmup_s)
        diagnostics: Dict[str, float] = dict(self.engine.diagnostics())
        diagnostics.update(self.collector.perf_counters())
        diagnostics.update(self.monitor.perf_counters())
        # Driver-side weight-conservation ledger: everything generated
        # is still queued, ingested by the SUT, shed by the degradation
        # policy, or lost to a driver fault
        # (pushed == pulled + queued + shed + lost).
        diagnostics["driver.pushed_weight"] = self.queues.total_pushed_weight
        diagnostics["driver.pulled_weight"] = self.queues.total_pulled_weight
        diagnostics["driver.queued_weight"] = self.queues.total_queued_weight
        diagnostics["driver.shed_weight"] = self.queues.total_shed_weight
        diagnostics["driver.lost_weight"] = self.queues.total_lost_weight
        diagnostics["driver.faults_injected"] = float(len(self.fault_log))
        if self._rebalances:
            diagnostics["driver.rebalances"] = float(self._rebalances)
            diagnostics["driver.offered_shortfall_frac"] = (
                self._offered_shortfall_frac
            )
        if self.stopped_at_s is not None:
            diagnostics["driver.stopped_at_s"] = self.stopped_at_s
        observability = self.obs.finalize() if self.obs is not None else None
        return TrialResult(
            engine=self.engine.name,
            workers=self.engine.cluster.workers,
            query_kind=self.engine.query.kind,
            offered_profile=self.generators[0].profile,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            failure=failure_msg,
            failure_time=failure_time,
            event_latency=event_latency,
            processing_latency=processing_latency,
            mean_ingest_rate=mean_ingest_rate,
            collector=self.collector,
            throughput=self.monitor,
            resources=self.engine.resources,
            diagnostics=diagnostics,
            observability=observability,
            stopped_at_s=self.stopped_at_s,
        )
