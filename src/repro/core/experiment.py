"""Declarative experiment specification and runner.

An :class:`ExperimentSpec` captures everything that identifies a trial
in the paper's evaluation -- engine, query, cluster size, offered load,
duration, seed -- and :func:`run_experiment` assembles the full stack
(simulator, cluster, data plane, resource monitor, generator fleet,
engine, driver) and runs it.  All benchmarks, examples, and integration
tests go through this single entry point.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from repro.autoscale.metrics import (
    compute_rescale_metrics,
    rescale_timeline_events,
)
from repro.autoscale.policy import AutoscaleSpec
from repro.autoscale.rescale import Autoscaler
from repro.core.broker import BrokerStage
from repro.core.criteria import SustainabilityCriteria
from repro.core.driver import BenchmarkDriver, TrialResult
from repro.core.generator import GeneratorConfig, build_generator_fleet
from repro.core.queues import DriverQueue, QueueSet
from repro.detect.plane import DetectionPlane
from repro.engines import engine_class
from repro.engines.base import EngineConfig
from repro.faults.checkpoint import CheckpointSpec
from repro.faults.metrics import (
    compute_recovery_metrics,
    recovery_timeline_events,
)
from repro.faults.schedule import FaultSchedule
from repro.metrology.skew import SkewModel
from repro.metrology.watchdog import (
    AttemptRecord,
    TrialWatchdog,
    WatchdogSpec,
)
from repro.obs.context import ObsContext, ObsSpec
from repro.recovery.degradation import DegradationPolicy
from repro.sim.clock import ClockSkewSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.network import DataPlane
from repro.sim.resources import ResourceMonitor
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.profiles import ConstantRate, RateProfile
from repro.workloads.queries import Query, WindowedAggregationQuery


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark trial, fully specified."""

    engine: str = "flink"
    query: Query = field(default_factory=WindowedAggregationQuery)
    workers: int = 2
    profile: Union[RateProfile, float] = 0.5e6
    """Offered load: a :class:`RateProfile` or an events/s constant."""
    duration_s: float = 240.0
    seed: int = 1
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    engine_config: Optional[EngineConfig] = None
    monitor_resources: bool = True
    broker: bool = False
    """Insert a message-broker mediator between generators and the SUT
    (the design the paper argues against, Section III-A); used by the
    broker ablation benchmark.  Its characteristics are the constants
    of :mod:`repro.core.broker`."""
    keep_outputs: bool = False
    """Retain raw output tuples on the trial's collector (correctness
    checks and ablations; costs memory on long runs)."""
    faults: Optional[FaultSchedule] = None
    """Timeline of typed fault events injected mid-trial (the fault
    recovery benchmark; see :mod:`repro.faults`)."""
    checkpoint: Optional[CheckpointSpec] = None
    """Fault-tolerance configuration.  ``None`` uses the model defaults
    when faults are scheduled (and engages no checkpoint pauses in
    fault-free trials)."""
    observability: Optional[ObsSpec] = None
    """Metrics registry + lifecycle tracing configuration.  ``None``
    (the default) runs with observability fully disabled -- the hot
    path is byte-identical to a pre-observability build."""
    standby: int = 0
    """Hot spare worker nodes (``--standby N``): the cluster's standby
    pool, the only one.  With spares, the default reschedule mode
    promotes them after a NodeCrash instead of permanently losing the
    capacity (see :mod:`repro.recovery`)."""
    reschedule: Optional[str] = None
    """How failed capacity is replaced: a mode of
    :data:`~repro.recovery.reschedule.RESCHEDULE_MODES` (``none``,
    ``spread``, ``standby``; ``--reschedule``).  ``None`` derives it
    from :attr:`standby`: standby promotion when spares exist, else the
    legacy lose-capacity/fail-on-last-worker ``none``."""
    degradation: Optional[DegradationPolicy] = None
    """Load shedding + admission-ramp behaviour.  ``None`` is inert
    (the paper's binary failure rule)."""
    clock_skew: Optional[ClockSkewSpec] = None
    """Per-node clock errors applied to the *measurement plane* (event
    timestamps and sink reads pass through skewed clocks; see
    :mod:`repro.metrology.skew`).  ``None`` keeps the paper's implicit
    perfect-clock assumption.  SUT dynamics are identical either way --
    only the reported latencies (and the exported error bound) change."""
    autoscale: Optional[AutoscaleSpec] = None
    """Elastic scaling: a policy + bounds driving scale-out/scale-in
    from obs-registry signals (see :mod:`repro.autoscale`).  Requires
    metrics sampling; when :attr:`observability` is ``None`` a
    metrics-only ObsSpec is enabled automatically."""
    detector: Optional[str] = None
    """Failure-detection plane: seeded heartbeats feeding the detector
    of this kind (one of :data:`~repro.detect.plane.DETECTOR_KINDS`:
    ``timeout``, ``phi``, ``quorum``; ``--detector``) whose verdicts
    drive evictions (see :mod:`repro.detect`).  ``None`` (the default)
    runs without any detection plane -- the pre-existing fixed-timeout
    supervisor semantics, bit for bit."""
    judged_by: Optional[SustainabilityCriteria] = None
    """The Definition 5 criteria this trial will be judged by.  When
    set, the driver stops the trial once its verdict is settled as
    "unsustainable" (``TrialResult.stopped_at_s``).  The sustainable-
    throughput search sets it on the probes where that is sound (see
    :func:`repro.core.sustainable.anytime_spec`); ``None`` (the default)
    always runs the full ``duration_s``."""

    def rate_profile(self) -> RateProfile:
        if isinstance(self.profile, RateProfile):
            return self.profile
        return ConstantRate(float(self.profile))

    def cluster(self) -> ClusterSpec:
        return ClusterSpec(self.workers, standby=self.standby)

    def with_rate(self, rate: float) -> "ExperimentSpec":
        """The same experiment at a different constant offered load."""
        return replace(self, profile=float(rate))

    def with_seed(self, seed: int) -> "ExperimentSpec":
        return replace(self, seed=seed)

    def label(self) -> str:
        profile = self.rate_profile()
        if isinstance(profile, ConstantRate):
            load = f"{profile.rate / 1e6:.3f} M/s"
        else:
            load = type(profile).__name__
        return (
            f"{self.engine}/{self.workers}w/{self.query.kind}@{load}"
        )


def run_experiment(
    spec: ExperimentSpec,
    driver_hook: Optional[Callable[["BenchmarkDriver"], None]] = None,
) -> TrialResult:
    """Build the full stack for ``spec``, run it, return the result.

    ``driver_hook`` (if given) is called with the assembled
    :class:`BenchmarkDriver` just before the trial runs -- the seam the
    trial watchdog uses to install itself on the driver side without
    the engine ever seeing it.
    """
    sim = Simulator()
    rng = RngRegistry(seed=spec.seed)
    cluster = spec.cluster()
    plane = DataPlane(sim)
    resources = (
        ResourceMonitor(sim, cluster)
        if spec.monitor_resources
        else None
    )
    profile = spec.rate_profile()
    observability = spec.observability
    if spec.autoscale is not None and observability is None:
        # The autoscaler reads obs-registry samples; a trial that asks
        # for it without tracing gets metrics-only observability.
        observability = ObsSpec()
    obs = ObsContext.build(sim, observability)
    generators = build_generator_fleet(
        sim=sim,
        profile=profile,
        query=spec.query,
        rng_streams=[
            rng.stream(f"generator-{i}") for i in range(spec.generator.instances)
        ],
        config=spec.generator,
        horizon_s=spec.duration_s,
        sampler=obs.sampler if obs is not None else None,
    )
    sut_queues = None
    brokers = []
    if spec.broker:
        # Interpose the mediator: generators push into broker stages,
        # the SUT reads from the brokers' downstream queues.
        downstreams = []
        for generator in generators:
            downstream = DriverQueue(
                name=f"{generator.queue.name}-sut",
                capacity_weight=generator.queue.capacity_weight,
            )
            stage = BrokerStage(
                sim=sim,
                downstream=downstream,
                share=1.0 / len(generators),
            )
            generator.queue = stage  # type: ignore[assignment]
            brokers.append(stage)
            downstreams.append(downstream)
        sut_queues = QueueSet(downstreams)
    faults = spec.faults
    if faults is not None:
        faults.validate_against(spec.duration_s)
    checkpoint = spec.checkpoint
    if checkpoint is None and faults is not None:
        checkpoint = CheckpointSpec()
    engine_cls = engine_class(spec.engine)
    engine = engine_cls(
        sim=sim,
        cluster=cluster,
        query=spec.query,
        plane=plane,
        rng=rng.stream(f"engine-{spec.engine}"),
        resources=resources,
        config=spec.engine_config,
        checkpoint=checkpoint,
        obs=obs,
        reschedule=spec.reschedule,
        degradation=spec.degradation,
    )
    if faults is not None:
        for event in faults.ordered():
            if not event.driver_side:
                sim.schedule_at(event.at_s, engine.inject_fault, event)
    skew = (
        SkewModel.build(
            spec.clock_skew,
            rng=rng.stream("clocks"),
            instances=spec.generator.instances,
        )
        if spec.clock_skew is not None
        else None
    )
    driver = BenchmarkDriver(
        sim=sim,
        engine=engine,
        generators=generators,
        duration_s=spec.duration_s,
        queues=sut_queues,
        keep_outputs=spec.keep_outputs,
        obs=obs,
        skew=skew,
        judged_by=spec.judged_by,
    )
    if faults is not None:
        # Driver-side faults route to the driver, not the engine: the
        # SUT never learns its instrument is being injured.
        for event in faults.ordered():
            if event.driver_side:
                sim.schedule_at(event.at_s, driver.inject_fault, event)
    detection = None
    if spec.detector is not None:
        # Built after the engine's fault injections are scheduled so
        # the plane's same-timestamp handlers fire after them (the
        # simulator preserves insertion order on ties) and can read the
        # engine-derived pause from the fault log.  The plane draws
        # only from its own name-keyed RNG stream, so enabling it never
        # perturbs generator or engine randomness.
        detection = DetectionPlane(
            sim=sim,
            engine=engine,
            kind=spec.detector,
            schedule=faults,
            rng=rng.stream("detect"),
            duration_s=spec.duration_s,
        )
        detection.install()
    autoscaler = None
    if spec.autoscale is not None:
        assert obs is not None  # guaranteed by the ObsSpec fallback above
        autoscaler = Autoscaler(engine, obs.registry, spec.autoscale)
        autoscaler.install()
    if driver_hook is not None:
        driver_hook(driver)
    result = driver.run()
    for stage in brokers:
        stage.stop()
    if resources is not None:
        resources.stop()
    if faults is not None:
        fault_log = list(engine.fault_log) + list(driver.fault_log)
        result.recovery = compute_recovery_metrics(result, fault_log)
        if result.observability is not None and result.recovery:
            # Recovery metrology is computed driver-side after the run;
            # fold its milestones back into the observability timeline
            # so traces alive through an outage carry them.
            for event in recovery_timeline_events(result.recovery):
                result.observability.trace_log.add_event(**event)
            result.observability.trace_log.annotate()
    if autoscaler is not None:
        autoscaler.finalize(spec.duration_s)
        lag = obs.registry.series.get("driver.watermark_lag_s")
        result.autoscale = compute_rescale_metrics(
            engine.rescale_log,
            lag.times if lag is not None else [],
            lag.values if lag is not None else [],
            spec.duration_s,
        )
        result.diagnostics.update(autoscaler.diagnostics())
        if result.observability is not None and result.autoscale:
            for event in rescale_timeline_events(result.autoscale):
                result.observability.trace_log.add_event(**event)
            result.observability.trace_log.annotate()
    if detection is not None:
        result.detection = detection.finalize(result)
        result.diagnostics.update(detection.diagnostics())
    if skew is not None and result.observability is not None:
        # NTP sync epochs as timeline annotations: a latency step that
        # coincides with a sync is a clock artifact, not a SUT event.
        for at_s in skew.sync_epochs(spec.duration_s):
            result.observability.trace_log.add_event("clock.sync", at_s)
        result.observability.trace_log.annotate()
    return result


def run_experiment_with_watchdog(
    spec: ExperimentSpec,
    watchdog: WatchdogSpec,
    run: Callable[..., TrialResult] = run_experiment,
    driver_hook: Optional[Callable[["BenchmarkDriver"], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> TrialResult:
    """Run one trial under the trial watchdog with retry/backoff.

    Each attempt installs a fresh :class:`TrialWatchdog` on the driver
    (via the same seam as ``driver_hook``, which still runs if given).
    An attempt aborted by the watchdog is retried up to
    ``watchdog.max_attempts`` total attempts with capped exponential
    backoff between them, bumping the seed per attempt (a deterministic
    stall replays bit-for-bit otherwise).  Per-attempt records are kept
    on the returned result (``result.attempts``) and summarised in its
    diagnostics -- a trial that needed three tries is a different
    measurement than one that passed first time, and the report must
    say so.
    """
    attempts: list = []
    result: Optional[TrialResult] = None
    for attempt in range(watchdog.max_attempts):
        attempt_spec = spec.with_seed(spec.seed + attempt) if attempt else spec
        dog = TrialWatchdog(watchdog)

        def hook(driver, dog=dog):
            dog.install(driver)
            if driver_hook is not None:
                driver_hook(driver)

        wall_start = time.monotonic()
        result = run(attempt_spec, driver_hook=hook)
        record = AttemptRecord(
            attempt=attempt,
            seed=attempt_spec.seed,
            wall_s=time.monotonic() - wall_start,
            outcome=dog.outcome(result),
            failure=result.failure,
        )
        attempts.append(record)
        if dog.tripped is None:
            break
        if attempt + 1 < watchdog.max_attempts:
            backoff = watchdog.backoff_s(attempt)
            record.backoff_s = backoff
            if backoff > 0:
                sleep(backoff)
    assert result is not None
    result.attempts = attempts
    result.diagnostics["watchdog.attempts"] = float(len(attempts))
    result.diagnostics["watchdog.retries"] = float(len(attempts) - 1)
    result.diagnostics["watchdog.tripped"] = (
        1.0 if attempts[-1].outcome in ("timeout", "stalled") else 0.0
    )
    return result


def runner_for(
    watchdog: Optional[WatchdogSpec] = None,
) -> Callable[[ExperimentSpec], TrialResult]:
    """The trial runner for an optional watchdog: plain, or wrapped.

    Built from module-level callables only, so the result is picklable
    and can be shipped to :mod:`repro.sched` worker processes (a lambda
    closing over the spec could not be).
    """
    if watchdog is None:
        return run_experiment
    return functools.partial(run_experiment_with_watchdog, watchdog=watchdog)
