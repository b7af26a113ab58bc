"""The generic engine interface and shared execution machinery.

The paper's future work calls for "a generic interface that users can
plug into any stream data processing system, in order to facilitate and
simplify benchmark SDPSs".  :class:`StreamingEngine` is that interface:
the driver only ever sees ``start`` / ``stop``, the failure flag, and
diagnostics -- every measurement happens outside the engine, at the
queues and the sink.

Shared machinery implemented here:

- the engine tick: every ``tick_interval_s`` the engine asks its
  backpressure mechanism for an ingest budget, converts it to bytes,
  asks the data plane for a grant (this is where network saturation
  binds), pulls records from the driver queues through the
  :class:`~repro.engines.operators.source.SourceSet`, and hands them to
  the engine-specific ``_process_batch``;
- JVM pause modelling (a seeded Poisson process of lognormal pauses)
  that suspends ingest and processing -- the source of the latency tails
  in Tables II/IV;
- CPU and network accounting into the resource monitor (Figure 10);
- state accounting against the engine's :class:`StateBackend`
  (Experiments 3 and 4).

Subclasses implement ``_capacity_events_per_s`` (usually delegated to
the calibrated cost model), the windowing pipeline -- ``_process_batch``
(blocks of cohorts) or, record-at-a-time, ``_process`` -- and
``_on_tick_end`` (window closing / job scheduling).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.autoscale.rescale import (
    STYLE_MICRO_BATCH,
    STYLE_REPARTITION,
    STYLE_SAVEPOINT,
    RescaleSemantics,
)
from repro.core.batch import (
    RecordBlock,
    left_sum,
    materialize_all,
    records_weight,
)
from repro.core.queues import QueueSet
from repro.core.records import PURCHASES, Record
from repro.engines.backpressure import BackpressureMechanism
from repro.engines.calibration import CostModel, cost_model_for
from repro.engines.operators.sink import Sink
from repro.engines.operators.source import SourceSet
from repro.engines.state import StateBackend, StatePolicy
from repro.obs.context import ObsContext
from repro.recovery.degradation import DegradationPolicy
from repro.recovery.reschedule import (
    MODE_NONE,
    MODE_STANDBY,
    ReschedulePolicy,
)
from repro.faults.checkpoint import CheckpointSpec, RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee, GuaranteeAccounting
from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    FaultEvent,
    FlappingNode,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import SutFailure
from repro.sim.network import DataPlane
from repro.sim.resources import ResourceMonitor
from repro.sim.simulator import PeriodicProcess, Simulator
from repro.workloads.events import (
    AGG_RESULT_BYTES,
    JOIN_RESULT_BYTES,
    event_bytes,
)
from repro.workloads.queries import Query, WindowedJoinQuery


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs common to all engines (Section VI-A: "Tuning the
    engines' configuration parameters is important to get a good
    performance for every system")."""

    tick_interval_s: float = 0.05
    buffer_seconds: float = 1.0
    """Internal buffer capacity expressed in seconds of processing
    capacity -- the paper's "buffer size" knob: small buffers lower
    processing-time latency but push queueing into the driver queues."""
    pipeline_delay_s: float = 0.05
    """Source-to-sink latency of an unloaded pipeline (serialization,
    hops)."""
    gc_rate_per_s: float = 0.02
    gc_pause_mean_s: float = 0.3
    gc_pause_sigma: float = 0.5
    """JVM pause process: Poisson arrivals, lognormal durations."""
    heap_fraction: float = 0.4
    emit_jitter_sigma: float = 0.0
    """Lognormal sigma of multiplicative jitter on window-emission
    delays (coordination noise; grows with cluster size for Storm)."""
    allowed_lateness_s: float = 0.0
    """Hold windows open this long past the watermark to admit
    out-of-order stragglers (the paper's future-work extension; honoured
    by the engines' window-close conditions).  Zero reproduces the
    paper's in-order setup exactly."""

    def with_overrides(self, **kwargs) -> "EngineConfig":
        return replace(self, **kwargs)


class StreamingEngine(ABC):
    """Abstract system under test.

    Lifecycle: construct -> ``start(queues, sink)`` -> (simulator runs;
    the engine ticks itself) -> ``stop()``.  A failure during the run
    (connection drop is raised at the queue; stalls and OOM inside the
    engine) sets :attr:`failure` and freezes the engine, and the driver
    reports the trial as failed.
    """

    name = "abstract"
    recovery_semantics = RecoverySemantics.CHECKPOINT_RESTORE
    """How this engine reconstructs state after losing a worker (drives
    the derived recovery pause, see :mod:`repro.faults.checkpoint`)."""
    default_guarantee = DeliveryGuarantee.EXACTLY_ONCE
    """Delivery guarantee in the engine's paper configuration; a trial
    can override it via ``CheckpointSpec(guarantee=...)``."""
    rescale = RescaleSemantics()
    """How this engine executes an elastic rescale (style of the cutover
    pause, provisioning lead time); engines override with their own
    semantics -- see :mod:`repro.autoscale.rescale`."""

    def __init__(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        query: Query,
        plane: DataPlane,
        rng: np.random.Generator,
        resources: Optional[ResourceMonitor] = None,
        config: Optional[EngineConfig] = None,
        checkpoint: Optional[CheckpointSpec] = None,
        obs: Optional["ObsContext"] = None,
        reschedule: Optional[ReschedulePolicy] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        self.sim = sim
        self.obs = obs
        self.cluster = cluster
        self.query = query
        self.plane = plane
        self.rng = rng
        self.resources = resources
        self.config = config or self.default_config()
        self.cost: CostModel = self._resolve_cost_model()
        self.state = StateBackend(
            cluster,
            StatePolicy(
                can_spill=self.supports_spill(),
                heap_fraction=self.config.heap_fraction,
            ),
        )
        self.sink: Optional[Sink] = None
        self.source: Optional[SourceSet] = None
        self.failure: Optional[SutFailure] = None
        self.ingested_weight = 0.0
        self._tick_ingest_weight = 0.0
        self._active_workers = cluster.workers
        self.state_lost_weight = 0.0
        self.checkpoint = checkpoint or CheckpointSpec()
        self._checkpoint_active = checkpoint is not None
        self.guarantee = (
            self.checkpoint.guarantee
            if self.checkpoint.guarantee is not None
            else self.default_guarantee
        )
        self.guarantees = GuaranteeAccounting(self.guarantee)
        self.fault_log: List[Dict[str, float]] = []
        # Recovery policies.  With no explicit policy and no standbys the
        # defaults reproduce the legacy PR 2 behaviour exactly: capacity
        # lost to a crash stays lost and killing the last worker is
        # fatal.  Provisioning standbys (ClusterSpec.standby or the
        # policy's own pool) switches the default to standby promotion.
        if reschedule is None:
            reschedule = ReschedulePolicy(
                standby_nodes=cluster.standby,
                mode=MODE_STANDBY if cluster.standby > 0 else MODE_NONE,
            )
        self.reschedule = reschedule
        # Spare machines may be declared on the cluster spec or on the
        # policy; the engine's live pool honours the larger claim.
        self._standbys_available = max(
            cluster.standby, reschedule.standby_nodes
        )
        self.standbys_promoted = 0
        self.degradation = degradation or self.default_degradation()
        self.shed_weight = 0.0
        self._ramp_from_s = -1.0
        self._dead_workers = 0
        self._slow_events: List[tuple] = []
        self._partition_until = -1.0
        self._last_checkpoint_s = 0.0
        self._ckpt_ingested_weight = 0.0
        self._checkpoints_completed = 0
        self._checkpoint_pause_total = 0.0
        self._recovery_pause_total = 0.0
        self._checkpoint_process: Optional[PeriodicProcess] = None
        self._tick_process: Optional[PeriodicProcess] = None
        self._paused_until = -1.0
        self.rescale_log: List[Dict[str, Any]] = []
        """One entry per elastic rescale event (decision, cutover, and
        completion fields are filled in as the event progresses)."""
        self._provisioning = 0
        self._retiring = 0
        self._rescale_busy_until = -1.0
        self._migration_until = -1.0
        self._rescale_pause_total = 0.0
        self._gray_abandoned: set = set()
        self._suspect_pause_total = 0.0
        self._suspect_migrations = 0
        self._hot_fraction = query.keys.hot_fraction()
        self._ingest_bytes_per_event = self._mean_event_bytes()
        self._result_bytes_per_output_weight = (
            JOIN_RESULT_BYTES
            if isinstance(query, WindowedJoinQuery)
            else AGG_RESULT_BYTES
        )
        self._last_state_bytes = 0.0

    # -- configuration hooks -------------------------------------------------

    @classmethod
    def default_config(cls) -> EngineConfig:
        return EngineConfig()

    @classmethod
    def default_degradation(cls) -> DegradationPolicy:
        """The engine's degradation behaviour when none is supplied.

        The base default is inert (no shedding, step re-admission) so
        plain trials keep the paper's binary failure rule; engines
        override :meth:`recommended_degradation` with their flavoured
        graceful-degradation settings, opted into by the chaos harness
        and the ``--shed`` CLI knobs.
        """
        return DegradationPolicy()

    @classmethod
    def recommended_degradation(cls) -> DegradationPolicy:
        """A sensible graceful-degradation configuration for this
        engine -- what a production deployment of it would run with.
        Engines tune the ramp to their scheduling granularity."""
        return DegradationPolicy(
            shed="oldest", max_queue_delay_s=5.0, readmission_ramp_s=2.0
        )

    def _resolve_cost_model(self) -> CostModel:
        """Look up this engine's performance characterisation.

        Custom engines (the paper's pluggable-SUT future work) either
        register a model via
        :func:`repro.engines.calibration.register_cost_model` or
        override this hook to return one directly.
        """
        return cost_model_for(self.name, self.query.kind)

    @classmethod
    def supports_spill(cls) -> bool:
        """Whether operator state can spill to disk (Experiment 3)."""
        return True

    @abstractmethod
    def _backpressure(self) -> BackpressureMechanism:
        """The engine's flow-control mechanism."""

    # -- lifecycle ------------------------------------------------------------

    def start(self, queues: QueueSet, sink: Sink) -> None:
        if self._tick_process is not None:
            raise RuntimeError(f"{self.name} engine already started")
        self.source = SourceSet(queues)
        self.sink = sink
        self._tick_process = self.sim.every(
            self.config.tick_interval_s, self._tick, start=self.sim.now
        )
        self._last_checkpoint_s = self.sim.now
        self._checkpoint_process = self.sim.every(
            self.checkpoint.interval_s,
            self._checkpoint_tick,
            start=self.sim.now + self.checkpoint.interval_s,
        )
        if self.obs is not None:
            self._bind_obs_gauges(self.obs.registry)

    def stop(self) -> None:
        if self._tick_process is not None:
            self._tick_process.stop()
            self._tick_process = None
        if self._checkpoint_process is not None:
            self._checkpoint_process.stop()
            self._checkpoint_process = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    # -- capacity -------------------------------------------------------------

    def _capacity_events_per_s(self) -> float:
        """Current CPU-bound ingest capacity (events/s).

        Applies the calibrated cost model, the key-skew slot bound
        (Experiment 4), and the state-pressure multiplier (spilling
        slows processing, Experiment 3).
        """
        base = self.cost.skew_capacity_events_per_s(
            self.cluster, self._hot_fraction
        )
        base *= self._active_workers / self.cluster.workers
        base *= self._slow_multiplier()
        return base / self.state.cost_multiplier

    def _slow_multiplier(self) -> float:
        """Capacity multiplier from live slow-node (straggler) faults."""
        if not self._slow_events:
            return 1.0
        now = self.sim.now
        live = [(until, m) for until, m in self._slow_events if now < until]
        self._slow_events = live
        multiplier = 1.0
        for _, m in live:
            multiplier *= m
        return multiplier

    def _mean_event_bytes(self) -> float:
        sizes = [event_bytes(stream) for stream in self.query.streams]
        return sum(sizes) / len(sizes)

    # -- the tick ------------------------------------------------------------

    def _tick(self, sim: Simulator) -> None:
        if self.failed:
            return
        dt = self.config.tick_interval_s
        try:
            if self._in_gc_pause(sim.now, dt):
                # The JVM is stopped: no ingest, no processing, no window
                # evaluation this tick.  The flow-control clock still
                # advances -- stall/off windows elapse in simulated time,
                # not in ticks-that-ran (the stall-accounting drift bug).
                self._backpressure().on_tick_end(sim.now)
                return
            capacity = self._capacity_events_per_s()
            assert self.source is not None
            if self.degradation.sheds:
                # Bounded-latency load shedding: before pulling, drop
                # queue backlog beyond what current capacity clears
                # within the policy's delay bound.  The shed weight
                # leaves through the driver queues' shed ledger -- it is
                # never ingested, so processing-side conservation is
                # untouched.
                excess = self.degradation.shed_excess(
                    self.source.backlog_weight, capacity
                )
                if excess > 0:
                    self.shed_weight += self.source.shed(
                        excess, drop_oldest=self.degradation.drop_oldest
                    )
            budget = self._backpressure().ingest_budget(
                dt=dt,
                capacity_events_per_s=capacity,
                buffered_events=self._internal_backlog_weight(),
                buffer_capacity_events=max(
                    capacity * self.config.buffer_seconds, 1.0
                ),
            )
            # Post-recovery admission control: re-admit ingest along the
            # policy's ramp instead of a step (1.0 outside a ramp).
            budget *= self.degradation.admission_fraction(
                sim.now, self._ramp_from_s
            )
            budget = self._modulate_ingest_budget(budget, dt)
            if sim.now < self._partition_until:
                # Network partition between queues and workers: no new
                # ingest, but buffered data keeps processing.
                budget = 0.0
            budget = self._apply_network_grant(budget)
            if budget > 0:
                blocks = self.source.pull_batch(budget, ingest_time=sim.now)
                if blocks:
                    self._account_ingest(blocks, dt)
                    self._process_batch(blocks, dt)
            self._on_tick_end(dt)
            self._backpressure().on_tick_end(sim.now)
        except SutFailure as failure:
            self._fail(failure)

    def _fail(self, failure: SutFailure) -> None:
        if self.failure is None:
            self.failure = failure
        self.stop()

    def _apply_network_grant(self, budget_events: float) -> float:
        """Convert the ingest budget to bytes and ask the data plane.

        This is where Flink's aggregation throughput flattens at
        ~1.2 M events/s: CPU would allow more, the wire does not.
        """
        if budget_events <= 0:
            return 0.0
        wanted_bytes = budget_events * self._ingest_bytes_per_event
        granted_bytes = self.plane.allocate(wanted_bytes, kind="ingest")
        return granted_bytes / self._ingest_bytes_per_event

    def _account_ingest(self, blocks: List[RecordBlock], dt: float) -> None:
        # The tick's one ingest fold (strict, left, over the cohort
        # sequence of the blocks); a `_process_batch` that needs the
        # batch total (Storm) reads it back.
        weight = self._tick_ingest_weight = records_weight(blocks)
        self.ingested_weight += weight
        if self.resources is not None:
            core_seconds = weight * self.cost.total_cost_us / 1e6
            self.resources.add_cpu(core_seconds)
            self.resources.add_network(weight * self._ingest_bytes_per_event)

    def _account_emission(self, output_weight: float) -> None:
        if output_weight <= 0:
            return
        result_bytes = output_weight * self._result_bytes_per_output_weight
        self.plane.allocate(result_bytes, kind="result")
        if self.resources is not None:
            self.resources.add_network(result_bytes)

    def _update_state_usage(self, stored_weight: float) -> None:
        """Reconcile the state backend with the current buffered volume."""
        target = stored_weight * self.cost.state_bytes_per_event
        delta = target - self._last_state_bytes
        if delta > 0:
            self.state.charge(delta, at_time=self.sim.now)
        elif delta < 0:
            self.state.release(-delta)
        self._last_state_bytes = target

    # -- checkpointing ----------------------------------------------------------

    def _checkpoint_tick(self, sim: Simulator) -> None:
        """Complete one checkpoint: snapshot the replay frontier and --
        when the trial opted into the fault-tolerance model -- pause the
        pipeline for the checkpoint's synchronous part.

        The bookkeeping (replay frontier) always runs so that replay
        spans stay bounded by the interval even for engines constructed
        without an explicit :class:`CheckpointSpec`; only the pause is
        gated, keeping non-fault trials' numerics untouched.
        """
        if self.failed:
            return
        self._last_checkpoint_s = sim.now
        self._ckpt_ingested_weight = self.ingested_weight
        if (
            self._checkpoint_active
            and self.recovery_semantics is RecoverySemantics.CHECKPOINT_RESTORE
        ):
            self._checkpoints_completed += 1
            pause = self.checkpoint.sync_pause_s(self.state.used_bytes)
            self._checkpoint_pause_total += pause
            self._paused_until = max(self._paused_until, sim.now + pause)

    # -- fault injection --------------------------------------------------------

    def inject_fault(self, event: FaultEvent) -> None:
        """Apply one scheduled fault event to the running engine.

        Dispatches on the event type; every application appends an entry
        to :attr:`fault_log` (kind, time, derived pause, guarantee
        accounting) that the driver-side recovery metrology consumes.
        """
        if self.failed:
            return
        if isinstance(event, NodeCrash):
            self._apply_crash(event.nodes)
        elif isinstance(event, ProcessRestart):
            self._apply_restart(event.nodes)
        elif isinstance(event, SlowNode):
            self._apply_slow(event.nodes, event.factor, event.duration_s)
        elif isinstance(event, NetworkPartition):
            self._apply_partition(event.duration_s)
        elif isinstance(event, QueueDisconnect):
            self._apply_disconnect(event.queue_index, event.duration_s)
        elif isinstance(event, FlappingNode):
            self._apply_flap(event)
        elif isinstance(event, DegradingNode):
            self._apply_degrade(event)
        elif isinstance(event, AsymmetricPartition):
            self._apply_asympart(event)
        else:  # pragma: no cover - schedule validation prevents this
            raise TypeError(f"unknown fault event {type(event).__name__}")

    def _apply_crash(self, nodes: int) -> None:
        """Lose ``nodes`` workers: the engine's :class:`ReschedulePolicy`
        decides where their operator slots land (standby promotion,
        spreading over survivors, or -- the legacy policy -- nowhere),
        the engine pauses for the derived recovery time plus any state
        migration, and the delivery guarantee decides the fate of the
        exposed data.  Losing the last placement target (no survivors
        and no standbys) is the one unrecoverable outcome."""
        if self.failed or nodes <= 0:
            return
        active = self._active_workers
        kill = min(nodes, active)
        plan = self.reschedule.plan_crash(
            kill=kill,
            active=active,
            standbys_left=self._standbys_available,
            state_bytes=self.state.used_bytes,
            node=self.cluster.node,
        )
        if plan.fatal:
            # No survivors and no standbys: the trial fails -- but the
            # fatal fault is accounted and logged FIRST so the failed
            # TrialResult keeps its diagnostics (guarantee accounting,
            # recovery counters) instead of losing the fault entirely.
            exposed = self._on_node_failure(1.0)
            lost, dup = self.guarantees.on_fault(max(0.0, exposed))
            self.state_lost_weight += lost
            self._dead_workers += kill
            self._active_workers = 0
            self._log_fault(
                "crash",
                pause_s=0.0,
                detection_s=self.checkpoint.detection_timeout_s,
                exposed_weight=max(0.0, exposed),
                lost_weight=lost,
                duplicated_weight=dup,
                fatal=1.0,
            )
            self._fail(
                SutFailure(
                    f"{self.name}: node crash killed all "
                    f"{active} remaining workers and the "
                    f"{self.reschedule.mode!r} reschedule policy has no "
                    "standby to promote",
                    at_time=self.sim.now,
                )
            )
            return
        lost_fraction = kill / active
        self._active_workers -= kill
        self._dead_workers += kill
        exposed = self._on_node_failure(lost_fraction)
        lost, dup = self.guarantees.on_fault(max(0.0, exposed))
        self.state_lost_weight += lost
        pause = self._recovery_pause_s(lost_fraction) + plan.migration_pause_s
        self._pause_for_recovery(pause)
        extra: Dict[str, float] = {}
        if plan.promoted:
            # Promotion completes when the pause (restore + migration)
            # ends; until then the standby is warming up and contributes
            # no capacity.
            self._standbys_available -= plan.promoted
            self.sim.schedule(pause, self._promote_standbys, plan.promoted)
            extra["promoted"] = float(plan.promoted)
        if plan.migrated_bytes > 0:
            extra["migrated_bytes"] = plan.migrated_bytes
            extra["migration_s"] = plan.migration_pause_s
        self._log_fault(
            "crash",
            pause_s=pause,
            detection_s=self.checkpoint.detection_timeout_s,
            exposed_weight=max(0.0, exposed),
            lost_weight=lost,
            duplicated_weight=dup,
            **extra,
        )

    def _apply_restart(self, nodes: int) -> None:
        """Bounce ``nodes`` worker processes: the capacity loss is
        temporary (the supervisor restarts them after the derived
        recovery pause), but the state consequences are the same as a
        crash -- in-memory state on the bounced workers is gone."""
        if self.failed or nodes <= 0:
            return
        if nodes >= self._active_workers:
            # Bouncing every remaining worker leaves nothing supervising
            # the restart: fatal under any policy.  Account and log the
            # fault first so the failed trial keeps its diagnostics.
            active = self._active_workers
            exposed = self._on_node_failure(1.0)
            lost, dup = self.guarantees.on_fault(max(0.0, exposed))
            self.state_lost_weight += lost
            self._log_fault(
                "restart",
                pause_s=0.0,
                detection_s=self.checkpoint.detection_timeout_s,
                exposed_weight=max(0.0, exposed),
                lost_weight=lost,
                duplicated_weight=dup,
                fatal=1.0,
            )
            self._fail(
                SutFailure(
                    f"{self.name}: process restart bounced all "
                    f"{active} remaining workers",
                    at_time=self.sim.now,
                )
            )
            return
        lost_fraction = nodes / self._active_workers
        self._active_workers -= nodes
        exposed = self._on_node_failure(lost_fraction)
        lost, dup = self.guarantees.on_fault(max(0.0, exposed))
        self.state_lost_weight += lost
        pause = self._recovery_pause_s(lost_fraction)
        self._pause_for_recovery(pause)
        self.sim.schedule(pause, self._restore_workers, nodes)
        self._log_fault(
            "restart",
            pause_s=pause,
            detection_s=self.checkpoint.detection_timeout_s,
            exposed_weight=max(0.0, exposed),
            lost_weight=lost,
            duplicated_weight=dup,
        )

    def _apply_slow(self, nodes: int, factor: float, duration_s: float) -> None:
        """Degrade ``nodes`` workers to ``factor`` of their capacity for
        ``duration_s`` (straggler; no state is lost, no pause served).

        The reschedule policy may replace detected stragglers with
        standbys: a straggler outlasting the failure detector is
        abandoned once its state has migrated to the promoted spare, so
        its slowdown ends at detection + migration instead of running
        the full fault duration.  Stragglers below the detection timeout
        are never migrated -- the fault clears before anyone notices.
        """
        if self.failed or nodes <= 0:
            return
        nodes = min(nodes, self._active_workers)
        if nodes <= 0:
            return
        active = self._active_workers
        plan = self.reschedule.plan_straggler(
            nodes=nodes,
            duration_s=duration_s,
            standbys_left=self._standbys_available,
            state_bytes=self.state.used_bytes,
            active=active,
            node=self.cluster.node,
        )
        replaced = plan.promoted
        riding = nodes - replaced
        if riding > 0:
            multiplier = (active - riding + riding * factor) / active
            self._slow_events.append(
                (self.sim.now + duration_s, multiplier)
            )
        extra: Dict[str, float] = {}
        if replaced > 0:
            # The replaced stragglers stay slow until the detector fires
            # and the migration lands, whichever view of the fault ends
            # first; the spare is consumed permanently.
            self._standbys_available -= replaced
            self.standbys_promoted += replaced
            handoff_s = min(
                duration_s,
                self.reschedule.detection_timeout_s + plan.migration_pause_s,
            )
            multiplier = (active - replaced + replaced * factor) / active
            self._slow_events.append(
                (self.sim.now + handoff_s, multiplier)
            )
            extra["promoted"] = float(replaced)
            extra["migrated_bytes"] = plan.migrated_bytes
            extra["migration_s"] = plan.migration_pause_s
        self._log_fault("slow", pause_s=0.0, **extra)

    def _apply_partition(self, duration_s: float) -> None:
        """Cut the network between the driver queues and the workers:
        ingest stops for ``duration_s`` while processing of already
        buffered data continues."""
        if self.failed:
            return
        self._partition_until = max(
            self._partition_until, self.sim.now + duration_s
        )
        self._log_fault("partition", pause_s=0.0)

    def _apply_disconnect(self, queue_index: int, duration_s: float) -> None:
        """Disconnect one driver queue from the source operators; its
        partition backlogs and the watermark stalls until reconnect."""
        if self.failed or self.source is None:
            return
        self.source.disconnect(queue_index, until=self.sim.now + duration_s)
        self._log_fault("disconnect", pause_s=0.0)

    def _apply_flap(self, event: FlappingNode) -> None:
        """Worker ``event.node`` oscillates: during each seeded down
        segment the node contributes no capacity (like a transient
        one-node outage); between segments it is fully back.  No state
        is exposed -- the process survives, its machine just blinks.
        The heartbeat consequences live in :mod:`repro.detect`; here
        only capacity is modulated, via the same ``_slow_events``
        mechanism as stragglers."""
        if self.failed:
            return
        segments = event.down_segments()
        for start, end in segments:
            self.sim.schedule_at(start, self._gray_segment, event.node, end, 0.0)
        self._log_fault(
            "flap",
            pause_s=0.0,
            node=float(event.node),
            segments=float(len(segments)),
            duration_s=event.duration_s,
        )

    def _apply_degrade(self, event: DegradingNode) -> None:
        """Fail-slow on ``event.node``: capacity ramps down the
        piecewise-constant schedule of ``event.segments()``.  Unlike
        :class:`SlowNode` there is no supervisor-driven standby
        replacement here -- a ramping gray fault is exactly what the
        fixed-timeout supervisor cannot see; only a detection-plane
        verdict (``apply_suspect_migration``) can end it early."""
        if self.failed:
            return
        for start, end, factor in event.segments():
            self.sim.schedule_at(
                start, self._gray_segment, event.node, end, factor
            )
        self._log_fault(
            "degrade",
            pause_s=0.0,
            node=float(event.node),
            floor_factor=event.floor_factor,
            duration_s=event.duration_s,
        )

    def _apply_asympart(self, event: AsymmetricPartition) -> None:
        """One-way link loss on ``event.node``.  The ``data`` direction
        cuts the node's ingest (it contributes no capacity for the
        window, like a one-node partition); the ``heartbeat`` direction
        is invisible to the data plane entirely -- its only effects are
        control-plane (:mod:`repro.detect`)."""
        if self.failed:
            return
        if event.direction == "data":
            self.sim.schedule_at(
                event.at_s, self._gray_segment, event.node, event.end_s, 0.0
            )
        self._log_fault(
            "asympart",
            pause_s=0.0,
            node=float(event.node),
            data_cut=1.0 if event.direction == "data" else 0.0,
            duration_s=event.duration_s,
        )

    def _gray_segment(self, node: int, until: float, factor: float) -> None:
        """One gray capacity segment begins on ``node``: the node runs
        at ``factor`` of its speed until ``until`` (0.0 = down).
        Skipped once the node has been migrated away on a detector
        verdict -- an abandoned node degrades nothing.  A segment
        already in effect when the node is abandoned runs out on its
        own (bounded by the segment length); only future segments are
        cancelled."""
        if self.failed or node in self._gray_abandoned:
            return
        active = self._active_workers
        if active <= 0:
            return
        multiplier = max(0.0, (active - 1 + factor) / active)
        self._slow_events.append((until, multiplier))

    def apply_suspect_migration(
        self, node: int, *, spurious: bool
    ) -> Optional[Dict[str, float]]:
        """A failure detector convicted live worker ``node``: evict it.

        This is the verdict-to-action seam of :mod:`repro.detect`.  The
        scheduler cannot distinguish a true conviction from a false
        positive, so the cost is identical either way: the suspect's
        state moves over the NIC (``ReschedulePolicy.plan_suspect``)
        onto a promoted standby when one is available -- else spread
        over the survivors, shrinking the cluster by one -- and the
        pipeline pauses for the migration.  ``spurious`` is carried
        into the fault log purely as metrology (the plane's ground
        truth); it never changes behaviour.  Returns None (and does
        nothing) when the policy declines to act.
        """
        if self.failed or self._active_workers <= 0:
            return None
        active = self._active_workers
        plan = self.reschedule.plan_suspect(
            active=active,
            standbys_left=self._standbys_available,
            state_bytes=self.state.used_bytes,
            node=self.cluster.node,
        )
        if plan.promoted == 0 and plan.survivors == active:
            return None
        self._gray_abandoned.add(node)
        if plan.promoted:
            # The spare takes the suspect's slots once the migration
            # lands: headcount is unchanged, only the pause is paid.
            self._standbys_available -= plan.promoted
            self.standbys_promoted += plan.promoted
        else:
            self._active_workers -= 1
            self._dead_workers += 1
        pause = plan.migration_pause_s
        self._suspect_migrations += 1
        self._pause_for_suspect(pause)
        self._log_fault(
            "suspect",
            pause_s=pause,
            node=float(node),
            spurious=1.0 if spurious else 0.0,
            promoted=float(plan.promoted),
            migrated_bytes=plan.migrated_bytes,
            migration_s=plan.migration_pause_s,
        )
        return {
            "pause_s": pause,
            "promoted": float(plan.promoted),
            "migrated_bytes": plan.migrated_bytes,
        }

    def _pause_for_suspect(self, pause: float) -> None:
        """Suspend processing for a detector-driven eviction.  Billed
        apart from both fault recovery and rescales so spurious verdict
        cost is visible on its own line."""
        if pause <= 0:
            return
        self._suspect_pause_total += pause
        self._paused_until = max(self._paused_until, self.sim.now + pause)
        self._ramp_from_s = max(self._ramp_from_s, self._paused_until)

    def _restore_workers(self, nodes: int) -> None:
        if self.failed:
            return
        ceiling = self.cluster.workers - self._dead_workers
        self._active_workers = min(self._active_workers + nodes, ceiling)

    def _promote_standbys(self, nodes: int) -> None:
        """A standby finishes warming up: it takes over a dead node's
        slots, so the dead count drops and capacity returns (bounded by
        the nominal worker count -- spares replace, they never add)."""
        if self.failed:
            return
        promote = min(nodes, self._dead_workers)
        if promote <= 0:
            return
        self._dead_workers -= promote
        self.standbys_promoted += promote
        ceiling = self.cluster.workers - self._dead_workers
        self._active_workers = min(self._active_workers + promote, ceiling)

    def _pause_for_recovery(self, pause: float) -> None:
        self._recovery_pause_total += pause
        self._paused_until = max(self._paused_until, self.sim.now + pause)
        # Anchor the post-recovery admission ramp at the pause end (the
        # latest one, if pauses overlap).  Inert policies ignore it.
        self._ramp_from_s = max(self._ramp_from_s, self._paused_until)

    def _recovery_pause_s(self, lost_fraction: float) -> float:
        """The processing outage for one crash/restart, derived from
        the checkpoint model and this engine's recovery semantics."""
        return self.checkpoint.recovery_pause_s(
            self.recovery_semantics,
            state_bytes=self.state.used_bytes,
            node=self.cluster.node,
            active_workers=self._active_workers,
            workers=self.cluster.workers,
            replay_span_s=max(0.0, self.sim.now - self._last_checkpoint_s),
            lost_fraction=lost_fraction,
        )

    # -- elastic rescale --------------------------------------------------------

    @property
    def active_workers(self) -> int:
        """Workers currently serving (dead and draining nodes excluded
        once their departure completes)."""
        return self._active_workers

    @property
    def standbys_available(self) -> int:
        """Hot spares currently idle in the pool."""
        return self._standbys_available

    @property
    def target_workers(self) -> int:
        """The cluster size all in-flight rescales are steering toward
        (what policy bounds must be checked against)."""
        return self.cluster.workers + self._provisioning - self._retiring

    @property
    def billed_nodes(self) -> int:
        """Machines currently costing money: serving workers, idle hot
        spares, and nodes already provisioning toward a scale-out.
        Draining scale-in victims keep billing until they depart."""
        return (
            self._active_workers + self._standbys_available + self._provisioning
        )

    def request_scale_out(
        self, nodes: int, *, reason: str = "policy", detect_s: float = 0.0
    ) -> Optional[Dict[str, Any]]:
        """Begin adding ``nodes`` workers; returns the rescale-log entry
        or None when refused (engine failed, or a rescale in flight).

        Capacity comes from the standby pool first (hot spares skip the
        cold-boot lead time); the remainder cold-boots for
        ``rescale.provision_s``.  At cutover the new owners' share of
        keyed state migrates over their NICs and the engine pays its
        style pause; capacity is online when both complete.
        """
        if self.failed or nodes <= 0:
            return None
        now = self.sim.now
        if now < self._rescale_busy_until:
            return None
        spares = min(nodes, self._standbys_available)
        lead = self.rescale.lead_s(cold=nodes - spares)
        self._standbys_available -= spares
        self._provisioning += nodes
        entry: Dict[str, Any] = {
            "kind": "scale-out",
            "decided_at_s": now,
            "delta": float(nodes),
            "from_workers": float(self.cluster.workers),
            "to_workers": float(self.cluster.workers + nodes),
            "detect_s": float(detect_s),
            "reason": reason,
            "spares_used": float(spares),
            "provision_s": lead,
        }
        self.rescale_log.append(entry)
        self._rescale_busy_until = now + lead
        if self.obs is not None:
            self.obs.add_event(
                "autoscale.scale-out", now, delta=float(nodes), reason=reason
            )
        self.sim.schedule(lead, self._cutover_scale_out, nodes, entry)
        return entry

    def _cutover_scale_out(self, nodes: int, entry: Dict[str, Any]) -> None:
        if self.failed:
            self._provisioning -= nodes
            return
        now = self.sim.now
        moved_fraction = nodes / (self.cluster.workers + nodes)
        migrated = max(0.0, self.state.used_bytes) * moved_fraction
        migration_s = self.reschedule.migration_pause_s(
            migrated, self.cluster.node, nodes
        )
        style_s = self._rescale_style_pause_s(migrated)
        pause = style_s + migration_s
        exposed = self._rescale_exposed_weight(moved_fraction)
        lost, dup = self.guarantees.on_fault(max(0.0, exposed))
        self.state_lost_weight += lost
        self._pause_for_rescale(pause)
        self._migration_until = max(self._migration_until, now + pause)
        self._rescale_busy_until = max(self._rescale_busy_until, now + pause)
        entry.update(
            cutover_at_s=now,
            migrated_bytes=migrated,
            migration_s=migration_s,
            style_pause_s=style_s,
            pause_s=pause,
            exposed_weight=max(0.0, exposed),
            lost_weight=lost,
            duplicated_weight=dup,
        )
        self.sim.schedule(pause, self._complete_scale_out, nodes, entry)

    def _complete_scale_out(self, nodes: int, entry: Dict[str, Any]) -> None:
        self._provisioning -= nodes
        if self.failed:
            return
        self.cluster = self.cluster.with_workers(self.cluster.workers + nodes)
        self._active_workers += nodes
        entry["online_at_s"] = self.sim.now
        if self.obs is not None:
            self.obs.add_event(
                "autoscale.capacity-online",
                self.sim.now,
                workers=float(self._active_workers),
            )

    def request_scale_in(
        self, nodes: int, *, reason: str = "policy", detect_s: float = 0.0
    ) -> Optional[Dict[str, Any]]:
        """Begin removing ``nodes`` workers; returns the rescale-log
        entry or None when refused.

        Refusal cases enforce the scale-in safety invariant: never while
        an earlier migration is still in flight (a victim might hold
        un-migrated state), never the last active worker.  Idle standbys
        are returned *first* -- they cost node-seconds but hold no state,
        so releasing them needs no migration at all; only the remainder
        drains actives through :meth:`ReschedulePolicy.plan_scale_in`.
        """
        if self.failed or nodes <= 0:
            return None
        now = self.sim.now
        if now < self._rescale_busy_until or now < self._migration_until:
            return None
        spares = min(nodes, self._standbys_available)
        victims = min(nodes - spares, self._active_workers - 1)
        if spares <= 0 and victims <= 0:
            return None
        self._standbys_available -= spares
        entry: Dict[str, Any] = {
            "kind": "scale-in",
            "decided_at_s": now,
            "delta": -float(spares + victims),
            "from_workers": float(self.cluster.workers),
            "to_workers": float(self.cluster.workers - victims),
            "detect_s": float(detect_s),
            "reason": reason,
            "spares_returned": float(spares),
            "provision_s": 0.0,
        }
        if victims <= 0:
            # Pure spare return: no state moves, no pause, done now.
            entry.update(
                cutover_at_s=now,
                migrated_bytes=0.0,
                migration_s=0.0,
                style_pause_s=0.0,
                pause_s=0.0,
                exposed_weight=0.0,
                lost_weight=0.0,
                duplicated_weight=0.0,
                online_at_s=now,
            )
            self.rescale_log.append(entry)
            if self.obs is not None:
                self.obs.add_event(
                    "autoscale.scale-in", now, delta=-float(spares),
                    reason=reason,
                )
            return entry
        plan = self.reschedule.plan_scale_in(
            remove=victims,
            active=self._active_workers,
            state_bytes=self.state.used_bytes,
            node=self.cluster.node,
        )
        moved_fraction = victims / self._active_workers
        style_s = self._rescale_style_pause_s(plan.migrated_bytes)
        pause = style_s + plan.migration_pause_s
        exposed = self._rescale_exposed_weight(moved_fraction)
        lost, dup = self.guarantees.on_fault(max(0.0, exposed))
        self.state_lost_weight += lost
        self._pause_for_rescale(pause)
        self._migration_until = max(self._migration_until, now + pause)
        self._rescale_busy_until = max(self._rescale_busy_until, now + pause)
        self._retiring += victims
        entry.update(
            cutover_at_s=now,
            migrated_bytes=plan.migrated_bytes,
            migration_s=plan.migration_pause_s,
            style_pause_s=style_s,
            pause_s=pause,
            exposed_weight=max(0.0, exposed),
            lost_weight=lost,
            duplicated_weight=dup,
        )
        self.rescale_log.append(entry)
        if self.obs is not None:
            self.obs.add_event(
                "autoscale.scale-in", now, delta=entry["delta"], reason=reason
            )
        self.sim.schedule(pause, self._complete_scale_in, victims, entry)
        return entry

    def _complete_scale_in(self, victims: int, entry: Dict[str, Any]) -> None:
        self._retiring -= victims
        if self.failed:
            return
        # A crash may have raced the drain; never depart below one
        # active worker however the interleaving went.
        victims = min(victims, self._active_workers - 1, self.cluster.workers - 1)
        if victims <= 0:
            entry["online_at_s"] = self.sim.now
            return
        self._active_workers -= victims
        self.cluster = self.cluster.with_workers(self.cluster.workers - victims)
        entry["online_at_s"] = self.sim.now
        if self.obs is not None:
            self.obs.add_event(
                "autoscale.departed",
                self.sim.now,
                workers=float(self._active_workers),
            )

    def _rescale_style_pause_s(self, migrated_bytes: float) -> float:
        """The engine-style component of the cutover pause (the state
        migration itself is priced separately, by the reschedule
        policy's NIC math)."""
        style = self.rescale.style
        if style == STYLE_MICRO_BATCH:
            # The next micro-batch plans on the new cluster; nothing to
            # pause.
            return 0.0
        if style == STYLE_SAVEPOINT:
            # Aligned savepoint over the whole state, then restart at
            # the new parallelism.
            return self.checkpoint.sync_pause_s(self.state.used_bytes)
        if style == STYLE_REPARTITION:
            # Changelog flush for the moved tasks only.
            return self.checkpoint.sync_pause_s(migrated_bytes)
        # STYLE_REBALANCE: a planned in-flight rebalance briefly halts
        # the topology; far cheaper than the crash-recovery rebalance
        # but it grows with topology size the same way.
        return (
            0.25
            * self.checkpoint.rebalance_base_s
            * math.sqrt(max(1.0, self._active_workers) / 2.0)
        )

    def _rescale_exposed_weight(self, moved_fraction: float) -> float:
        """Weight whose delivery is endangered by moving
        ``moved_fraction`` of the keyed state during a rescale.

        Default: none -- snapshot-based styles (savepoint, micro-batch)
        move state intact under exactly-once semantics.  At-most-once
        rebalancers and at-least-once repartitioners override this; the
        returned weight is fed through the same
        :class:`GuaranteeAccounting` as fault exposure, so the delivery
        ledger stays balanced through every scale event.
        """
        return 0.0

    def _pause_for_rescale(self, pause: float) -> None:
        """Suspend processing for a rescale cutover.  Accounted apart
        from fault recovery (``_recovery_pause_total``) so recovery
        metrology never conflates a planned pause with a failure."""
        if pause <= 0:
            return
        self._rescale_pause_total += pause
        self._paused_until = max(self._paused_until, self.sim.now + pause)
        self._ramp_from_s = max(self._ramp_from_s, self._paused_until)

    def _log_fault(self, kind: str, **fields: float) -> None:
        entry: Dict[str, float] = {"kind": kind, "at_s": self.sim.now}  # type: ignore[dict-item]
        entry.update(fields)
        self.fault_log.append(entry)
        if self.obs is not None:
            # Mirror every injected fault onto the observability
            # timeline so traces alive at that moment are annotated
            # with it; a recovery pause additionally marks when
            # processing resumes.
            self.obs.add_event(f"fault.{kind}", self.sim.now, **fields)
            pause = fields.get("pause_s", 0.0)
            if pause > 0:
                self.obs.add_event(
                    "recovery.resume", self.sim.now + pause, cause=kind
                )

    def _on_node_failure(self, lost_fraction: float) -> float:
        """State consequences of losing workers; returns the *exposed*
        weight whose fate the delivery guarantee decides.

        Default (checkpoint-restore engines): the replay window -- all
        weight ingested since the last completed checkpoint.
        """
        return max(0.0, self.ingested_weight - self._ckpt_ingested_weight)

    # -- JVM pauses ------------------------------------------------------------

    def _in_gc_pause(self, now: float, dt: float) -> bool:
        if now < self._paused_until:
            return True
        if self.config.gc_rate_per_s <= 0:
            return False
        if self.rng.random() < self.config.gc_rate_per_s * dt:
            mean = self.config.gc_pause_mean_s
            sigma = self.config.gc_pause_sigma
            # Lognormal with the configured mean: mu = ln(mean) - sigma^2/2.
            mu = np.log(max(mean, 1e-6)) - sigma**2 / 2.0
            pause = float(self.rng.lognormal(mu, sigma))
            self._paused_until = now + pause
            return True
        return False

    def _emit_jitter(self) -> float:
        """Multiplicative jitter applied to window-emission delays."""
        sigma = self.config.emit_jitter_sigma
        if sigma <= 0:
            return 1.0
        return float(self.rng.lognormal(-(sigma**2) / 2.0, sigma))

    # -- engine-specific hooks -------------------------------------------------

    def _internal_backlog_weight(self) -> float:
        """Events buffered inside the engine (drives throttling)."""
        return 0.0

    def _modulate_ingest_budget(self, budget: float, dt: float) -> float:
        """Engine-specific shaping of the per-tick ingest budget (the
        pull-rate signatures of Figure 9); default: unshaped."""
        return budget

    def _process(self, records: List[Record], dt: float) -> None:
        """Feed ingested records into the windowing pipeline.

        The record-at-a-time hook of the pluggable-SUT interface; only
        reached through the default :meth:`_process_batch`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _process_batch (blocks "
            "of cohorts) or _process (one Record at a time)"
        )

    def _process_batch(self, blocks: List[RecordBlock], dt: float) -> None:
        """Feed the tick's ingested blocks into the windowing pipeline.

        The built-in engines override this with block-at-a-time window
        updates; the default materializes records and delegates to
        :meth:`_process`, so custom engines (the pluggable-SUT
        interface) can stay record-at-a-time with bitwise-identical
        numerics -- just without the speed.
        """
        self._process(materialize_all(blocks), dt)

    def _on_tick_end(self, dt: float) -> None:
        """Close ready windows / advance jobs; default no-op."""

    def _bind_obs_gauges(self, registry) -> None:
        """Publish engine-side instruments as polled gauges.

        Everything is pulled at the registry's sampling interval; the
        per-event hot path stays untouched.
        """
        registry.gauge("engine.ingested_weight").bind(
            lambda: self.ingested_weight
        )
        registry.gauge("engine.backlog_weight").bind(
            self._internal_backlog_weight
        )
        registry.gauge("engine.active_workers").bind(
            lambda: float(self._active_workers)
        )
        registry.gauge("engine.state_bytes").bind(
            lambda: self.state.used_bytes
        )
        registry.gauge("engine.capacity_events_per_s").bind(
            self._capacity_events_per_s
        )
        bp = self._backpressure()
        for key in bp.metrics():
            registry.gauge(f"bp.{key}").bind(
                lambda k=key: bp.metrics().get(k, 0.0)
            )
        for key in self.conservation():
            registry.gauge(f"conservation.{key}").bind(
                lambda k=key: self.conservation().get(k, 0.0)
            )

    def conservation(self) -> Dict[str, float]:
        """Per-operator weight-conservation ledger (all in event weight,
        each record counted once).  Engines with window state override
        this; the invariants tested against it:

        - ``ingested == staged + admitted + dropped`` -- every ingested
          record is either still in transit inside the engine
          (``staged``), folded into window state, or dropped as late;
        - ``admitted == closed + stored + lost`` -- admitted weight is
          either released by a window close, still buffered in open
          windows, or destroyed by a fault.

        Load shedding adds the upstream term ``shed``: weight the
        degradation policy dropped at the driver queues *before*
        ingestion.  It balances the driver-side ledger
        (``pushed == pulled + queued + shed``) and never enters the
        processing-side invariants above.
        """
        return {"ingested": self.ingested_weight, "shed": self.shed_weight}

    def diagnostics(self) -> Dict[str, float]:
        """Engine-internal counters for reports (never used as metrics)."""
        diag = {
            "ingested_weight": self.ingested_weight,
            "state_used_bytes": self.state.used_bytes,
            "state_peak_bytes": self.state.peak_bytes,
            "active_workers": float(self._active_workers),
            "state_lost_weight": self.state_lost_weight,
            "faults_injected": float(len(self.fault_log)),
            "lost_weight": self.guarantees.lost_weight,
            "duplicated_weight": self.guarantees.duplicated_weight,
            "checkpoints_completed": float(self._checkpoints_completed),
            "checkpoint_pause_total_s": self._checkpoint_pause_total,
            "recovery_pause_total_s": self._recovery_pause_total,
            "standbys_available": float(self._standbys_available),
            "standbys_promoted": float(self.standbys_promoted),
            "shed_weight": self.shed_weight,
            "cluster_workers": float(self.cluster.workers),
            "rescale_events": float(len(self.rescale_log)),
            "rescale_pause_total_s": self._rescale_pause_total,
            "suspect_migrations": float(self._suspect_migrations),
            "suspect_pause_total_s": self._suspect_pause_total,
        }
        for key, value in self._backpressure().metrics().items():
            diag[f"bp.{key}"] = value
        for key, value in self.conservation().items():
            diag[f"conservation.{key}"] = value
        return diag


def windowed_conservation(store, staged: float = 0.0) -> Dict[str, float]:
    """Conservation ledger terms for a windowed store.

    Accepts a :class:`~repro.engines.operators.window.KeyedWindowStore`
    or a :class:`~repro.engines.operators.join.JoinWindowStore` (summed
    over both sides).  ``staged`` is weight the engine has ingested but
    not yet offered to the store (in-flight tuples, un-fired batches).
    """
    sides = (
        [store.purchases, store.ads] if hasattr(store, "purchases") else [store]
    )
    wpe = store.window.windows_per_event
    return {
        "staged": staged,
        "admitted": left_sum(s.admitted_weight for s in sides),
        "dropped": left_sum(s.dropped_weight for s in sides),
        "closed": left_sum(s.closed_weight for s in sides),
        "stored": left_sum(s.stored_weight() for s in sides) / wpe,
        "lost": left_sum(s.lost_weight for s in sides),
    }
