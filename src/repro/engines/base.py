"""The generic engine interface and shared execution machinery.

The paper's future work calls for "a generic interface that users can
plug into any stream data processing system, in order to facilitate and
simplify benchmark SDPSs".  :class:`StreamingEngine` is that interface:
the driver only ever sees ``start`` / ``stop``, the failure flag, and
diagnostics -- every measurement happens outside the engine, at the
queues and the sink.

Shared machinery implemented here:

- the engine tick: every :data:`TICK_INTERVAL_S` the engine asks its
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

What happens *to* a running engine -- faults, detector verdicts,
rescales, the checkpoint timer -- is its control plane's business
(:mod:`repro.engines.control`); the tick only asks it four questions.

The base also owns the window pipeline every engine shares: ingested
blocks fold into one window store (keyed, or two-sided for the join),
ready windows close against the source watermark (less the allowed
lateness), the closed window's outputs leave after an emit delay, and
the sink receives them; the conservation ledger and the late-drop
count are derived from that store.  An engine is a declaration --
``config_cls``, ``backpressure_cls``, ``supports_spill``,
``recommended_degradation``, its cost model and recovery semantics --
plus code for what is irreducibly its own (DESIGN.md, "Engines as
declarations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.autoscale.rescale import RescaleSemantics
from repro.core.batch import RecordBlock, left_sum, records_weight
from repro.core.queues import QueueSet
from repro.engines.backpressure import BackpressureMechanism, CreditBased
from repro.engines.calibration import cost_model_for
from repro.engines.control import ControlPlane, PauseCause
from repro.engines.operators.aggregate import aggregation_outputs
from repro.engines.operators.join import JoinWindowStore, join_window_outputs
from repro.engines.operators.sink import Sink
from repro.engines.operators.source import SourceSet
from repro.engines.operators.window import KeyedWindowStore
from repro.engines.state import StateBackend
from repro.obs.context import ObsContext
from repro.recovery.degradation import DegradationPolicy
from repro.faults.checkpoint import CheckpointSpec, RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee
from repro.faults.schedule import FaultEvent
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

#: Simulated seconds between two engine ticks (every engine).
TICK_INTERVAL_S = 0.05


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs common to all engines (Section VI-A: "Tuning the
    engines' configuration parameters is important to get a good
    performance for every system")."""

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
    emit_jitter_sigma: float = 0.0
    """Lognormal sigma of multiplicative jitter on window-emission
    delays (coordination noise; grows with cluster size for Storm)."""
    allowed_lateness_s: float = 0.0
    """Hold windows open this long past the watermark to admit
    out-of-order stragglers (the paper's future-work extension; honoured
    by the engines' window-close conditions).  Zero reproduces the
    paper's in-order setup exactly."""


class StreamingEngine:
    """The system under test.

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
    config_cls = EngineConfig
    """The engine's configuration class.  A trial without a config runs
    on ``config_cls()``; a config of another class is rejected, since
    copying it over would replace the engine's calibrated defaults
    with the base class's."""
    backpressure_cls: type = CreditBased
    """The engine's flow-control mechanism, built once per engine by
    ``backpressure_cls.for_engine(engine)``."""
    supports_spill = True
    """Whether operator state can spill to disk (Experiment 3)."""
    recommended_degradation = DegradationPolicy(
        shed="oldest", max_queue_delay_s=5.0, readmission_ramp_s=2.0
    )
    """A sensible graceful-degradation configuration for this engine --
    what a production deployment of it would run with.  Engines tune
    the ramp to their scheduling granularity."""

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
        reschedule: Optional[str] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        self.sim = sim
        self.obs = obs
        self.cluster = cluster
        self.query = query
        self.plane = plane
        self.rng = rng
        self.resources = resources
        config_cls = self.config_cls
        if config is None:
            config = config_cls()
        elif not isinstance(config, config_cls):
            raise ValueError(
                f"{self.name} runs on {config_cls.__name__}, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self.cost = cost_model_for(self.name, query.kind)
        self.state = StateBackend(cluster, can_spill=self.supports_spill)
        self.backpressure: BackpressureMechanism = (
            self.backpressure_cls.for_engine(self)
        )
        self._is_join = isinstance(query, WindowedJoinQuery)
        self._store = self._window_store()
        self.windows_emitted = 0
        self.sink: Optional[Sink] = None
        self.source: Optional[SourceSet] = None
        self.failure: Optional[SutFailure] = None
        self.ingested_weight = 0.0
        self._tick_ingest_weight = 0.0
        control = self.control = ControlPlane(self, checkpoint, reschedule)
        # Its resolved configuration and its ledgers, readable where
        # the other layers look for them.
        self.checkpoint = control.checkpoint
        self.guarantee, self.guarantees = control.guarantee, control.guarantees
        self.fault_log, self.rescale_log = control.fault_log, control.rescale_log
        # The inert default (no shedding, step re-admission) keeps the
        # paper's binary failure rule for plain trials; the chaos
        # harness and the ``--shed`` CLI knobs opt into an engine's
        # ``recommended_degradation``.
        self.degradation = degradation or DegradationPolicy()
        self.shed_weight = 0.0
        self._tick_process: Optional[PeriodicProcess] = None
        self._hot_fraction = query.keys.hot_fraction()
        self._ingest_bytes_per_event = self._mean_event_bytes()
        self._result_bytes_per_output_weight = (
            JOIN_RESULT_BYTES if self._is_join else AGG_RESULT_BYTES
        )
        self._last_state_bytes = 0.0

    # -- configuration hooks -------------------------------------------------

    def _window_store(self):
        """The store this engine's windows fold into and close from,
        built once per engine."""
        store_cls = JoinWindowStore if self._is_join else KeyedWindowStore
        return store_cls(self.query.window, self.query.keys.num_keys)

    # -- lifecycle ------------------------------------------------------------

    def start(self, queues: QueueSet, sink: Sink) -> None:
        if self._tick_process is not None:
            raise RuntimeError(f"{self.name} engine already started")
        self.source = SourceSet(queues)
        self.sink = sink
        self._tick_process = self.sim.every(
            TICK_INTERVAL_S, self._tick, start=self.sim.now
        )
        self.control.start()
        if self.obs is not None:
            self._bind_obs_gauges(self.obs.registry)

    def stop(self) -> None:
        if self._tick_process is not None:
            self._tick_process.stop()
            self._tick_process = None
        self.control.stop()

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
        capacity = self.control.serving_capacity(
            self.cost.skew_capacity_events_per_s(self.cluster, self._hot_fraction)
        )
        return capacity / self.state.cost_multiplier

    def _mean_event_bytes(self) -> float:
        sizes = [event_bytes(stream) for stream in self.query.streams]
        return sum(sizes) / len(sizes)

    # -- the tick ------------------------------------------------------------

    def _tick(self, sim: Simulator) -> None:
        if self.failed:
            return
        dt = TICK_INTERVAL_S
        control = self.control
        try:
            if control.paused(sim.now) or self._gc_pause_begins(dt):
                # Suspended (JVM pause, outage or checkpoint barrier): no
                # ingest, no processing, no window evaluation this tick.
                # The flow-control clock still advances -- stall/off
                # windows elapse in simulated time, not in
                # ticks-that-ran (the stall-accounting drift bug).
                self.backpressure.on_tick_end(sim.now)
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
            budget = self.backpressure.ingest_budget(
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
                sim.now, control.ramp_from_s
            )
            budget = self._modulate_ingest_budget(budget, dt)
            if control.ingest_cut(sim.now):
                budget = 0.0
            budget = self._apply_network_grant(budget)
            if budget > 0:
                blocks = self.source.pull_batch(budget, ingest_time=sim.now)
                if blocks:
                    self._account_ingest(blocks, dt)
                    self._process_batch(blocks, dt)
            self._on_tick_end(dt)
            self.backpressure.on_tick_end(sim.now)
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

    def _emit(self, outputs) -> None:
        """Deliver closed-window outputs (scheduled after their delay)."""
        assert self.sink is not None
        # ``left_sum`` written out, once for the plane and the sink: Storm
        # calls this once per output, and a generator per output took a
        # tenth of a 4 096-key Storm trial.
        weight = 0
        for output in outputs:
            weight += output.weight
        self._account_emission(weight)
        self.sink.emit(outputs, weight, self._result_bytes_per_output_weight)

    def _update_state_usage(self, stored_weight: float) -> None:
        """Reconcile the state backend with the current buffered volume."""
        target = stored_weight * self.cost.state_bytes_per_event
        delta = target - self._last_state_bytes
        if delta > 0:
            self.state.charge(delta, at_time=self.sim.now)
        elif delta < 0:
            self.state.release(-delta)
        self._last_state_bytes = target

    # -- what happens to the engine (forwarded to the control plane) ----------

    def inject_fault(self, event: FaultEvent) -> None:
        """Apply one scheduled fault event to the running engine.

        Every application appends an entry to :attr:`fault_log` (kind,
        time, derived pause, guarantee accounting) that the driver-side
        recovery metrology consumes.
        """
        self.control.inject(event)

    def apply_suspect_migration(
        self, node: int, *, spurious: bool
    ) -> Optional[Dict[str, float]]:
        """A failure detector convicted live worker ``node``: evict it.

        This is the verdict-to-action seam of :mod:`repro.detect`.  The
        scheduler cannot distinguish a true conviction from a false
        positive, so the cost is identical either way: the suspect's
        state moves over the NIC
        (:func:`~repro.recovery.reschedule.plan_suspect`) onto a promoted
        standby when one is available -- else spread over the survivors,
        shrinking the cluster by one -- and the pipeline pauses for the
        migration.  ``spurious`` is carried into the fault log purely as
        metrology (the plane's ground truth); it never changes behaviour.
        Returns None (and does nothing) when the reschedule mode
        declines to act.
        """
        return self.control.evict_suspect(node, spurious)

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
        return self.control.scale_out(nodes, reason, detect_s)

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
        drains actives through
        :func:`~repro.recovery.reschedule.plan_scale_in`.
        """
        return self.control.scale_in(nodes, reason, detect_s)

    @property
    def active_workers(self) -> int:
        """Workers currently serving (dead and draining nodes excluded
        once their departure completes)."""
        return self.control.active

    @property
    def standbys_available(self) -> int:
        """Hot spares currently idle in the pool."""
        return self.control.spares

    @property
    def standbys_promoted(self) -> int:
        """Spares that have taken over a dead or evicted worker's slots."""
        return self.control.standbys_promoted

    @property
    def target_workers(self) -> int:
        """The cluster size all in-flight rescales are steering toward
        (what policy bounds must be checked against)."""
        return self.cluster.workers + self.control.provisioning - self.control.retiring

    @property
    def billed_nodes(self) -> int:
        """Machines currently costing money: serving workers, idle hot
        spares, standbys warming up to replace crashed workers, and nodes
        already provisioning toward a scale-out.  Draining scale-in
        victims keep billing until they depart."""
        control = self.control
        return (
            control.active + control.spares + control.warming
            + control.provisioning
        )

    @property
    def state_lost_weight(self) -> float:
        """Weight the delivery guarantee wrote off (faults, state moves)."""
        return self.guarantees.lost_weight

    def _on_node_failure(self, lost_fraction: float) -> float:
        """State consequences of losing workers; returns the *exposed*
        weight whose fate the delivery guarantee decides.

        Default (checkpoint-restore engines): the replay window -- all
        weight ingested since the last completed checkpoint.
        """
        return self.control.replay_window_weight

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

    # -- JVM pauses ------------------------------------------------------------

    def _gc_pause_begins(self, dt: float) -> bool:
        """The seeded Poisson draw for one running tick; a hit suspends
        processing for a lognormal pause on the control plane's clock."""
        if self.config.gc_rate_per_s <= 0:
            return False
        if self.rng.random() < self.config.gc_rate_per_s * dt:
            mean = self.config.gc_pause_mean_s
            sigma = self.config.gc_pause_sigma
            # Lognormal with the configured mean: mu = ln(mean) - sigma^2/2.
            mu = np.log(max(mean, 1e-6)) - sigma**2 / 2.0
            self.control.pause(float(self.rng.lognormal(mu, sigma)), PauseCause.JVM)
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

    def _staged_weight(self) -> float:
        """Ingested weight not yet offered to the window store (the
        conservation ledger's ``staged``); default: the internal
        backlog."""
        return self._internal_backlog_weight()

    # -- the window pipeline ---------------------------------------------------

    def _process_batch(self, blocks: List[RecordBlock], dt: float) -> None:
        """Fold the tick's ingested blocks into the window store."""
        for block in blocks:
            self._store.add_block(block)
        self._update_state_usage(self._store.stored_weight())

    def _on_tick_end(self, dt: float) -> None:
        """Close the windows the source watermark has passed."""
        assert self.source is not None
        self._close_ready(self.source.watermark)

    def _close_ready(self, watermark: float) -> None:
        """Close every window ready at ``watermark`` less the allowed
        lateness, oldest first."""
        watermark -= self.config.allowed_lateness_s
        for index in self._store.ready_indices(watermark):
            self._close_window(index)

    def _close_window(self, index: int) -> None:
        """Close one window and schedule its outputs: close, emit delay,
        outputs, count, state usage, schedule."""
        closed = self._store.close(index, at_time=self.sim.now)
        delay = self._emit_delay(closed)
        outputs = self._outputs(closed, self.sim.now + delay)
        self.windows_emitted += 1
        self._update_state_usage(self._store.stored_weight())
        if outputs:
            self.sim.schedule(delay, self._emit, outputs)

    def _emit_delay(self, closed) -> float:
        """Seconds from a window's close until its outputs leave.

        Default (pipelined): the pipeline delay, jittered; a join first
        probes the closed window in bulk, so it pays the bulk pass
        (jittered) on top of an unjittered pipeline delay.
        """
        if self._is_join:
            return (
                self.config.pipeline_delay_s
                + self.cost.bulk_emit_delay_s(closed.total_weight, self.cluster)
                * self._emit_jitter()
            )
        return self.config.pipeline_delay_s * self._emit_jitter()

    def _outputs(self, closed, emit_time: float):
        """The query's result tuples for one closed window."""
        if self._is_join:
            return join_window_outputs(
                closed, self.query.selectivity, emit_time
            )
        return aggregation_outputs(closed, emit_time)

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
            lambda: float(self.control.active)
        )
        registry.gauge("engine.state_bytes").bind(
            lambda: self.state.used_bytes
        )
        registry.gauge("engine.capacity_events_per_s").bind(
            self._capacity_events_per_s
        )
        # One ledger evaluation per sample serves all of its gauges.
        registry.bind_gauges("bp.", self.backpressure.metrics)
        registry.bind_gauges("conservation.", self.conservation)

    def conservation(self) -> Dict[str, float]:
        """Per-operator weight-conservation ledger (all in event weight,
        each record counted once), derived from the window store and
        :meth:`_staged_weight`; the invariants tested against it:

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
        store = self._store
        # A join store's ledger is the sum of its two sides'.
        sides = [store.purchases, store.ads] if self._is_join else [store]
        return {
            "ingested": self.ingested_weight,
            "shed": self.shed_weight,
            "staged": self._staged_weight(),
            "admitted": left_sum(s.admitted_weight for s in sides),
            "dropped": left_sum(s.dropped_weight for s in sides),
            "closed": left_sum(s.closed_weight for s in sides),
            "stored": left_sum(s.stored_weight() for s in sides)
            / store.window.windows_per_event,
            "lost": left_sum(s.lost_weight for s in sides),
        }

    def diagnostics(self) -> Dict[str, float]:
        """Engine-internal counters for reports (never used as metrics)."""
        control, paused_s = self.control, self.control.pause_total_s
        diag = {
            "ingested_weight": self.ingested_weight,
            "state_used_bytes": self.state.used_bytes,
            "state_peak_bytes": self.state.peak_bytes,
            "active_workers": float(control.active),
            "state_lost_weight": self.state_lost_weight,
            "faults_injected": float(len(control.fault_log)),
            "lost_weight": control.guarantees.lost_weight,
            "duplicated_weight": control.guarantees.duplicated_weight,
            "checkpoints_completed": float(control.checkpoints_completed),
            "checkpoint_pause_total_s": paused_s[PauseCause.CHECKPOINT],
            "recovery_pause_total_s": paused_s[PauseCause.RECOVERY],
            "standbys_available": float(control.spares),
            "standbys_promoted": float(control.standbys_promoted),
            "shed_weight": self.shed_weight,
            "cluster_workers": float(self.cluster.workers),
            "rescale_events": float(len(control.rescale_log)),
            "rescale_pause_total_s": paused_s[PauseCause.RESCALE],
            "suspect_migrations": float(control.suspect_migrations),
            "suspect_pause_total_s": paused_s[PauseCause.SUSPECT],
        }
        for key, value in self.backpressure.metrics().items():
            diag[f"bp.{key}"] = value
        ledger = self.conservation()
        for key, value in ledger.items():
            diag[f"conservation.{key}"] = value
        diag["windows_emitted"] = float(self.windows_emitted)
        diag["late_dropped_weight"] = ledger["dropped"]
        return diag
