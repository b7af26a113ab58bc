"""The engine control plane: everything that happens *to* an engine.

:class:`~repro.engines.base.StreamingEngine` is the paper's pluggable
SUT interface.  What the fault schedule, a failure detector's verdicts,
the autoscaler and the checkpoint timer do to a running engine lives
here, behind one object the engine owns.  :class:`ControlPlane` is the
only writer of the worker pool (serving / dead / spare / provisioning /
retiring), the pause clock (suspended until when, billed to which
cause, where re-admission ramps from), capacity derating and ingest
cuts, the checkpoint frontier, and the fault and rescale ledgers.

The tick asks it four questions (:meth:`~ControlPlane.paused`,
:meth:`~ControlPlane.serving_capacity`, :meth:`~ControlPlane.ingest_cut`,
``ramp_from_s``) and sees nothing else.  Each mechanism -- pause,
expose, lose workers, derate, cut over -- is written once and every
event is a composition of them (table in DESIGN.md, "Engine control
plane").  The engine contributes its hooks (``_on_node_failure``,
``_rescale_exposed_weight``) and class attributes
(``recovery_semantics``, ``default_guarantee``, ``rescale``).  Every
callback scheduled from here is a bound method of this class, so the
perf benchmark attributes it to the ``engines`` layer.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.autoscale.rescale import (
    STYLE_MICRO_BATCH,
    STYLE_REPARTITION,
    STYLE_SAVEPOINT,
)
from repro.faults.checkpoint import (
    DETECTION_TIMEOUT_S,
    REBALANCE_BASE_S,
    CheckpointSpec,
    RecoverySemantics,
    recovery_pause_s,
    sync_pause_s,
)
from repro.faults.guarantees import GuaranteeAccounting
from repro.faults.schedule import (
    FaultEvent,
    GrayFaultEvent,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.recovery.reschedule import (
    migration_pause_s,
    plan_crash,
    plan_scale_in,
    plan_straggler,
    plan_suspect,
    resolve_mode,
)
from repro.sim.failures import SutFailure
from repro.sim.simulator import PeriodicProcess, Simulator

if TYPE_CHECKING:
    from repro.engines.base import StreamingEngine

class PauseCause(enum.Enum):
    """What suspended processing.  Each cause is billed on its own so
    recovery metrology never conflates a failure with a planned pause
    or a (possibly spurious) detector verdict."""

    RECOVERY = "recovery"
    RESCALE = "rescale"
    SUSPECT = "suspect"
    CHECKPOINT = "checkpoint"
    JVM = "jvm"


#: The causes that are *outages*: processing resumes behind a backlog,
#: so re-admission ramps from their end.  Checkpoint barriers and JVM
#: pauses suspend processing but never re-anchor the ramp.
OUTAGES = frozenset(
    (PauseCause.RECOVERY, PauseCause.RESCALE, PauseCause.SUSPECT)
)


class ControlPlane:
    """The reaction of one engine to faults, verdicts, rescales and the
    checkpoint timer (see the module docstring)."""

    def __init__(
        self,
        engine: "StreamingEngine",
        checkpoint: Optional[CheckpointSpec],
        reschedule: Optional[str],
    ) -> None:
        self.engine = engine
        self.sim: Simulator = engine.sim
        cluster = engine.cluster
        self.checkpoint = checkpoint or CheckpointSpec()
        self._checkpoint_active = checkpoint is not None
        self.guarantee = (
            self.checkpoint.guarantee
            if self.checkpoint.guarantee is not None
            else engine.default_guarantee
        )
        self.guarantees = GuaranteeAccounting(self.guarantee)
        self.mode = resolve_mode(reschedule, cluster.standby)
        # -- the worker pool
        self.active = cluster.workers
        self.dead = 0
        self.spares = cluster.standby
        self.standbys_promoted = 0
        self.warming = 0
        """Standbys promoted on a crash, warming up through its pause:
        billed, not yet serving."""
        self.provisioning = 0
        self.retiring = 0
        # -- the pause clock
        self.paused_until = -1.0
        self.ramp_from_s = -1.0
        self.pause_total_s = dict.fromkeys(PauseCause, 0.0)
        # -- capacity derating and ingest cuts
        self.derates: List[Tuple[float, float]] = []
        """Live ``(until, multiplier)`` capacity windows, append order."""
        self.ingest_cut_until = -1.0
        self.abandoned: set = set()
        """Nodes migrated away from on a detector verdict."""
        self.busy_until = -1.0
        """No rescale may start before then: a node is provisioning or
        moved state is still in flight (a victim might hold it)."""
        # -- the checkpoint frontier
        self.last_checkpoint_s = 0.0
        self.checkpointed_weight = 0.0
        self.checkpoints_completed = 0
        self._checkpoint_process: Optional[PeriodicProcess] = None
        # -- the ledgers
        self.fault_log: List[Dict[str, Any]] = []
        self.rescale_log: List[Dict[str, Any]] = []
        """One entry per elastic rescale event (decision, cutover, and
        completion fields are filled in as the event progresses)."""
        self.suspect_migrations = 0

    def start(self) -> None:
        self.last_checkpoint_s = self.sim.now
        self._checkpoint_process = self.sim.every(
            self.checkpoint.interval_s,
            self._checkpoint_tick,
            start=self.sim.now + self.checkpoint.interval_s,
        )

    def stop(self) -> None:
        if self._checkpoint_process is not None:
            self._checkpoint_process.stop()
            self._checkpoint_process = None

    # -- what the tick asks --------------------------------------------------

    def paused(self, now: float) -> bool:
        return now < self.paused_until

    def ingest_cut(self, now: float) -> bool:
        """A network partition between queues and workers: no new
        ingest, but buffered data keeps processing."""
        return now < self.ingest_cut_until

    def serving_capacity(self, nominal: float) -> float:
        """``nominal`` (the full cluster's capacity) scaled to the
        serving share of the pool and derated by the live straggler /
        gray-fault windows."""
        capacity = nominal * (self.active / self.engine.cluster.workers)
        if self.derates:
            now = self.sim.now
            self.derates = [(u, m) for u, m in self.derates if now < u]
            multiplier = 1.0
            for _, m in self.derates:
                multiplier *= m
            capacity *= multiplier
        return capacity

    @property
    def replay_window_weight(self) -> float:
        """Weight ingested since the last completed checkpoint: what a
        checkpoint-restore engine replays after losing a worker."""
        return max(0.0, self.engine.ingested_weight - self.checkpointed_weight)

    # -- the mechanisms ------------------------------------------------------

    def pause(self, seconds: float, cause: PauseCause) -> None:
        """Suspend processing for ``seconds`` from now, billed to
        ``cause``.  Overlapping pauses run to the latest end.  Zero
        seconds suspends nothing and anchors nothing; an outage anchors
        the admission ramp at its end (inert policies ignore it)."""
        if seconds <= 0:
            return
        self.pause_total_s[cause] += seconds
        self.paused_until = max(self.paused_until, self.sim.now + seconds)
        if cause in OUTAGES:
            self.ramp_from_s = max(self.ramp_from_s, self.paused_until)

    def _expose(self, weight: float) -> Dict[str, float]:
        """Run ``weight`` endangered by a fault or a state move through
        the delivery guarantee; returns the log fields."""
        exposed = max(0.0, weight)
        lost, duplicated = self.guarantees.on_fault(exposed)
        return {
            "exposed_weight": exposed,
            "lost_weight": lost,
            "duplicated_weight": duplicated,
        }

    def _log_fault(self, kind: str, **fields: float) -> None:
        entry: Dict[str, Any] = {"kind": kind, "at_s": self.sim.now}
        entry.update(fields)
        self.fault_log.append(entry)
        obs = self.engine.obs
        if obs is not None:
            # Mirror every injected fault onto the observability
            # timeline so traces alive at that moment are annotated
            # with it; a recovery pause additionally marks when
            # processing resumes.
            obs.add_event(f"fault.{kind}", self.sim.now, **fields)
            pause = fields.get("pause_s", 0.0)
            if pause > 0:
                obs.add_event(
                    "recovery.resume", self.sim.now + pause, cause=kind
                )

    def _workers_return(self, nodes: int, promoted: bool) -> None:
        """Capacity comes back after a recovery pause: bounced workers
        restart, or (``promoted``) standbys finish warming up and take
        over dead nodes' slots.  Either way bounded by the nominal
        worker count minus the dead -- spares replace, they never add."""
        if promoted:
            self.warming -= nodes
        if self.engine.failed:
            return
        if promoted:
            nodes = min(nodes, self.dead)
            if nodes <= 0:
                return
            self.dead -= nodes
            self.standbys_promoted += nodes
        ceiling = self.engine.cluster.workers - self.dead
        self.active = min(self.active + nodes, ceiling)

    def _derate(self, until: float, nodes: int, factor: float) -> None:
        """``nodes`` of the serving workers run at ``factor`` of their
        speed until ``until``."""
        active = self.active
        share = max(0.0, (active - nodes + nodes * factor) / active)
        self.derates.append((until, share))

    def _gray_segment(self, node: int, until: float, factor: float) -> None:
        """One gray capacity segment begins on ``node``: the node runs
        at ``factor`` of its speed until ``until`` (0.0 = down).
        Skipped once the node has been migrated away on a detector
        verdict -- an abandoned node degrades nothing.  A segment
        already in effect when the node is abandoned runs out on its
        own (bounded by the segment length); only future segments are
        cancelled."""
        if self.engine.failed or node in self.abandoned or self.active <= 0:
            return
        self._derate(until, 1, factor)

    def _cutover(
        self,
        entry: Dict[str, Any],
        moved_fraction: float,
        migrated_bytes: float,
        migration_s: float,
    ) -> float:
        """Keyed state changes owners: the engine pays its style pause
        plus the NIC migration, the moved share is run through the
        delivery guarantee, and no further rescale may start until the
        state has landed.  Returns the pause."""
        now = self.sim.now
        style_s = self.style_pause_s(migrated_bytes)
        pause = style_s + migration_s
        exposure = self._expose(
            self.engine._rescale_exposed_weight(moved_fraction)
        )
        self.pause(pause, PauseCause.RESCALE)
        self.busy_until = max(self.busy_until, now + pause)
        entry.update(
            cutover_at_s=now,
            migrated_bytes=migrated_bytes,
            migration_s=migration_s,
            style_pause_s=style_s,
            pause_s=pause,
            **exposure,
        )
        return pause

    def style_pause_s(self, migrated_bytes: float) -> float:
        """The engine-style component of the cutover pause (the state
        migration itself is priced separately, by
        :func:`~repro.recovery.reschedule.migration_pause_s`)."""
        engine = self.engine
        style = engine.rescale.style
        if style == STYLE_MICRO_BATCH:
            # The next micro-batch plans on the new cluster; nothing to
            # pause.
            return 0.0
        if style == STYLE_SAVEPOINT:
            # Aligned savepoint over the whole state, then restart at
            # the new parallelism.
            return sync_pause_s(engine.state.used_bytes)
        if style == STYLE_REPARTITION:
            # Changelog flush for the moved tasks only.
            return sync_pause_s(migrated_bytes)
        # STYLE_REBALANCE: a planned in-flight rebalance briefly halts
        # the topology; far cheaper than the crash-recovery rebalance
        # but it grows with topology size the same way.
        return (
            0.25
            * REBALANCE_BASE_S
            * math.sqrt(max(1.0, self.active) / 2.0)
        )

    # -- faults ---------------------------------------------------------------

    def inject(self, event: FaultEvent) -> None:
        engine, now = self.engine, self.sim.now
        if engine.failed:
            return
        if isinstance(event, (NodeCrash, ProcessRestart)):
            self._lose_workers(event)
        elif isinstance(event, SlowNode):
            self._straggle(event)
        elif isinstance(event, NetworkPartition):
            self.ingest_cut_until = max(
                self.ingest_cut_until, now + event.duration_s
            )
            self._log_fault("partition", pause_s=0.0)
        elif isinstance(event, QueueDisconnect):
            # The queue's partition backlogs and the watermark stalls
            # until reconnect.
            if engine.source is not None:
                engine.source.disconnect(
                    event.queue_index, until=now + event.duration_s
                )
                self._log_fault("disconnect", pause_s=0.0)
        elif isinstance(event, GrayFaultEvent):
            # No state is exposed -- the process survives, its machine
            # blinks or slows.  The heartbeat consequences live in
            # :mod:`repro.detect`; here only capacity is modulated, and
            # only a detection-plane verdict can end it early.
            for start, end, factor in event.capacity_segments():
                self.sim.schedule_at(
                    start, self._gray_segment, event.node, end, factor
                )
            self._log_fault(event.kind, pause_s=0.0, **event.log_fields())
        else:  # pragma: no cover - schedule validation prevents this
            raise TypeError(f"unknown fault event {type(event).__name__}")

    def _lose_workers(self, event: Union[NodeCrash, ProcessRestart]) -> None:
        """A crash or a restart takes ``event.nodes`` workers away.

        Either way the in-memory state on them is gone: the engine's
        ``_on_node_failure`` hook names the exposed weight, the
        delivery guarantee decides its fate, and processing pauses for
        the derived recovery time.  A **crash** is permanent: the
        reschedule mode decides where the dead slots land
        (standby promotion, spreading over survivors, or -- the legacy
        policy -- nowhere), the pause grows by the state migration, and
        a promoted standby serves once the pause ends.  A **restart**
        is temporary: the supervisor brings the same workers back after
        the pause.  Losing the last placement target (a crash with no
        survivors and no standbys; a crash while no worker is serving,
        the rest still recovering; a restart of every worker, which
        leaves nothing supervising it) is the one unrecoverable
        outcome."""
        engine, active, nodes = self.engine, self.active, event.nodes
        crash = isinstance(event, NodeCrash)
        fatal, migration_s = nodes >= active, 0.0
        if crash:
            nodes = min(nodes, active)
            if active:
                plan = plan_crash(
                    self.mode,
                    kill=nodes,
                    active=active,
                    standbys_left=self.spares,
                    state_bytes=engine.state.used_bytes,
                )
                fatal, migration_s = plan.fatal, plan.migration_pause_s
        detection_s = DETECTION_TIMEOUT_S
        if fatal:
            # The trial fails -- but the fatal fault is accounted and
            # logged FIRST so the failed TrialResult keeps its
            # diagnostics (guarantee accounting, recovery counters)
            # instead of losing the fault entirely.
            exposure = self._expose(engine._on_node_failure(1.0))
            if crash:
                self.dead += nodes
                self.active = 0
                why = (
                    f"node crash killed all {active} remaining workers "
                    f"and the {self.mode!r} reschedule policy "
                    "has no standby to promote"
                    if active
                    else "node crash while no worker is serving"
                )
            else:
                why = f"process restart bounced all {active} remaining workers"
            self._log_fault(
                event.kind, pause_s=0.0, detection_s=detection_s,
                **exposure, fatal=1.0,
            )
            engine._fail(
                SutFailure(f"{engine.name}: {why}", at_time=self.sim.now)
            )
            return
        lost_fraction = nodes / active
        self.active -= nodes
        if crash:
            self.dead += nodes
        exposure = self._expose(engine._on_node_failure(lost_fraction))
        # The processing outage, derived from the checkpoint model and
        # this engine's recovery semantics, plus slot placement.
        pause = recovery_pause_s(
            engine.recovery_semantics,
            state_bytes=engine.state.used_bytes,
            active_workers=self.active,
            workers=engine.cluster.workers,
            replay_span_s=max(0.0, self.sim.now - self.last_checkpoint_s),
            lost_fraction=lost_fraction,
        ) + migration_s
        self.pause(pause, PauseCause.RECOVERY)
        extra: Dict[str, float] = {}
        if not crash:
            self.sim.schedule(pause, self._workers_return, nodes, False)
        elif plan.promoted:
            # Promotion completes when the pause (restore + migration)
            # ends; until then the standby is warming up and contributes
            # no capacity.
            self.spares -= plan.promoted
            self.warming += plan.promoted
            self.sim.schedule(pause, self._workers_return, plan.promoted, True)
            extra["promoted"] = float(plan.promoted)
        if crash and plan.migrated_bytes > 0:
            extra["migrated_bytes"] = plan.migrated_bytes
            extra["migration_s"] = migration_s
        self._log_fault(
            event.kind, pause_s=pause, detection_s=detection_s,
            **exposure, **extra,
        )

    def _straggle(self, event: SlowNode) -> None:
        """Degrade ``event.nodes`` workers to ``event.factor`` of their
        capacity for ``event.duration_s`` (no state is lost, no pause
        served).

        The reschedule mode may replace detected stragglers with
        standbys: a straggler outlasting the failure detector is
        abandoned once its state has migrated to the promoted spare, so
        its slowdown ends at detection + migration instead of running
        the full fault duration.  Stragglers below the detection timeout
        are never migrated -- the fault clears before anyone notices.
        """
        engine, active, now = self.engine, self.active, self.sim.now
        nodes = min(event.nodes, active)
        if nodes <= 0:
            return
        factor, duration_s = event.factor, event.duration_s
        plan = plan_straggler(
            self.mode,
            nodes=nodes,
            duration_s=duration_s,
            standbys_left=self.spares,
            state_bytes=engine.state.used_bytes,
            active=active,
        )
        replaced = plan.promoted
        riding = nodes - replaced
        if riding > 0:
            self._derate(now + duration_s, riding, factor)
        extra: Dict[str, float] = {}
        if replaced > 0:
            # The replaced stragglers stay slow until the detector fires
            # and the migration lands, whichever view of the fault ends
            # first; the spare is consumed permanently.
            self.spares -= replaced
            self.standbys_promoted += replaced
            handoff_s = min(
                duration_s,
                DETECTION_TIMEOUT_S + plan.migration_pause_s,
            )
            self._derate(now + handoff_s, replaced, factor)
            extra["promoted"] = float(replaced)
            extra["migrated_bytes"] = plan.migrated_bytes
            extra["migration_s"] = plan.migration_pause_s
        self._log_fault("slow", pause_s=0.0, **extra)

    def evict_suspect(
        self, node: int, spurious: bool
    ) -> Optional[Dict[str, float]]:
        engine, active = self.engine, self.active
        if engine.failed or active <= 0:
            return None
        plan = plan_suspect(
            self.mode,
            active=active,
            standbys_left=self.spares,
            state_bytes=engine.state.used_bytes,
        )
        if plan.promoted == 0 and plan.survivors == active:
            return None
        self.abandoned.add(node)
        if plan.promoted:
            # The spare takes the suspect's slots once the migration
            # lands: headcount is unchanged, only the pause is paid.
            self.spares -= plan.promoted
            self.standbys_promoted += plan.promoted
        else:
            self.active -= 1
            self.dead += 1
        pause = plan.migration_pause_s
        self.suspect_migrations += 1
        self.pause(pause, PauseCause.SUSPECT)
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

    # -- the checkpoint timer -------------------------------------------------

    def _checkpoint_tick(self, sim: Simulator) -> None:
        """Complete one checkpoint: snapshot the replay frontier and --
        when the trial opted into the fault-tolerance model -- pause the
        pipeline for the checkpoint's synchronous part.

        The bookkeeping (replay frontier) always runs so that replay
        spans stay bounded by the interval even for engines constructed
        without an explicit :class:`CheckpointSpec`; only the pause is
        gated, keeping non-fault trials' numerics untouched.
        """
        engine = self.engine
        if engine.failed:
            return
        self.last_checkpoint_s = sim.now
        self.checkpointed_weight = engine.ingested_weight
        if (
            self._checkpoint_active
            and engine.recovery_semantics is RecoverySemantics.CHECKPOINT_RESTORE
        ):
            self.checkpoints_completed += 1
            self.pause(
                sync_pause_s(engine.state.used_bytes),
                PauseCause.CHECKPOINT,
            )

    # -- elastic rescale -------------------------------------------------------

    def _open_rescale(
        self,
        kind: str,
        delta: int,
        resize: int,
        reason: str,
        detect_s: float,
        **tail: float,
    ) -> Dict[str, Any]:
        """Log the decision: ``delta`` machines leave or join the bill,
        ``resize`` of them change the nominal worker count."""
        workers = self.engine.cluster.workers
        entry: Dict[str, Any] = {
            "kind": kind,
            "decided_at_s": self.sim.now,
            "delta": float(delta),
            "from_workers": float(workers),
            "to_workers": float(workers + resize),
            "detect_s": float(detect_s),
            "reason": reason,
            **tail,
        }
        self.rescale_log.append(entry)
        if self.engine.obs is not None:
            self.engine.obs.add_event(
                f"autoscale.{kind}", self.sim.now,
                delta=entry["delta"], reason=reason,
            )
        return entry

    def scale_out(
        self, nodes: int, reason: str, detect_s: float
    ) -> Optional[Dict[str, Any]]:
        engine, now = self.engine, self.sim.now
        if engine.failed or nodes <= 0 or now < self.busy_until:
            return None
        spares = min(nodes, self.spares)
        lead = engine.rescale.lead_s(cold=nodes - spares)
        self.spares -= spares
        self.provisioning += nodes
        entry = self._open_rescale(
            "scale-out", nodes, nodes, reason, detect_s,
            spares_used=float(spares), provision_s=lead,
        )
        self.busy_until = now + lead
        self.sim.schedule(lead, self._cutover_scale_out, nodes, entry)
        return entry

    def _cutover_scale_out(self, nodes: int, entry: Dict[str, Any]) -> None:
        engine = self.engine
        if engine.failed:
            self.provisioning -= nodes
            return
        moved_fraction = nodes / (engine.cluster.workers + nodes)
        migrated = max(0.0, engine.state.used_bytes) * moved_fraction
        migration_s = migration_pause_s(migrated, nodes)
        pause = self._cutover(entry, moved_fraction, migrated, migration_s)
        self.sim.schedule(pause, self._complete_scale_out, nodes, entry)

    def _resize(self, delta: int, announce: str) -> None:
        """The cluster gains (or loses) ``delta`` serving workers for good."""
        engine = self.engine
        self.active += delta
        engine.cluster = engine.cluster.with_workers(
            engine.cluster.workers + delta
        )
        if engine.obs is not None:
            engine.obs.add_event(
                announce, self.sim.now, workers=float(self.active)
            )

    def _complete_scale_out(self, nodes: int, entry: Dict[str, Any]) -> None:
        self.provisioning -= nodes
        if self.engine.failed:
            return
        entry["online_at_s"] = self.sim.now
        self._resize(nodes, "autoscale.capacity-online")

    def scale_in(
        self, nodes: int, reason: str, detect_s: float
    ) -> Optional[Dict[str, Any]]:
        engine, now = self.engine, self.sim.now
        if engine.failed or nodes <= 0 or now < self.busy_until:
            return None
        spares = min(nodes, self.spares)
        victims = max(0, min(nodes - spares, self.active - 1))
        if spares <= 0 and victims <= 0:
            return None
        self.spares -= spares
        entry = self._open_rescale(
            "scale-in", -(spares + victims), -victims, reason, detect_s,
            spares_returned=float(spares), provision_s=0.0,
        )
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
            return entry
        plan = plan_scale_in(
            remove=victims,
            active=self.active,
            state_bytes=engine.state.used_bytes,
        )
        pause = self._cutover(
            entry,
            victims / self.active,
            plan.migrated_bytes,
            plan.migration_pause_s,
        )
        self.retiring += victims
        self.sim.schedule(pause, self._complete_scale_in, victims, entry)
        return entry

    def _complete_scale_in(self, victims: int, entry: Dict[str, Any]) -> None:
        engine = self.engine
        self.retiring -= victims
        if engine.failed:
            return
        entry["online_at_s"] = self.sim.now
        # A crash may have raced the drain; never depart below one
        # active worker however the interleaving went, and log the
        # workers that did depart, not the ones the decision meant to.
        departing = max(
            0, min(victims, self.active - 1, engine.cluster.workers - 1)
        )
        entry["delta"] += victims - departing
        entry["to_workers"] += victims - departing
        if departing > 0:
            self._resize(-departing, "autoscale.departed")
