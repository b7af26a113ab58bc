"""The failure-detection plane: seeded heartbeats, verdicts, actions.

A :class:`DetectionPlane` is an optional control-plane overlay on one
trial (``ExperimentSpec(detector="timeout" | "phi" | "quorum")``).  It
simulates a per-worker heartbeat agent and a
:class:`~repro.detect.detectors.FailureDetector` consuming the
arrivals, then routes suspicion verdicts into the engine through
:func:`~repro.recovery.reschedule.plan_suspect` -- so a *false*
positive costs the same NIC-bounded migration pause as a true one.
Every detector kind runs at the constants below; the timeout detectors
convict at :data:`~repro.faults.checkpoint.DETECTION_TIMEOUT_S`, the
one detection delay of the fault model.

Modelling contract (every rule below is load-bearing for the
"``--detector timeout`` is byte-identical to no detector on fail-stop
schedules" guarantee, pinned in ``tests/detect/``):

- Heartbeat agents are separate processes on each worker *machine*:
  JVM GC pauses, checkpoint sync pauses, and recovery pauses of the
  streaming job never delay them.  Only machine-level conditions do.
- The control network is disjoint from the data network:
  :class:`NetworkPartition` and :class:`QueueDisconnect` (driver-link
  faults) leave heartbeats untouched, as do all driver-side faults.
- A legacy :class:`SlowNode` is a *data-plane* straggler handled by
  the pre-existing supervisor path (``plan_straggler``); it does not
  touch heartbeats and defines no detection episode.
- :class:`NodeCrash` silences the victim's agent forever;
  :class:`ProcessRestart` silences it for the engine-derived recovery
  pause.  Victims are the highest-index live workers (the same
  convention for plane and tests).
- Gray faults are the detector's real workload: a
  :class:`FlappingNode`'s down segments silence the agent, a
  :class:`DegradingNode` stretches the emission period by
  ``1 / factor`` (fail-slow: late, never silent), and an
  :class:`AsymmetricPartition` either hides a healthy node from some
  observers (``heartbeat``) or hides a real outage from all of them
  (``data``).
- While a detector-driven migration is in flight, its NIC transfer
  starves the control path: no heartbeats are delivered until the
  pause ends.  That coupling is the cascade mechanism -- a spurious
  migration can manufacture the evidence for the next suspicion.
  Chains are bounded structurally: a suspected node that gets migrated
  away is retired from tracking and never re-suspected.

Verdict-to-action rule: a suspicion raise on a node the engine already
knows is gone (crashed, or mid-restart) is metrology only.  A raise on
a structurally *live* node -- a gray-faulted one, or a healthy false
positive -- asks the policy to evict it; the plane cannot tell the two
apart, which is the entire point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.latency import EVENT_TIME
from repro.detect.detectors import (
    OBSERVERS,
    FailureDetector,
    PhiAccrualDetector,
    QuorumDetector,
    TimeoutDetector,
)
from repro.detect.metrics import (
    DetectionMetrics,
    VerdictEvent,
    latency_band_reentered,
)
from repro.faults.checkpoint import DETECTION_TIMEOUT_S
from repro.faults.metrics import BIN_S
from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    FaultSchedule,
    FlappingNode,
    NodeCrash,
    ProcessRestart,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.driver import TrialResult
    from repro.engines.base import StreamingEngine
    from repro.sim.simulator import Simulator

#: Detector kinds selectable on the ``--detector`` axis.
DETECTOR_KINDS = ("timeout", "phi", "quorum")
#: Seconds between two heartbeats of one worker's agent.
HEARTBEAT_INTERVAL_S = 0.5
#: Nominal control-network delay per heartbeat.
DELAY_BASE_S = 0.02
#: Relative jitter on the delay, drawn per beat from the plane's
#: dedicated ``detect`` RNG stream (never perturbs other streams).
DELAY_JITTER = 0.25
#: A detector-driven migration starting within this window after the
#: previous migration's pause ended is chained to it.
CASCADE_WINDOW_S = 5.0


@dataclass
class _Episode:
    """One heartbeat-relevant fault occurrence awaiting detection."""

    node: int
    kind: str
    start_s: float
    detect_end_s: float
    detected_at_s: Optional[float] = None


class DetectionPlane:
    """Heartbeat simulation + detector + verdict routing for one trial."""

    def __init__(
        self,
        sim: "Simulator",
        engine: "StreamingEngine",
        kind: str,
        schedule: Optional[FaultSchedule],
        rng: np.random.Generator,
        duration_s: float,
    ) -> None:
        if kind not in DETECTOR_KINDS:
            raise ValueError(
                f"detector must be one of {DETECTOR_KINDS}, got {kind!r}"
            )
        self.sim = sim
        self.engine = engine
        self.kind = kind
        self.rng = rng
        self.duration_s = duration_s
        workers = engine.cluster.workers
        self._tracked: Set[int] = set(range(workers))
        self._dead: Set[int] = set()
        self._down_until: Dict[int, float] = {}
        self._suspected: Set[int] = set()
        self._next_emit: Dict[int, float] = {
            n: HEARTBEAT_INTERVAL_S for n in range(workers)
        }
        self._migration_until = 0.0
        self._chain_until = float("-inf")
        self._chain_depth = 0
        self._episodes: List[_Episode] = []
        self._verdicts: List[VerdictEvent] = []
        self._per_node_suspicions: Dict[int, int] = {}
        self._actions = 0
        self._migration_pause_total = 0.0
        self._spurious_migrations = 0
        self._spurious_node_s = 0.0
        self._cascade_depth_max = 0
        self.detector = self._build_detector(kind)
        # Episode grace: the fault may end just before detection lands;
        # a suspicion within one timeout + a couple of beats of the end
        # still counts as detecting *that* episode.
        self._grace_s = DETECTION_TIMEOUT_S + 2.0 * HEARTBEAT_INTERVAL_S
        events = list(schedule.ordered()) if schedule is not None else []
        sut_events = [e for e in events if not e.driver_side]
        self._flap_down: Dict[int, Tuple[Tuple[float, float], ...]] = {}
        self._degrade: List[DegradingNode] = []
        self._hb_suppressed: List[Tuple[int, int, float, float]] = []
        self._data_cut: List[Tuple[int, float, float]] = []
        self.calm = True
        for event in sut_events:
            if isinstance(event, NodeCrash):
                self.calm = False
                self.sim.schedule_at(event.at_s, self._on_crash, event.nodes)
            elif isinstance(event, ProcessRestart):
                self.calm = False
                self.sim.schedule_at(event.at_s, self._on_restart, event.nodes)
            elif isinstance(event, FlappingNode):
                self.calm = False
                down = event.down_segments()
                self._flap_down[event.node] = (
                    self._flap_down.get(event.node, ()) + down
                )
                self.sim.schedule_at(event.at_s, self._open_episode, event)
            elif isinstance(event, DegradingNode):
                self.calm = False
                self._degrade.append(event)
                self.sim.schedule_at(event.at_s, self._open_episode, event)
            elif isinstance(event, AsymmetricPartition):
                self.calm = False
                if event.direction == "heartbeat":
                    self._hb_suppressed.append(
                        (
                            event.node,
                            event.observers_affected,
                            event.at_s,
                            event.end_s,
                        )
                    )
                else:
                    self._data_cut.append(
                        (event.node, event.at_s, event.end_s)
                    )
                    self.sim.schedule_at(event.at_s, self._open_episode, event)

    @staticmethod
    def _build_detector(kind: str) -> FailureDetector:
        if kind == "timeout":
            return TimeoutDetector(DETECTION_TIMEOUT_S)
        if kind == "phi":
            return PhiAccrualDetector()
        return QuorumDetector(DETECTION_TIMEOUT_S)

    def install(self) -> None:
        """Start the sampling clock.  The plane reads the engine, never
        writes it, except through :meth:`StreamingEngine.
        apply_suspect_migration` on a raise verdict."""
        self.sim.every(HEARTBEAT_INTERVAL_S, self._tick)

    # -- ground truth ------------------------------------------------------

    def _live_by_index(self) -> List[int]:
        return sorted(n for n in self._tracked if n not in self._dead)

    def _on_crash(self, nodes: int) -> None:
        # The engine's injection ran first (it was scheduled earlier at
        # the same timestamp); the plane mirrors the structural outcome
        # on its own node identities: the highest-index live workers die.
        victims = self._live_by_index()[-nodes:]
        now = self.sim.now
        for node in victims:
            self._dead.add(node)
            self._episodes.append(
                _Episode(
                    node=node,
                    kind="crash",
                    start_s=now,
                    detect_end_s=self.duration_s,
                )
            )

    def _on_restart(self, nodes: int) -> None:
        now = self.sim.now
        pause = 0.0
        for entry in reversed(self.engine.fault_log):
            if entry["kind"] == "restart" and entry["at_s"] == now:
                pause = float(entry.get("pause_s", 0.0))
                break
        victims = self._live_by_index()[-nodes:]
        for node in victims:
            until = max(self._down_until.get(node, 0.0), now + pause)
            self._down_until[node] = until
            self._episodes.append(
                _Episode(
                    node=node,
                    kind="restart",
                    start_s=now,
                    detect_end_s=until + self._grace_s,
                )
            )

    def _open_episode(self, event) -> None:
        self._episodes.append(
            _Episode(
                node=event.node,
                kind=event.kind,
                start_s=event.at_s,
                detect_end_s=event.end_s + self._grace_s,
            )
        )

    def _flap_down_at(self, node: int, t: float) -> bool:
        for start, end in self._flap_down.get(node, ()):
            if start <= t < end:
                return True
        return False

    def _degrade_factor_at(self, node: int, t: float) -> float:
        factor = 1.0
        for event in self._degrade:
            if event.node == node:
                factor = min(factor, event.factor_at(t))
        return factor

    def _suppressed(self, node: int, observer: int, t: float) -> bool:
        for n, affected, start, end in self._hb_suppressed:
            if n == node and observer < affected and start <= t < end:
                return True
        return False

    def _faulty(self, node: int, t: float) -> bool:
        """Schedule-derived ground truth: was ``node`` impaired at (or
        within the detection grace just before) ``t``?

        Classification is episode-driven: a node is "faulty" inside any
        of its fault episodes *including* the trailing grace window, so
        a conviction landing just after a real fault cleared is a late
        true positive, not a spurious one.  A flapping node counts as
        faulty for its whole window -- the up slices of a flap are not
        health.  A heartbeat-direction asymmetric partition opens no
        episode: the node is healthy and every suspicion it draws is a
        false positive by construction."""
        if node in self._dead:
            return True
        if t < self._down_until.get(node, float("-inf")):
            return True
        for episode in self._episodes:
            if episode.node == node and episode.start_s <= t <= episode.detect_end_s:
                return True
        return False

    def _structurally_live(self, node: int, t: float) -> bool:
        """Can the engine still evict this node?  Crashed and
        mid-restart nodes are already the recovery machinery's problem;
        acting on them would double-count the fault."""
        if node in self._dead:
            return False
        if t < self._down_until.get(node, float("-inf")):
            return False
        return True

    # -- sampling clock ----------------------------------------------------

    def _tick(self, sim: "Simulator") -> None:
        if self.engine.failed:
            return
        now = sim.now
        self._emit_heartbeats(now)
        self._evaluate(now)

    def _emit_heartbeats(self, now: float) -> None:
        interval = HEARTBEAT_INTERVAL_S
        observers = OBSERVERS if self.kind == "quorum" else 1
        for node in sorted(self._tracked):
            if node in self._dead:
                continue
            while self._next_emit[node] <= now:
                t_emit = self._next_emit[node]
                down_until = self._down_until.get(node, float("-inf"))
                if t_emit < down_until or self._flap_down_at(node, t_emit):
                    # The agent is down with the machine: no beat; it
                    # retries on its own cadence once back up.
                    self._next_emit[node] = t_emit + interval
                    continue
                factor = self._degrade_factor_at(node, t_emit)
                # Fail-slow stretches the agent's event loop: beats are
                # produced every interval / factor -- late, never silent.
                self._next_emit[node] = t_emit + interval / max(factor, 1e-6)
                delay = DELAY_BASE_S * (
                    1.0 + DELAY_JITTER * float(self.rng.random())
                )
                if t_emit < self._migration_until:
                    # Detector-driven state migration saturates the
                    # control path: the beat is produced but never
                    # delivered.  (The jitter draw above still happens,
                    # keeping the RNG consumption schedule-determined.)
                    continue
                arrival = t_emit + delay
                for observer in range(observers):
                    if self._suppressed(node, observer, t_emit):
                        continue
                    self.detector.observe(node, observer, arrival)

    def _evaluate(self, now: float) -> None:
        for node in sorted(self._tracked):
            suspected = self.detector.suspect(node, now)
            if suspected and node not in self._suspected:
                self._raise_suspicion(node, now)
            elif not suspected and node in self._suspected:
                self._suspected.discard(node)
                self._verdicts.append(
                    VerdictEvent(
                        at_s=now,
                        node=node,
                        suspected=False,
                        faulty=self._faulty(node, now),
                    )
                )

    def _raise_suspicion(self, node: int, now: float) -> None:
        self._suspected.add(node)
        faulty = self._faulty(node, now)
        self._verdicts.append(
            VerdictEvent(at_s=now, node=node, suspected=True, faulty=faulty)
        )
        self._per_node_suspicions[node] = (
            self._per_node_suspicions.get(node, 0) + 1
        )
        for episode in self._episodes:
            if (
                episode.node == node
                and episode.detected_at_s is None
                and episode.start_s <= now <= episode.detect_end_s
            ):
                episode.detected_at_s = now
        if not self._structurally_live(node, now):
            return
        outcome = self.engine.apply_suspect_migration(node, spurious=not faulty)
        if outcome is None:
            return
        pause = float(outcome.get("pause_s", 0.0))
        self._actions += 1
        self._migration_pause_total += pause
        if not faulty:
            self._spurious_migrations += 1
            self._spurious_node_s += pause * float(self.engine.billed_nodes)
        if now <= self._chain_until + CASCADE_WINDOW_S:
            self._chain_depth += 1
        else:
            self._chain_depth = 1
        self._cascade_depth_max = max(self._cascade_depth_max, self._chain_depth)
        self._chain_until = max(self._chain_until, now + pause)
        self._migration_until = max(self._migration_until, now + pause)
        # The evicted identity is retired: no re-suspicion loops, which
        # structurally bounds any cascade at the worker count.
        self._tracked.discard(node)
        self._suspected.discard(node)
        self.detector.forget(node)

    # -- metrology ---------------------------------------------------------

    def diagnostics(self) -> Dict[str, float]:
        return {
            "detect.actions": float(self._actions),
            "detect.migration_pause_total_s": self._migration_pause_total,
            "detect.spurious_migrations": float(self._spurious_migrations),
        }

    def finalize(self, result: "TrialResult") -> DetectionMetrics:
        """Condense the verdict stream into a DetectionMetrics record."""
        raises = [v for v in self._verdicts if v.suspected]
        true_pos = sum(1 for v in raises if v.faulty)
        false_pos = len(raises) - true_pos
        latencies = tuple(
            round(e.detected_at_s - e.start_s, 9)
            for e in self._episodes
            if e.detected_at_s is not None
        )
        false_neg = sum(1 for e in self._episodes if e.detected_at_s is None)
        metastable = False
        if self._actions > 0 and not result.failure and self._episodes:
            fault_starts = [e.start_s for e in self._episodes]
            clear_s = max(
                max(e.detect_end_s - self._grace_s for e in self._episodes),
                self._migration_until,
            )
            binned = result.collector.binned_series(EVENT_TIME, bin_s=BIN_S)
            reentered = latency_band_reentered(
                list(binned.times),
                list(binned.values),
                baseline_end_s=min(fault_starts),
                clear_s=clear_s,
            )
            metastable = reentered is False
        return DetectionMetrics(
            detector=self.kind,
            heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
            calm=self.calm,
            episodes=len(self._episodes),
            true_positives=true_pos,
            false_positives=false_pos,
            false_negatives=false_neg,
            suspicions=len(raises),
            actions=self._actions,
            spurious_migrations=self._spurious_migrations,
            spurious_migration_node_s=self._spurious_node_s,
            migration_pause_s_total=self._migration_pause_total,
            cascade_depth_max=self._cascade_depth_max,
            metastable=metastable,
            detection_latencies_s=latencies,
            verdicts=tuple(self._verdicts),
            per_node_suspicions=dict(self._per_node_suspicions),
        )
