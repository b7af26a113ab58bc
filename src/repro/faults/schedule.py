"""Typed fault events and the timeline that injects them.

The paper treats failures only as trial-ending conditions (Section
VI-A); the earlier node-failure extension modelled exactly one kill
event.  Vogel et al. ("A Comprehensive Benchmarking Analysis of Fault
Recovery in Stream Processing Frameworks", 2024) make the case that
fault *recovery* is a benchmark dimension of its own: recovery time,
catch-up throughput, and data loss/duplication under configurable
checkpointing.  A :class:`FaultSchedule` is the workload side of that
benchmark: an arbitrary, repeatable timeline of typed fault events
injected into the SUT mid-trial.

Event types (all driver-side injections; the engine models react):

- :class:`NodeCrash` -- permanent loss of worker nodes.  Killing the
  *last* worker is a :class:`~repro.sim.failures.SutFailure`, i.e. a
  failed trial.
- :class:`ProcessRestart` -- a worker process dies and is restarted by
  the resource manager: the capacity returns after the engine's derived
  recovery pause, but in-memory state on that worker is exposed exactly
  as in a crash.
- :class:`SlowNode` -- straggler degradation: ``nodes`` workers run at
  ``factor`` of their normal speed for ``duration_s``.
- :class:`NetworkPartition` -- the SUT is transiently cut off from the
  driver queues: no ingest for ``duration_s`` while generation (and the
  queue backlog) continues.
- :class:`QueueDisconnect` -- a single driver queue becomes unreachable
  for ``duration_s``; the engine's watermark stalls on that queue, so
  windows halt until it reconnects and the source catches up.

Gray-failure events (Huang et al., "Gray Failure: The Achilles' Heel
of Cloud-Scale Systems", HotOS 2017) target one *named* worker
(``node``) and are the workloads the detection plane
(:mod:`repro.detect`) is benchmarked against:

- :class:`FlappingNode` -- a worker oscillates between up and down on
  seeded duty cycles: too short-lived for a fixed timeout, pure noise
  for naive inter-arrival statistics.
- :class:`DegradingNode` -- fail-slow: the worker's capacity (and its
  heartbeat cadence) ramps down over the fault window instead of
  stopping, so there is no discrete "down" edge to detect.
- :class:`AsymmetricPartition` -- one-way link loss: heartbeats and
  data diverge.  In the default ``heartbeat`` direction the node keeps
  processing but some observers stop hearing from it (false-positive
  bait that can split a quorum); in the ``data`` direction ingest is
  cut while heartbeats keep flowing (a detector-blind outage).

Every event carries ``at_s``, the injection time.  Events may repeat
and overlap; :meth:`FaultSchedule.validate_against` rejects events
scheduled at or after the trial end (they would silently never fire)
and ambiguous same-node overlaps between capacity-modulating faults
(see its docstring for the exact composition contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one fault injected at ``at_s`` seconds into the trial."""

    at_s: float

    #: Short tag used in logs, diagnostics, and CLI parsing.
    kind = "fault"

    #: Driver-side faults injure the *measurement plane* (generators,
    #: driver queues) and are routed to the BenchmarkDriver instead of
    #: the engine (see repro.metrology).
    driver_side = False

    def __post_init__(self) -> None:
        if self.at_s <= 0:
            raise ValueError(f"at_s must be positive, got {self.at_s}")

    @property
    def end_s(self) -> float:
        """Time at which the *injection* is over (instantaneous faults
        end when they fire; transient faults end after their duration)."""
        return self.at_s

    def describe(self) -> str:
        return f"{self.kind}@{self.at_s:g}s"


@dataclass(frozen=True)
class _TransientFaultEvent(FaultEvent):
    """A fault with a bounded duration after which the injected
    condition clears on its own."""

    duration_s: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}"
            )

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s

    def describe(self) -> str:
        return f"{self.kind}@{self.at_s:g}s for {self.duration_s:g}s"


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Kill ``nodes`` workers permanently (capacity never returns)."""

    nodes: int = 1
    kind = "crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")


@dataclass(frozen=True)
class ProcessRestart(FaultEvent):
    """Restart ``nodes`` worker processes: capacity is lost for the
    engine's derived recovery pause, then returns."""

    nodes: int = 1
    kind = "restart"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")


@dataclass(frozen=True)
class SlowNode(_TransientFaultEvent):
    """``nodes`` workers degrade to ``factor`` of their speed (a
    straggler: disk contention, noisy neighbour, thermal throttling)."""

    nodes: int = 1
    factor: float = 0.5
    kind = "slow"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(
                f"factor must be in (0, 1), got {self.factor}"
            )


@dataclass(frozen=True)
class NetworkPartition(_TransientFaultEvent):
    """The SUT loses network reachability to every driver queue for
    ``duration_s``; internal processing continues on buffered data."""

    kind = "partition"


@dataclass(frozen=True)
class QueueDisconnect(_TransientFaultEvent):
    """One driver queue (``queue_index``) becomes unreachable for
    ``duration_s``.  Unlike the paper's hard connection-drop rule (an
    *overload* symptom that ends the trial), this is an injected
    transient network fault: the connection comes back and the SUT must
    catch up the stranded backlog."""

    queue_index: int = 0
    kind = "disconnect"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.queue_index < 0:
            raise ValueError(
                f"queue_index must be >= 0, got {self.queue_index}"
            )


@dataclass(frozen=True)
class GeneratorCrash(FaultEvent):
    """One data-generator instance dies permanently.

    The paper's metrology assumes an over-provisioned generator fleet;
    this fault tests that assumption: after a detection window the
    fleet rebalances the dead instance's rate share over the survivors
    (capped by their provisioned headroom,
    :data:`~repro.core.generator.OVERPROVISION_FACTOR`),
    and the dead instance's queue is retired once drained so the SUT's
    watermark is not wedged forever.  Without redistribution the trial
    would silently measure a *lower* offered rate than reported."""

    instance: int = 0
    kind = "gencrash"
    driver_side = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.instance < 0:
            raise ValueError(
                f"instance must be >= 0, got {self.instance}"
            )


@dataclass(frozen=True)
class DriverQueueLoss(FaultEvent):
    """One driver queue's in-memory backlog is lost (the driver node's
    process was OOM-killed or rebooted).  The queued weight leaves the
    driver ledger through ``lost`` (``pushed == pulled + queued + shed
    + lost``) -- the instrument itself is at-most-once here, and the
    accounting must say so instead of letting the loss masquerade as
    SUT throughput."""

    queue_index: int = 0
    kind = "queueloss"
    driver_side = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.queue_index < 0:
            raise ValueError(
                f"queue_index must be >= 0, got {self.queue_index}"
            )


@dataclass(frozen=True)
class DriverNodeSlow(_TransientFaultEvent):
    """One generator instance degrades to ``factor`` of its configured
    rate for ``duration_s`` (a straggling *driver* node): the offered
    load silently dips below what the trial claims to offer."""

    instance: int = 0
    factor: float = 0.5
    kind = "driverslow"
    driver_side = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.instance < 0:
            raise ValueError(
                f"instance must be >= 0, got {self.instance}"
            )
        if not 0.0 < self.factor < 1.0:
            raise ValueError(
                f"factor must be in (0, 1), got {self.factor}"
            )


@dataclass(frozen=True)
class GrayFaultEvent(_TransientFaultEvent):
    """A gray failure pinned to one named worker ``node``.

    Unlike :class:`SlowNode` (which degrades the ``nodes`` *lowest*
    worker indices anonymously and is invisible to the control plane),
    a gray fault carries worker identity so the detection plane can
    attribute heartbeat evidence, verdicts, and false positives to a
    specific node.

    To the engine a gray fault is data, not a code path: each kind
    says when its node runs at what share of its speed
    (:meth:`capacity_segments`) and what its fault-log entry carries
    (:meth:`log_fields`).  No state is exposed and no pause is served
    -- the process survives, its machine blinks or slows.
    """

    node: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")

    def capacity_segments(self) -> Tuple[Tuple[float, float, float], ...]:
        """Absolute ``(start, end, factor)`` windows in which ``node``
        runs at ``factor`` of its speed (0.0 = contributes nothing).
        A pure function of the event's own fields, so the engine and
        the detection plane derive the identical ground truth
        independently.  Default: the data plane never notices."""
        return ()

    def log_fields(self) -> Dict[str, float]:
        """What the engine's fault-log entry records besides kind, time
        and pause."""
        return {"node": float(self.node), "duration_s": self.duration_s}

    def describe(self) -> str:
        return (
            f"{self.kind}@{self.at_s:g}s for {self.duration_s:g}s"
            f" on node {self.node}"
        )


@dataclass(frozen=True)
class FlappingNode(GrayFaultEvent):
    """Worker ``node`` oscillates between up and down on seeded duty
    cycles for ``duration_s``.

    Each cycle is ``period_s`` long on average (jittered by the event's
    own ``seed``); the node is up for the first part of the cycle and
    down for roughly ``duty`` of it.  Down segments suppress both the
    node's processing capacity and its heartbeats, so a fixed-timeout
    detector only fires when an individual down segment outlasts the
    timeout, while an adaptive detector can convict on the unstable
    inter-arrival history.
    """

    period_s: float = 6.0
    duty: float = 0.5
    seed: int = 0
    kind = "flap"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def down_segments(self) -> Tuple[Tuple[float, float], ...]:
        """Absolute ``(start, end)`` down intervals, a pure function of
        the event's own fields (so the engine and the detection plane
        derive the identical ground truth independently)."""
        rng = np.random.default_rng(np.random.SeedSequence([0x11AB, self.seed]))
        segments: List[Tuple[float, float]] = []
        t = self.at_s
        end = self.end_s
        while t < end:
            cycle = self.period_s * float(rng.uniform(0.75, 1.25))
            down = min(cycle * self.duty * float(rng.uniform(0.7, 1.3)), cycle)
            seg_start = min(t + (cycle - down), end)
            seg_end = min(t + cycle, end)
            if seg_end > seg_start:
                segments.append((seg_start, seg_end))
            t += cycle
        return tuple(segments)

    def capacity_segments(self) -> Tuple[Tuple[float, float, float], ...]:
        # Like a transient one-node outage during each down segment;
        # between segments the node is fully back.
        return tuple((start, end, 0.0) for start, end in self.down_segments())

    def log_fields(self) -> Dict[str, float]:
        return {
            "node": float(self.node),
            "segments": float(len(self.down_segments())),
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class DegradingNode(GrayFaultEvent):
    """Fail-slow: worker ``node`` ramps from full speed down to
    ``floor_factor`` of its capacity over ``duration_s``.

    The ramp is discretized into ``steps`` piecewise-constant segments
    (step ``i`` runs at ``1 - (1 - floor_factor) * (i + 1) / steps``),
    so the first step is already degraded and the last step sits at the
    floor.  The node's heartbeat cadence stretches by the same factor:
    a fail-slow node is late, never silent, which is exactly what a
    fixed timeout is worst at.
    """

    floor_factor: float = 0.25
    steps: int = 8
    kind = "degrade"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.floor_factor < 1.0:
            raise ValueError(
                f"floor_factor must be in (0, 1), got {self.floor_factor}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def capacity_segments(self) -> Tuple[Tuple[float, float, float], ...]:
        """Absolute ``(start, end, factor)`` ramp segments."""
        step_s = self.duration_s / self.steps
        out: List[Tuple[float, float, float]] = []
        for i in range(self.steps):
            factor = 1.0 - (1.0 - self.floor_factor) * (i + 1) / self.steps
            out.append((self.at_s + i * step_s, self.at_s + (i + 1) * step_s, factor))
        return tuple(out)

    def factor_at(self, now_s: float) -> float:
        """Capacity factor in effect at ``now_s`` (1.0 outside the window)."""
        for start, end, factor in self.capacity_segments():
            if start <= now_s < end:
                return factor
        return 1.0

    def log_fields(self) -> Dict[str, float]:
        return {
            "node": float(self.node),
            "floor_factor": self.floor_factor,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class AsymmetricPartition(GrayFaultEvent):
    """One-way link loss on worker ``node`` for ``duration_s``.

    ``direction="heartbeat"`` (default): the node's heartbeats stop
    reaching the first ``observers_affected`` control-plane observers
    while the data path is untouched -- the node is healthy, so every
    suspicion it draws is a false positive, and a quorum detector
    splits only when ``observers_affected`` reaches its ``k``.

    ``direction="data"``: the node's ingest link is cut (modelled as a
    full ingest stall, like :class:`NetworkPartition`) while heartbeats
    keep flowing -- a real outage every heartbeat detector is blind to.
    """

    observers_affected: int = 1
    direction: str = "heartbeat"
    kind = "asympart"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.observers_affected < 1:
            raise ValueError(
                f"observers_affected must be >= 1, got {self.observers_affected}"
            )
        if self.direction not in ("heartbeat", "data"):
            raise ValueError(
                f"direction must be 'heartbeat' or 'data', got {self.direction!r}"
            )

    def describe(self) -> str:
        return (
            f"{self.kind}@{self.at_s:g}s for {self.duration_s:g}s"
            f" on node {self.node} ({self.direction})"
        )

    def capacity_segments(self) -> Tuple[Tuple[float, float, float], ...]:
        # The ``data`` direction cuts the node's ingest for the whole
        # window (like a one-node partition); the ``heartbeat``
        # direction is invisible to the data plane entirely.
        if self.direction == "data":
            return ((self.at_s, self.end_s, 0.0),)
        return ()

    def log_fields(self) -> Dict[str, float]:
        return {
            "node": float(self.node),
            "data_cut": 1.0 if self.direction == "data" else 0.0,
            "duration_s": self.duration_s,
        }


#: Gray faults that modulate the capacity of their named node (and so
#: must not overlap another capacity fault on the same node).
GRAY_CAPACITY_KINDS = ("flap", "degrade")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable timeline of fault events for one trial.

    Events need not be given in order and may repeat; injection order is
    by ``at_s`` (ties preserve the given order, matching the simulator's
    deterministic (time, sequence) event ordering).
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"FaultSchedule events must be FaultEvent, got {event!r}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.ordered())

    def ordered(self) -> Tuple[FaultEvent, ...]:
        """Events sorted by injection time (stable for ties)."""
        return tuple(sorted(self.events, key=lambda e: e.at_s))

    def validate_against(self, duration_s: float) -> None:
        """Reject events that could never fire within the trial, and
        ambiguous overlaps between capacity faults on the same node.

        Historically a ``fail_at_s`` past the trial end was silently
        ignored -- the trial ran as a healthy baseline while claiming to
        be a failure experiment.  That is now an error.

        Overlap contract (pinned by ``tests/faults/test_schedule.py``):

        - **Legacy transients compose deterministically.**  Overlapping
          :class:`SlowNode` windows stack *multiplicatively*, with each
          event's riding multiplier frozen at its injection time; a
          crash or restart landing inside a slow window keeps the
          already-frozen multiplier until the slow window expires.
          These compositions are well-defined (and the chaos soak draws
          them), so they are allowed, not rejected.
        - **Gray capacity faults do not compose.**  A
          :class:`FlappingNode` or :class:`DegradingNode` owns its
          node's capacity *and* heartbeat timeline for its window;
          overlapping it with another gray capacity fault on the same
          node -- or with a :class:`SlowNode` whose anonymous target
          range ``[0, nodes)`` contains that node -- would make the
          detection plane's ground truth ambiguous.  Such schedules are
          rejected here instead of silently stacking.
        """
        late = [e for e in self.events if e.at_s >= duration_s]
        if late:
            listing = ", ".join(e.describe() for e in late)
            raise ValueError(
                f"fault events scheduled at/after the trial end "
                f"({duration_s:g}s) would never fire: {listing}"
            )
        gray = [
            e
            for e in self.ordered()
            if isinstance(e, GrayFaultEvent) and e.kind in GRAY_CAPACITY_KINDS
        ]
        for i, a in enumerate(gray):
            for b in gray[i + 1 :]:
                if a.node == b.node and a.at_s < b.end_s and b.at_s < a.end_s:
                    raise ValueError(
                        f"gray capacity faults overlap on node {a.node}: "
                        f"{a.describe()} vs {b.describe()}; their heartbeat "
                        f"and capacity effects do not compose -- separate "
                        f"them in time or target different nodes"
                    )
        slows = [e for e in self.ordered() if isinstance(e, SlowNode)]
        for g in gray:
            for s in slows:
                if g.node < s.nodes and g.at_s < s.end_s and s.at_s < g.end_s:
                    raise ValueError(
                        f"{g.describe()} overlaps {s.describe()} whose "
                        f"target range [0, {s.nodes}) contains node "
                        f"{g.node}; a gray fault owns its node's capacity "
                        f"for its window -- move the slow window or "
                        f"retarget the gray fault"
                    )

    def describe(self) -> str:
        if not self.events:
            return "no faults"
        return "; ".join(e.describe() for e in self.ordered())
