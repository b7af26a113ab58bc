"""The discrete-event simulator at the bottom of the stack.

Every moving part of the reproduction -- data generators, driver queues,
engine ticks, window triggers, GC pauses, mini-batch job completions --
is an event scheduled on a single :class:`Simulator` instance.  The
simulator is strictly deterministic: events fire in (time, sequence)
order, and all randomness is drawn from seeded streams
(:mod:`repro.sim.rng`), so a benchmark run is reproducible bit-for-bit.

The simulated clock is a float in **seconds**.  Components that need a
regular heartbeat (e.g. a generator producing a cohort of events every
tick) register a :class:`PeriodicProcess` via :meth:`Simulator.every`;
a run of one-offs known up front (Storm's per-key window outputs) is one
:meth:`Simulator.schedule_series`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


@dataclass(frozen=True)
class EventHandle:
    """Opaque handle for a scheduled event; pass to :meth:`Simulator.cancel`.

    The handle is safe to cancel multiple times, and safe to cancel after
    the event has fired (both are no-ops).
    """

    time: float
    seq: int


@dataclass
class _Event:
    time: float
    seq: int
    callback: Callable[..., None]
    args: Tuple[Any, ...]
    cancelled: bool = False


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._now = 0.0
        # (time, seq, event): seq is unique, so ordering is decided by
        # the first two fields in C and the event is never compared.
        self._heap: List[Tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self._live: dict[int, _Event] = {}
        self._series_left = 0
        self._running = False
        # The time bound of the loop in progress (read while _running).
        self._until = math.inf

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still scheduled (excluding cancelled ones),
        unfired series items included."""
        return len(self._live) + self._series_left

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        seq = next(self._seq)
        event = _Event(time=time, seq=seq, callback=callback, args=args)
        heapq.heappush(self._heap, (time, seq, event))
        self._live[seq] = event
        return EventHandle(time=time, seq=seq)

    def schedule_series(
        self,
        times: Sequence[float],
        callback: Callable[[Any], None],
        items: Sequence[Any],
    ) -> None:
        """Schedule ``callback(items[i])`` at ``times[i]`` for every ``i``.

        Fires exactly as ``schedule_at(times[i], callback, items[i])`` in
        a loop would: the series reserves that loop's ``n`` consecutive
        sequence numbers, so ties with other events break the same way
        and every event scheduled later keeps its number.  It holds one
        heap entry.  After item ``i`` fires, item ``i + 1`` runs at once,
        without a heap round trip, when the loop is still running, its
        time is within the loop's bound (:meth:`run_until`'s ``time``;
        :meth:`run` has none, a bare :meth:`step` never runs on) and its
        (time, seq) sorts before the heap top's -- a cancelled top
        included, which only sends the item back to the heap.  Otherwise
        the item goes back to the heap under its reserved number.
        ``times`` must be non-decreasing and start at or after ``now``;
        a series cannot be cancelled.
        """
        n = len(times)
        if len(items) != n:
            raise SimulationError(
                f"series of {n} times has {len(items)} items"
            )
        if n == 0:
            return
        if times[0] < self._now:
            raise SimulationError(
                f"cannot schedule at t={times[0]:.6f} < now={self._now:.6f}"
            )
        for i in range(1, n):
            if times[i] < times[i - 1]:
                raise SimulationError(
                    f"series times decrease at item {i}: "
                    f"{times[i]:.6f} < {times[i - 1]:.6f}"
                )
        first = next(self._seq)
        self._seq = itertools.count(first + n)
        self._series_left += n
        self._push_series((times, callback, items, first), 0)

    def _push_series(self, series: tuple, i: int) -> None:
        """Put item ``i`` of ``series`` (times, callback, items, first
        seq) on the heap under its reserved seq."""
        times, _, _, first = series
        time, seq = times[i], first + i
        event = _Event(time, seq, self._fire_series, (series, i))
        heapq.heappush(self._heap, (time, seq, event))

    def _fire_series(self, series: tuple, i: int) -> None:
        """Fire item ``i``, then every next item that would be the next
        event anyway (:meth:`schedule_series`'s rule)."""
        times, callback, items, first = series
        n = len(times)
        heap = self._heap
        while True:
            self._series_left -= 1
            try:
                callback(items[i])
            except BaseException:
                # The rest stays scheduled, as separate events would.
                if i + 1 < n:
                    self._push_series(series, i + 1)
                raise
            i += 1
            if i == n:
                return
            time = times[i]
            if not self._running or time > self._until:
                break
            if heap:
                top = heap[0]
                if time > top[0] or (time == top[0] and first + i > top[1]):
                    break
            self._now = time
        self._push_series(series, i)

    def cancel(self, handle: Optional[EventHandle]) -> bool:
        """Cancel a scheduled event.  Returns True if it was still pending."""
        if handle is None:
            return False
        event = self._live.pop(handle.seq, None)
        if event is None:
            return False
        event.cancelled = True
        return True

    def every(
        self,
        interval: float,
        callback: Callable[["Simulator"], None],
        start: Optional[float] = None,
    ) -> "PeriodicProcess":
        """Register a periodic process firing every ``interval`` seconds.

        ``callback`` receives the simulator so it can read the clock and
        schedule follow-up events.  The first firing happens at ``start``
        (defaults to ``now + interval``).
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        process = PeriodicProcess(self, interval, callback)
        process.start_at(self._now + interval if start is None else start)
        return process

    def _pop_next(self) -> Optional[_Event]:
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                self._live.pop(event.seq, None)
                return event
        return None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the heap is empty."""
        event = self._pop_next()
        if event is None:
            return False
        self._now = event.time
        event.callback(*event.args)
        return True

    def run(self) -> None:
        """Run until no events remain."""
        self._until = math.inf
        self._running = True
        try:
            while self._running and self.step():
                pass
        finally:
            self._running = False

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= ``time``; advance clock to it."""
        if time < self._now:
            raise SimulationError(
                f"run_until({time:.6f}) is before now={self._now:.6f}"
            )
        self._until = time
        self._running = True
        try:
            while self._running and self._heap:
                head_time, _, head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if head_time > time:
                    break
                self.step()
        finally:
            self._running = False
        self._now = max(self._now, time)

    def stop(self) -> None:
        """Stop a :meth:`run`/:meth:`run_until` loop after the current event."""
        self._running = False


class PeriodicProcess:
    """A self-rescheduling periodic callback.

    Created through :meth:`Simulator.every`.  ``stop()`` halts it; the
    interval can be changed on the fly (used by rate-profile changes).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[Simulator], None],
    ) -> None:
        self._sim = sim
        self.interval = float(interval)
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._stopped = False
        self.fire_count = 0

    def start_at(self, time: float) -> None:
        if self._handle is not None:
            raise SimulationError("periodic process already started")
        self._handle = self._sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._handle = None
        self.fire_count += 1
        self._callback(self._sim)
        if not self._stopped:
            self._handle = self._sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Permanently halt the process."""
        self._stopped = True
        self._sim.cancel(self._handle)
        self._handle = None

    @property
    def stopped(self) -> bool:
        return self._stopped
