"""Failure detectors over seeded heartbeat observations.

A :class:`FailureDetector` consumes heartbeat *arrivals* -- tuples of
``(node, observer, arrival_time)`` delivered by the
:class:`~repro.detect.plane.DetectionPlane` on the simulated sampling
clock -- and answers one question at evaluation time: *is this node
suspected right now?*  Detectors are deliberately dumb about ground
truth; classifying a suspicion as a true or false positive is the
plane's job.

Three contracts ship:

- :class:`TimeoutDetector` -- today's semantics made explicit: suspect
  when no heartbeat has arrived for ``timeout_s``.  The boundary is
  *inclusive* (suspected at exactly ``timeout_s``), matching the
  ``plan_straggler`` detection boundary.
- :class:`PhiAccrualDetector` -- Hayashibara et al.'s phi-accrual
  detector: suspicion is a continuous value ``phi = -log10(P(a
  heartbeat this late or later))`` under a normal model of the node's
  recent inter-arrival history, convicted at :data:`PHI_THRESHOLD`.
- :class:`QuorumDetector` -- k-of-n: each of :data:`OBSERVERS`
  independent control-plane observers runs its own timeout; the node is
  suspected only when at least :data:`QUORUM_K` agree.  An asymmetric
  partition that blinds fewer than ``QUORUM_K`` observers cannot split
  it.

All detectors clamp negative elapsed times to zero: the plane
timestamps arrivals with their (jittered) network delay, so an arrival
can be dated marginally after the tick that evaluates it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, Dict, Tuple

#: Phi-accrual conviction level (``phi >= PHI_THRESHOLD`` suspects).
PHI_THRESHOLD = 8.0
#: Inter-arrival intervals a phi-accrual detector remembers per node.
PHI_WINDOW = 64
#: Floor of the phi-accrual model's deviation.
PHI_MIN_STD_S = 0.02
#: Cap of the phi-accrual model's deviation.
PHI_MAX_STD_S = 0.1
#: Intervals a phi-accrual detector needs before it suspects anything.
PHI_MIN_HISTORY = 3
#: Independent control-plane observers of the quorum detector.
OBSERVERS = 3
#: Observers that must agree before the quorum detector suspects.
QUORUM_K = 2


class FailureDetector(ABC):
    """Verdict contract shared by every detector implementation."""

    name = "detector"

    @abstractmethod
    def observe(self, node: int, observer: int, arrival_s: float) -> None:
        """Record a heartbeat from ``node`` arriving at ``observer``."""

    @abstractmethod
    def suspect(self, node: int, now_s: float) -> bool:
        """True when ``node`` is suspected at ``now_s``."""

    @abstractmethod
    def forget(self, node: int) -> None:
        """Drop all state for ``node`` (it was migrated away and its
        identity retired; a stale history must not leak into verdicts
        about anything else)."""


class TimeoutDetector(FailureDetector):
    """Fixed-timeout detection from a single observer (observer 0)."""

    name = "timeout"

    def __init__(self, timeout_s: float) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self._last_seen: Dict[int, float] = {}

    def observe(self, node: int, observer: int, arrival_s: float) -> None:
        if observer != 0:
            return
        prev = self._last_seen.get(node)
        if prev is None or arrival_s > prev:
            self._last_seen[node] = arrival_s

    def suspect(self, node: int, now_s: float) -> bool:
        last = self._last_seen.get(node)
        if last is None:
            return False
        return max(0.0, now_s - last) >= self.timeout_s

    def forget(self, node: int) -> None:
        self._last_seen.pop(node, None)


def _phi(elapsed_s: float, mean_s: float, std_s: float) -> float:
    """Hayashibara's suspicion value: ``-log10(P(arrival >= elapsed))``
    under ``N(mean, std)``."""
    z = (elapsed_s - mean_s) / (std_s * math.sqrt(2.0))
    survival = 0.5 * math.erfc(z)
    return -math.log10(max(survival, 1e-300))


class PhiAccrualDetector(FailureDetector):
    """Adaptive accrual detection over inter-arrival history
    (observer 0 only; quorum composition is a separate detector).

    :data:`PHI_MIN_STD_S` floors the sample deviation so that a
    perfectly regular heartbeat stream does not make the detector
    infinitely trigger-happy; :data:`PHI_MAX_STD_S` caps it so a slowly
    degrading stream cannot dilate the model fast enough to hide inside
    it (unbounded variance adaptation is exactly how accrual detectors
    go blind to fail-slow ramps -- production implementations bound the
    history for the same reason).  :data:`PHI_MIN_HISTORY` intervals are
    required before any suspicion (a cold detector stays silent rather
    than guessing).
    """

    name = "phi"

    def __init__(self) -> None:
        self._last_seen: Dict[int, float] = {}
        self._intervals: Dict[int, Deque[float]] = {}

    def observe(self, node: int, observer: int, arrival_s: float) -> None:
        if observer != 0:
            return
        prev = self._last_seen.get(node)
        if prev is not None and arrival_s > prev:
            history = self._intervals.setdefault(
                node, deque(maxlen=PHI_WINDOW)
            )
            history.append(arrival_s - prev)
        if prev is None or arrival_s > prev:
            self._last_seen[node] = arrival_s

    def phi(self, node: int, now_s: float) -> float:
        """Current suspicion level for ``node`` (0.0 when cold)."""
        last = self._last_seen.get(node)
        history = self._intervals.get(node)
        if last is None or history is None or len(history) < PHI_MIN_HISTORY:
            return 0.0
        n = len(history)
        mean = sum(history) / n
        var = sum((x - mean) ** 2 for x in history) / n
        std = min(max(math.sqrt(var), PHI_MIN_STD_S), PHI_MAX_STD_S)
        return _phi(max(0.0, now_s - last), mean, std)

    def suspect(self, node: int, now_s: float) -> bool:
        return self.phi(node, now_s) >= PHI_THRESHOLD

    def forget(self, node: int) -> None:
        self._last_seen.pop(node, None)
        self._intervals.pop(node, None)


class QuorumDetector(FailureDetector):
    """:data:`QUORUM_K`-of-:data:`OBSERVERS` timeout agreement."""

    name = "quorum"

    def __init__(self, timeout_s: float) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self._last_seen: Dict[Tuple[int, int], float] = {}

    def observe(self, node: int, observer: int, arrival_s: float) -> None:
        if not 0 <= observer < OBSERVERS:
            return
        key = (node, observer)
        prev = self._last_seen.get(key)
        if prev is None or arrival_s > prev:
            self._last_seen[key] = arrival_s

    def suspect(self, node: int, now_s: float) -> bool:
        votes = 0
        for observer in range(OBSERVERS):
            last = self._last_seen.get((node, observer))
            if last is None:
                continue
            if max(0.0, now_s - last) >= self.timeout_s:
                votes += 1
        return votes >= QUORUM_K

    def forget(self, node: int) -> None:
        for observer in range(OBSERVERS):
            self._last_seen.pop((node, observer), None)
