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
  recent inter-arrival history, convicted at ``threshold``.
- :class:`QuorumDetector` -- k-of-n: each of ``observers`` independent
  control-plane observers runs its own timeout; the node is suspected
  only when at least ``k`` agree.  An asymmetric partition that blinds
  fewer than ``k`` observers cannot split it.

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

    ``min_std_s`` floors the sample deviation so that a perfectly
    regular heartbeat stream does not make the detector infinitely
    trigger-happy; ``max_std_s`` caps it so a slowly degrading stream
    cannot dilate the model fast enough to hide inside it (unbounded
    variance adaptation is exactly how accrual detectors go blind to
    fail-slow ramps -- production implementations bound the history for
    the same reason).  ``min_history`` arrivals are required before any
    suspicion (a cold detector stays silent rather than guessing).
    """

    name = "phi"

    def __init__(
        self,
        threshold: float = PHI_THRESHOLD,
        window: int = PHI_WINDOW,
        min_std_s: float = PHI_MIN_STD_S,
        max_std_s: float = PHI_MAX_STD_S,
        min_history: int = 3,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if min_std_s <= 0:
            raise ValueError(f"min_std_s must be positive, got {min_std_s}")
        if max_std_s < min_std_s:
            raise ValueError(
                f"max_std_s must be >= min_std_s, got {max_std_s}"
            )
        if min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {min_history}")
        self.threshold = threshold
        self.window = window
        self.min_std_s = min_std_s
        self.max_std_s = max_std_s
        self.min_history = min_history
        self._last_seen: Dict[int, float] = {}
        self._intervals: Dict[int, Deque[float]] = {}

    def observe(self, node: int, observer: int, arrival_s: float) -> None:
        if observer != 0:
            return
        prev = self._last_seen.get(node)
        if prev is not None and arrival_s > prev:
            history = self._intervals.setdefault(
                node, deque(maxlen=self.window)
            )
            history.append(arrival_s - prev)
        if prev is None or arrival_s > prev:
            self._last_seen[node] = arrival_s

    def phi(self, node: int, now_s: float) -> float:
        """Current suspicion level for ``node`` (0.0 when cold)."""
        last = self._last_seen.get(node)
        history = self._intervals.get(node)
        if last is None or history is None or len(history) < self.min_history:
            return 0.0
        n = len(history)
        mean = sum(history) / n
        var = sum((x - mean) ** 2 for x in history) / n
        std = min(max(math.sqrt(var), self.min_std_s), self.max_std_s)
        return _phi(max(0.0, now_s - last), mean, std)

    def suspect(self, node: int, now_s: float) -> bool:
        return self.phi(node, now_s) >= self.threshold

    def forget(self, node: int) -> None:
        self._last_seen.pop(node, None)
        self._intervals.pop(node, None)


class QuorumDetector(FailureDetector):
    """``k``-of-``observers`` timeout agreement."""

    name = "quorum"

    def __init__(
        self, timeout_s: float, observers: int = OBSERVERS, k: int = QUORUM_K
    ) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if observers < 1:
            raise ValueError(f"observers must be >= 1, got {observers}")
        if not 1 <= k <= observers:
            raise ValueError(
                f"k must be in [1, observers={observers}], got {k}"
            )
        self.timeout_s = timeout_s
        self.observers = observers
        self.k = k
        self._last_seen: Dict[Tuple[int, int], float] = {}

    def observe(self, node: int, observer: int, arrival_s: float) -> None:
        if not 0 <= observer < self.observers:
            return
        key = (node, observer)
        prev = self._last_seen.get(key)
        if prev is None or arrival_s > prev:
            self._last_seen[key] = arrival_s

    def suspect(self, node: int, now_s: float) -> bool:
        votes = 0
        for observer in range(self.observers):
            last = self._last_seen.get((node, observer))
            if last is None:
                continue
            if max(0.0, now_s - last) >= self.timeout_s:
                votes += 1
        return votes >= self.k

    def forget(self, node: int) -> None:
        for observer in range(self.observers):
            self._last_seen.pop((node, observer), None)
