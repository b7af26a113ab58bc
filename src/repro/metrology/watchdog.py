"""Trial watchdog: abort hung or stalled trials, retry with backoff.

A sweep is only as robust as its slowest trial: one wedged run (a
pathological parameter draw, an engine bug, a host hiccup) stalls the
whole bisection.  The watchdog rides on the driver via the same
``driver_hook`` seam of :func:`~repro.core.experiment.run_experiment`
and enforces two budgets:

- **deadline** (``timeout_s``): wall-clock seconds one attempt may take;
- **progress** (``stall_s``): simulated seconds the driver queues may go
  without any pushed *or* pulled weight changing.

Tripping either raises a :class:`~repro.sim.failures.MeasurementFault`
out of the simulation loop; the driver's existing failure path converts
it into a failed :class:`TrialResult` that keeps partial diagnostics.
:func:`repro.core.experiment.run_experiment_with_watchdog` then retries
under capped exponential backoff, retaining an :class:`AttemptRecord`
per attempt so a flaky trial's history is never silently discarded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.sim.failures import MeasurementFault, TrialStalled, TrialTimeout

#: Simulated seconds between watchdog checks.
CHECK_INTERVAL_S = 1.0
#: Multiplier applied to the backoff sleep per further retry.
BACKOFF_FACTOR = 2.0
#: Upper bound on any single backoff sleep.
BACKOFF_CAP_S = 30.0


@dataclass(frozen=True)
class WatchdogSpec:
    """Budgets and retry policy for watched trials.

    Every retry bumps the spec seed: a deterministic simulator replays
    the same wedge bit-for-bit, so retrying the identical seed could
    only help against *wall-clock* flakiness, not stalls."""

    timeout_s: Optional[float] = None
    """Wall-clock budget per attempt (``None`` disables the deadline)."""
    stall_s: Optional[float] = None
    """Simulated seconds without driver progress before aborting
    (``None`` disables progress checking)."""
    max_attempts: int = 3
    """Total attempts (first run + retries)."""
    backoff_base_s: float = 0.1
    """Wall-clock sleep before the first retry."""

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError(f"timeout_s must be >= 0, got {self.timeout_s}")
        if self.stall_s is not None and self.stall_s <= 0:
            raise ValueError(f"stall_s must be positive, got {self.stall_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")

    def backoff_s(self, retry_index: int) -> float:
        """Capped exponential backoff before retry ``retry_index`` (0-based)."""
        return min(
            BACKOFF_CAP_S,
            self.backoff_base_s * BACKOFF_FACTOR**retry_index,
        )


@dataclass
class AttemptRecord:
    """What one watched attempt did (kept on the final TrialResult)."""

    attempt: int
    seed: int
    wall_s: float
    outcome: str
    """``completed`` | ``timeout`` | ``stalled`` | ``failed``."""
    failure: Optional[str] = None
    backoff_s: float = 0.0
    """Sleep taken *after* this attempt (0 for the last one)."""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "seed": self.seed,
            "wall_s": self.wall_s,
            "outcome": self.outcome,
            "failure": self.failure,
            "backoff_s": self.backoff_s,
        }


class TrialWatchdog:
    """One attempt's watchdog, installed on the driver via driver_hook."""

    def __init__(self, spec: WatchdogSpec) -> None:
        self.spec = spec
        self.tripped: Optional[MeasurementFault] = None
        self._driver = None
        self._process = None
        self._wall_start = 0.0
        self._last_progress = (-1.0, -1.0)
        self._last_progress_t = 0.0

    def install(self, driver) -> None:
        """Attach to an assembled :class:`BenchmarkDriver`."""
        if self._driver is not None:
            raise RuntimeError("watchdog already installed")
        self._driver = driver
        self._wall_start = time.monotonic()
        self._last_progress_t = driver.sim.now
        self._process = driver.sim.every(
            CHECK_INTERVAL_S, self._check
        )

    def _check(self, sim) -> None:
        spec = self.spec
        if (
            spec.timeout_s is not None
            and time.monotonic() - self._wall_start > spec.timeout_s
        ):
            self._trip(
                TrialTimeout(
                    f"trial exceeded its {spec.timeout_s:g}s wall-clock "
                    f"deadline at t={sim.now:g}s",
                    at_time=sim.now,
                )
            )
        if spec.stall_s is None:
            return
        queues = self._driver.queues
        progress = (queues.total_pushed_weight, queues.total_pulled_weight)
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_progress_t = sim.now
        elif sim.now - self._last_progress_t >= spec.stall_s:
            self._trip(
                TrialStalled(
                    f"no driver progress (push or pull) for "
                    f"{sim.now - self._last_progress_t:g}s at t={sim.now:g}s",
                    at_time=sim.now,
                )
            )

    def _trip(self, failure: MeasurementFault) -> None:
        self.tripped = failure
        if self._process is not None:
            self._process.stop()
        obs = self._driver.obs
        if obs is not None:
            kind = "timeout" if isinstance(failure, TrialTimeout) else "stalled"
            obs.add_event(f"watchdog.{kind}", self._driver.sim.now)
        # Propagates out of the simulation loop; the driver's SutFailure
        # handler converts it into a failed TrialResult.
        raise failure

    def outcome(self, result) -> str:
        """Classify the attempt for its :class:`AttemptRecord`."""
        if isinstance(self.tripped, TrialTimeout):
            return "timeout"
        if isinstance(self.tripped, TrialStalled):
            return "stalled"
        return "failed" if result.failed else "completed"
