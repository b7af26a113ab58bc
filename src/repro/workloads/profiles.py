"""Data-arrival rate profiles.

The generator produces events "with constant speed throughout the
experiment" (Section III-C) in the steady-state experiments --
:class:`ConstantRate`.  Experiment 5 studies fluctuating workloads:
"We start the benchmark with a workload of 0.84 M/s then decrease it to
0.28 M/s and increase again after a while" -- :func:`fig6_profile`.

A profile maps simulated time to the *total* generation rate in
events/second; the driver divides it evenly across generator instances.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np


class RateProfile(ABC):
    """Total target generation rate as a function of simulated time."""

    @abstractmethod
    def rate_at(self, t: float) -> float:
        """Events per second at simulated time ``t`` (>= 0)."""

    def scaled(self, factor: float) -> "ScaledRate":
        """This profile with every rate multiplied by ``factor``.

        Used for the paper's "90%-workload" runs (Tables II and IV show
        max-throughput and 90%-throughput latencies side by side).
        """
        return ScaledRate(self, factor)

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        """Maximum rate over ``[0, horizon_s]``.

        The base implementation samples on a fixed ``resolution_s`` grid
        and therefore **can miss features narrower than the grid** (a
        sub-second flash-crowd spike between two samples).  Profiles
        whose shape admits it override this with an exact analytic
        answer -- driver-queue capacity is provisioned from ``peak``, so
        an under-estimate here means queues sized too small for the
        very burst the profile exists to model.
        """
        steps = max(1, int(horizon_s / resolution_s))
        return max(self.rate_at(i * resolution_s) for i in range(steps + 1))


@dataclass(frozen=True)
class ConstantRate(RateProfile):
    """A fixed events/second rate."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        return self.rate


@dataclass(frozen=True)
class ScaledRate(RateProfile):
    """Another profile multiplied by a constant factor."""

    base: RateProfile
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise ValueError(f"factor must be >= 0, got {self.factor}")

    def rate_at(self, t: float) -> float:
        return self.base.rate_at(t) * self.factor

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        # Exact whenever the base's peak is exact (factor >= 0, so
        # scaling commutes with max).
        return self.base.peak(horizon_s, resolution_s) * self.factor


@dataclass(frozen=True)
class StepRate(RateProfile):
    """Piecewise-constant rate: a sequence of ``(start_time, rate)``
    steps (kept as a tuple of float pairs).

    Steps must be in increasing time order; the first step should start
    at 0.  The rate holds until the next step begins.
    """

    steps: Sequence[Tuple[float, float]]

    def __post_init__(self) -> None:
        steps = self.steps
        if not steps:
            raise ValueError("need at least one (start_time, rate) step")
        times = [t for t, _ in steps]
        if times != sorted(times):
            raise ValueError("steps must be in increasing time order")
        if any(rate < 0 for _, rate in steps):
            raise ValueError("rates must be >= 0")
        object.__setattr__(
            self, "steps", tuple((float(t), float(r)) for t, r in steps)
        )

    def rate_at(self, t: float) -> float:
        rate = self.steps[0][1]
        for start, step_rate in self.steps:
            if t >= start:
                rate = step_rate
            else:
                break
        return rate

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        """Exact: the max over every step active within ``[0, horizon]``.

        A step narrower than the sampling grid (a sub-second spike) is
        invisible to the sampled base implementation; here every step
        that *starts* by the horizon contributes, however short it is.
        """
        best = self.steps[0][1]  # rate_at(t) before the first step
        for start, rate in self.steps:
            if start > horizon_s:
                break
            best = max(best, rate)
        return best


@dataclass(frozen=True)
class FluctuatingRate(RateProfile):
    """High / low / high rate with configurable phase lengths.

    Generalises Experiment 5's spike pattern.  The profile starts at
    ``high``, drops to ``low`` at ``drop_at``, and recovers to ``high``
    at ``recover_at``.
    """

    high: float
    low: float
    drop_at: float
    recover_at: float
    _step: StepRate = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        high, low = self.high, self.low
        drop_at, recover_at = self.drop_at, self.recover_at
        if low > high:
            raise ValueError(f"low ({low}) must be <= high ({high})")
        if not 0 <= drop_at < recover_at:
            raise ValueError("need 0 <= drop_at < recover_at")
        object.__setattr__(
            self,
            "_step",
            StepRate([(0.0, high), (drop_at, low), (recover_at, high)]),
        )

    def rate_at(self, t: float) -> float:
        return self._step.rate_at(t)

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        return self._step.peak(horizon_s, resolution_s)


@dataclass(frozen=True)
class DiurnalRate(RateProfile):
    """Sinusoidal day curve: millions of users waking up and going home.

    The rate swings between ``low`` (the trough, at ``phase_s``) and
    ``high`` (the crest, half a period later) with period ``period_s``.
    This is the canonical autoscaling workload -- the offered load
    changes slowly enough that a policy tracking obs-registry signals
    can provision ahead of the curve.
    """

    low: float
    high: float
    period_s: float = 86_400.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(
                f"need 0 <= low <= high, got low={self.low} high={self.high}"
            )
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")

    def rate_at(self, t: float) -> float:
        cycle = (t + self.phase_s) / self.period_s
        return self.low + (self.high - self.low) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * cycle)
        )

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        """Exact: ``high`` if a crest falls in ``[0, horizon]``, else the
        larger endpoint (the only interior local maxima are crests)."""
        first_crest = ((0.5 - self.phase_s / self.period_s) % 1.0) * self.period_s
        if first_crest <= horizon_s:
            return self.high
        return max(self.rate_at(0.0), self.rate_at(horizon_s))


@dataclass(frozen=True)
class FlashCrowdRate(RateProfile):
    """Baseline load plus seeded rectangular spike bursts.

    ``spikes`` flash crowds hit within ``[0, horizon_s]``: the horizon is
    cut into equal segments and each segment gets one burst of
    ``spike_duration_s`` at rate ``spike`` with a seeded start, so bursts
    never overlap and the whole shape is a pure function of the seed.
    Bursts may be far narrower than any sampling grid -- :meth:`peak` is
    exact regardless.
    """

    base: float
    spike: float
    horizon_s: float
    spikes: int = 2
    spike_duration_s: float = 8.0
    seed: int = 0
    bursts: Tuple[Tuple[float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    """Each flash crowd as ``(start, end)``, in time order (derived
    from the parameters above)."""

    def __post_init__(self) -> None:
        base, spike, horizon_s = self.base, self.spike, self.horizon_s
        spikes, spike_duration_s, seed = (
            self.spikes, self.spike_duration_s, self.seed
        )
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if spike < base:
            raise ValueError(f"spike ({spike}) must be >= base ({base})")
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        if spikes < 1:
            raise ValueError(f"spikes must be >= 1, got {spikes}")
        segment = horizon_s / spikes
        if not 0 < spike_duration_s <= segment:
            raise ValueError(
                f"spike_duration_s must be in (0, horizon_s/spikes="
                f"{segment}], got {spike_duration_s}"
            )
        for name in ("base", "spike", "horizon_s", "spike_duration_s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "seed", int(seed))
        rng = np.random.default_rng([int(seed), spikes])
        bursts = []
        for index in range(spikes):
            slack = segment - spike_duration_s
            start = index * segment + float(rng.uniform(0.0, slack))
            bursts.append((start, start + spike_duration_s))
        object.__setattr__(self, "bursts", tuple(bursts))

    def rate_at(self, t: float) -> float:
        for start, end in self.bursts:
            if start <= t < end:
                return self.spike
            if t < start:
                break
        return self.base

    def peak(self, horizon_s: float, resolution_s: float = 1.0) -> float:
        """Exact: a burst counts the moment it starts by the horizon."""
        for start, _ in self.bursts:
            if start <= horizon_s:
                return self.spike
        return self.base


FIG6_DURATION_S = 300.0
"""Simulated seconds of the Experiment 5 run (Figure 6)."""


def fig6_profile() -> FluctuatingRate:
    """The exact Experiment 5 profile: 0.84 M/s -> 0.28 M/s -> 0.84 M/s
    over :data:`FIG6_DURATION_S`.

    The paper does not give the phase boundaries; we drop at one third
    and recover at two thirds of the run, which reproduces the published
    latency shapes (Figure 6).
    """
    return FluctuatingRate(
        high=0.84e6,
        low=0.28e6,
        drop_at=FIG6_DURATION_S / 3.0,
        recover_at=2.0 * FIG6_DURATION_S / 3.0,
    )
