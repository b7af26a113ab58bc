"""Per-node clock model: constant offset, bounded drift, NTP syncs.

The paper's metrology silently assumes the driver nodes share one
perfect clock: events are timestamped at generation (Section III-C) and
latency is read at the sink, so any disagreement between the stamping
clock and the reading clock lands *directly* in the reported event-time
latency.  Real deployments discipline their clocks with NTP, which
bounds -- but does not eliminate -- the error: between sync epochs a
clock free-runs at its drift rate on top of the residual error of the
last synchronisation.

:class:`NodeClock` models exactly that error budget:

- a constant initial offset (drawn once, bounded by ``offset_s``);
- a constant drift rate (bounded by ``drift_ppm`` parts per million),
  so the raw clock error at true time ``t`` is ``offset + drift * t``;
- NTP sync epochs every ``ntp_interval_s`` starting at t=0: each epoch
  publishes an estimate of the clock's current error that is accurate
  to within ``ntp_residual_s``.  A *disciplined* read subtracts the
  latest published estimate, leaving ``residual + drift * (t - t_sync)``.

The per-clock disciplined error is therefore bounded a priori by
``ntp_residual_s + drift_ppm * 1e-6 * ntp_interval_s`` -- the bound the
measurement plane exports (see :mod:`repro.metrology.skew`).

Everything is deterministic from the seed material: offsets and drifts
are drawn at fleet construction, and per-epoch residuals are derived
statelessly from ``(residual_seed, epoch)`` so that reads at arbitrary
times, in arbitrary order, always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class ClockSkewSpec:
    """Bounds of the clock-error model shared by a fleet of clocks.

    All fields are *caps*: per-clock parameters are drawn uniformly
    inside them, so the exported error bound covers the worst draw.
    """

    offset_s: float = 0.005
    """Maximum absolute initial clock offset (uniform in +/- this)."""
    drift_ppm: float = 20.0
    """Maximum absolute drift rate in parts per million (uniform)."""
    ntp_interval_s: float = 30.0
    """Seconds between NTP sync epochs (first sync at t=0)."""
    ntp_residual_s: float = 0.0005
    """Maximum absolute error of each epoch's offset estimate."""
    corrected: bool = True
    """Discipline reads with the NTP estimates.  ``False`` models an
    unsynchronised cluster: clocks free-run from their raw offsets and
    the exported bound is knowingly violated (the regression test that
    proves the correction earns its keep)."""

    def __post_init__(self) -> None:
        if self.offset_s < 0:
            raise ValueError(f"offset_s must be >= 0, got {self.offset_s}")
        if self.drift_ppm < 0:
            raise ValueError(f"drift_ppm must be >= 0, got {self.drift_ppm}")
        if self.ntp_interval_s <= 0:
            raise ValueError(
                f"ntp_interval_s must be positive, got {self.ntp_interval_s}"
            )
        if self.ntp_residual_s < 0:
            raise ValueError(
                f"ntp_residual_s must be >= 0, got {self.ntp_residual_s}"
            )

    @property
    def drift_rate_cap(self) -> float:
        """Maximum absolute drift as a dimensionless rate (s per s)."""
        return self.drift_ppm * 1e-6

    @property
    def disciplined_error_bound_s(self) -> float:
        """A-priori bound on one disciplined clock's error at any time:
        the worst sync residual plus a full inter-sync interval of the
        worst drift."""
        return self.ntp_residual_s + self.drift_rate_cap * self.ntp_interval_s

    def build_fleet(
        self, rng: np.random.Generator, count: int
    ) -> List["NodeClock"]:
        """Draw ``count`` clocks with independent offsets/drifts.

        The per-epoch residual streams are seeded from ``rng`` too, so
        one seed reproduces the whole fleet bit-for-bit.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        clocks = []
        for _ in range(count):
            offset = float(rng.uniform(-self.offset_s, self.offset_s))
            drift = float(
                rng.uniform(-self.drift_rate_cap, self.drift_rate_cap)
            )
            residual_seed = int(rng.integers(0, 2**31 - 1))
            clocks.append(
                NodeClock(
                    spec=self,
                    offset_s=offset,
                    drift_rate=drift,
                    residual_seed=residual_seed,
                )
            )
        return clocks


class NodeClock:
    """One node's clock with a deterministic error trajectory."""

    def __init__(
        self,
        spec: ClockSkewSpec,
        offset_s: float,
        drift_rate: float,
        residual_seed: int,
    ) -> None:
        self.spec = spec
        self.offset_s = offset_s
        self.drift_rate = drift_rate
        self.residual_seed = residual_seed
        # Residuals are derived statelessly per epoch; memoised because
        # the latency hot path reads the same epoch thousands of times.
        self._residual_cache: dict = {}

    def error(self, t: float) -> float:
        """Raw (free-running) clock error at true time ``t``."""
        return self.offset_s + self.drift_rate * t

    def _epoch(self, t: float) -> int:
        return max(0, int(math.floor(t / self.spec.ntp_interval_s)))

    def _residual(self, epoch: int) -> float:
        cached = self._residual_cache.get(epoch)
        if cached is None:
            rng = np.random.default_rng([self.residual_seed, epoch])
            cap = self.spec.ntp_residual_s
            cached = float(rng.uniform(-cap, cap))
            self._residual_cache[epoch] = cached
        return cached

    def disciplined_error(self, t: float) -> float:
        """Error left after subtracting the latest NTP estimate.

        At the sync epoch ``t_k <= t`` NTP published an estimate of the
        error that was off by the epoch's residual; since then the
        clock has free-run at its drift rate.
        """
        epoch = self._epoch(t)
        t_sync = epoch * self.spec.ntp_interval_s
        return self._residual(epoch) + self.drift_rate * (t - t_sync)

    def measurement_error(self, t: float) -> float:
        """The error an instrument reading this clock actually carries:
        disciplined when the spec corrects, raw otherwise."""
        if self.spec.corrected:
            return self.disciplined_error(t)
        return self.error(t)

    def read(self, t: float) -> float:
        """The timestamp this clock stamps at true time ``t``."""
        return t + self.measurement_error(t)
