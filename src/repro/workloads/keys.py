"""Key distributions for the synthetic streams.

Section VI-A: "We generate events with normal distribution on key field."
:class:`NormalKeys` is therefore the default.  Experiment 4 studies
"extreme skew, namely their ability to handle data of a single key" --
:class:`SingleKey`.  Uniform and Zipf distributions are provided for
sweeps beyond the paper.

A distribution is a pmf over integer keys in ``[0, num_keys)``;
``hot_fraction`` reports the probability mass of the most popular key,
which the engine models use to locate the keyed-stage bottleneck under
skew.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

import numpy as np

#: Emitted weights columns a distribution keeps, oldest dropped first.
#: Every generator instance emitting a weight in one tick finds the
#: first one's column: a fleet emits at most a few distinct weights per
#: tick (one per stream and disorder part, equal shares being equal).
COLUMN_CACHE_SIZE = 4


class KeyDistribution(ABC):
    """Distribution over integer keys ``0 .. num_keys - 1``."""

    def __init__(self, num_keys: int) -> None:
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        self.num_keys = int(num_keys)
        self._support: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._columns: Dict[float, np.ndarray] = {}

    @abstractmethod
    def pmf(self) -> np.ndarray:
        """Per-key probability masses (length ``num_keys``, sums to 1).

        The generator emits one cohort per key per tick weighted by
        this pmf instead of sampling keys -- no sampling noise at
        benchmark scale (see :mod:`repro.core.generator`).
        """

    def support(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, masses)`` of the positive-mass keys, in key order.

        Computed once and handed out by reference (read-only), so every
        dense generator over this distribution stamps its blocks with
        the *same* key array and a columnar store can recognise a
        block's catalog by identity instead of by content.
        """
        if self._support is None:
            pmf = np.asarray(self.pmf(), dtype=np.float64)
            mask = pmf > 0
            keys = np.nonzero(mask)[0].astype(np.int64)
            masses = pmf[mask]
            keys.flags.writeable = False
            masses.flags.writeable = False
            self._support = (keys, masses)
        return self._support

    def column(self, weight: float) -> np.ndarray:
        """The weights column ``weight * masses`` over :meth:`support`,
        read-only.

        The element-wise product of an equal weight is the same array
        of doubles, so it is computed once and handed out by reference
        to every generator instance emitting that weight -- twin
        instances at equal shares, and the two join streams at a
        purchases share of one half -- for as long as the entry lives.
        The fold memo of :mod:`repro.core.batch` and the window fold
        table of :mod:`repro.engines.operators.window` then answer for
        all of them.  ``weight`` is positive (two equal positive
        doubles are the same bits).
        """
        columns = self._columns
        emitted = columns.get(weight)
        if emitted is None:
            emitted = weight * self.support()[1]
            emitted.flags.writeable = False
            if len(columns) >= COLUMN_CACHE_SIZE:
                del columns[next(iter(columns))]
            columns[weight] = emitted
        return emitted

    def hot_fraction(self) -> float:
        """Probability mass of the single most popular key."""
        return float(self.pmf().max())

    @property
    def name(self) -> str:
        return type(self).__name__

    def _params(self) -> Tuple[Tuple[str, object], ...]:
        """The public parameters, in definition order: what identifies
        the distribution (cached pmfs and supports are derived)."""
        return tuple(
            (name, value)
            for name, value in vars(self).items()
            if not name.startswith("_")
        )

    def __repr__(self) -> str:
        """The distribution's parameters, e.g. ``UniformKeys(num_keys=64)``
        -- stable across processes, so a spec's ``repr`` can identify an
        experiment (the search journal's fingerprint relies on it)."""
        params = ", ".join(
            f"{name}={value!r}" for name, value in self._params()
        )
        return f"{type(self).__name__}({params})"

    def __eq__(self, other: object) -> bool:
        """Equal when of one type with equal parameters -- the same test
        :meth:`__repr__` makes, so two independently built specs of one
        experiment compare (and hash) equal."""
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self), self._params()))


class NormalKeys(KeyDistribution):
    """Keys drawn from a (truncated, discretised) normal distribution.

    The normal is centred on the middle of the key space with standard
    deviation ``spread_fraction * num_keys``; draws outside the key space
    are clipped to the boundary keys (mirroring a bounded catalog of gem
    packs with popularity concentrated in the middle of the catalog).
    """

    def __init__(self, num_keys: int, spread_fraction: float = 0.15) -> None:
        super().__init__(num_keys)
        if spread_fraction <= 0:
            raise ValueError("spread_fraction must be positive")
        self.spread_fraction = float(spread_fraction)
        self._pmf = self._compute_pmf()

    def _compute_pmf(self) -> np.ndarray:
        centre = (self.num_keys - 1) / 2.0
        sigma = self.spread_fraction * self.num_keys

        def cdf(x: float) -> float:
            return 0.5 * (1.0 + math.erf((x - centre) / (sigma * math.sqrt(2.0))))

        # Key i gets the mass of (i - 0.5, i + 0.5]; the boundary keys
        # absorb the tails clipped to the key space.
        masses = np.array(
            [cdf(i + 0.5) - cdf(i - 0.5) for i in range(self.num_keys)]
        )
        masses[0] += cdf(-0.5)
        masses[-1] += 1.0 - cdf(self.num_keys - 0.5)
        return masses / masses.sum()

    def pmf(self) -> np.ndarray:
        return self._pmf


class UniformKeys(KeyDistribution):
    """Uniform keys: the no-skew baseline."""

    def pmf(self) -> np.ndarray:
        return np.full(self.num_keys, 1.0 / self.num_keys)


class SingleKey(KeyDistribution):
    """All events carry one key: the paper's extreme-skew workload.

    Under this distribution the keyed stage of Flink and Storm runs on a
    single slot and the deployment stops scaling (Experiment 4).
    """

    def __init__(self, num_keys: int = 1, key: int = 0) -> None:
        super().__init__(max(num_keys, 1))
        if not 0 <= key < self.num_keys:
            raise ValueError(f"key {key} outside [0, {self.num_keys})")
        self.key = int(key)

    def pmf(self) -> np.ndarray:
        masses = np.zeros(self.num_keys)
        masses[self.key] = 1.0
        return masses


class ZipfKeys(KeyDistribution):
    """Zipf-distributed keys (extension beyond the paper's experiments).

    ``exponent`` > 1 controls skew; rank-1 key is the hottest.  Useful
    for sweeping the space between the paper's normal-distribution and
    single-key extremes.
    """

    def __init__(self, num_keys: int, exponent: float = 1.5) -> None:
        super().__init__(num_keys)
        if exponent <= 1.0:
            raise ValueError("Zipf exponent must be > 1")
        self.exponent = float(exponent)
        ranks = np.arange(1, self.num_keys + 1, dtype=np.float64)
        weights = ranks**-self.exponent
        self._probs = weights / weights.sum()

    def pmf(self) -> np.ndarray:
        return self._probs.copy()
