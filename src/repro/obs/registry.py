"""The metrics registry: named counters, gauges, and histograms.

Per-stage visibility (the SProBench / ShuffleBench lesson): aggregate
trial numbers hide backpressure and shuffle pathologies, so operators,
queues and backpressure mechanisms publish named instruments here and
a single periodic sampler snapshots them into
:class:`~repro.core.metrics.TimeSeries` at ``metrics_interval_s``
granularity.

Instrument kinds:

- :class:`Counter`  -- monotonic accumulator (``add``); sampled as a
  cumulative series, differentiable into a rate at analysis time.
- :class:`Gauge`    -- instantaneous value; either set imperatively
  (``set``) or bound to a zero-argument callable that the sampler
  polls (``bind``), so queue depths and watermark lags need no pushes
  on the hot path.
- :class:`Histogram` -- fixed log-spaced bins over positive values
  (latencies, sizes); counts only, no per-sample storage.

Naming convention is ``component.metric`` with an optional
``component.metric{label}`` instance suffix, e.g.
``queue.depth{gen0}`` or ``op.window.buffered_weight``.  The registry
is flat; grouping happens at export.

Nothing here is on the hot path when observability is off: engines
hold ``obs = None`` and skip publishing entirely.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from repro.core.metrics import TimeSeries


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float) -> None:
        self.value += amount

    def read(self) -> float:
        return self.value


class Gauge:
    """Instantaneous value: pushed via ``set`` or polled via ``bind``."""

    __slots__ = ("name", "value", "_fn")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self.value = value

    def bind(self, fn: Callable[[], float]) -> "Gauge":
        self._fn = fn
        return self

    def read(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self.value


class Histogram:
    """Log-spaced histogram over positive values.

    ``lo``/``hi`` bound the instrumented range; values outside clamp to
    the edge bins (an underflow/overflow count, not an error).  Only
    bin counts (weighted) are stored -- O(bins) memory regardless of
    sample volume.
    """

    __slots__ = ("name", "lo", "hi", "bins", "counts", "_log_lo", "_log_step",
                 "total_weight", "sum_value")

    def __init__(
        self, name: str, lo: float = 1e-4, hi: float = 1e3, bins: int = 48
    ) -> None:
        if not (0 < lo < hi) or bins < 1:
            raise ValueError(f"bad histogram range [{lo}, {hi}] x {bins}")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self.counts = [0.0] * bins
        self._log_lo = math.log(lo)
        self._log_step = (math.log(hi) - self._log_lo) / bins
        self.total_weight = 0.0
        self.sum_value = 0.0

    def observe(self, value: float, weight: float = 1.0) -> None:
        if value <= self.lo:
            idx = 0
        elif value >= self.hi:
            idx = self.bins - 1
        else:
            idx = int((math.log(value) - self._log_lo) / self._log_step)
            if idx >= self.bins:  # float edge at exactly hi
                idx = self.bins - 1
        self.counts[idx] += weight
        self.total_weight += weight
        self.sum_value += value * weight

    @property
    def mean(self) -> float:
        if self.total_weight <= 0:
            return float("nan")
        return self.sum_value / self.total_weight

    def quantile(self, q: float) -> float:
        """Approximate weighted quantile: the geometric midpoint of the
        first bin whose cumulative weight reaches ``q * total``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.total_weight <= 0:
            return float("nan")
        target = q * self.total_weight
        cum = 0.0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                mid = self._log_lo + (i + 0.5) * self._log_step
                return math.exp(mid)
        return self.hi

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "counts": list(self.counts),
            "total_weight": self.total_weight,
            "mean": None if self.total_weight <= 0 else self.mean,
            "p50": None if self.total_weight <= 0 else self.quantile(0.5),
            "p99": None if self.total_weight <= 0 else self.quantile(0.99),
        }


class MetricsRegistry:
    """Flat namespace of instruments plus the periodic sampler.

    ``counter``/``gauge``/``histogram`` are get-or-create, so every
    component can resolve its instruments once at wiring time and the
    hot path touches only the returned object.  :meth:`sample` (driven
    by ``sim.every(interval)``) snapshots every counter and gauge into
    a per-instrument :class:`TimeSeries`.
    """

    def __init__(self, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.sample_count = 0
        self._sample_hooks: List[Any] = []
        self._sampling = False

    # -- instrument factories (get-or-create) ---------------------------

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, **kwargs: Any) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name, **kwargs)
        return inst

    def bind_gauges(
        self, prefix: str, read: Callable[[], Dict[str, float]]
    ) -> None:
        """Bind one gauge ``prefix + key`` per key of ``read()``.

        :meth:`sample` evaluates ``read`` once for all of them (it may
        fold a whole ledger); a read outside a sample (:meth:`latest`)
        evaluates it afresh.
        """
        sampled_at: Optional[int] = None
        sampled: Dict[str, float] = {}

        def values() -> Dict[str, float]:
            nonlocal sampled_at, sampled
            if not self._sampling:
                return read()
            if sampled_at != self.sample_count:
                sampled_at, sampled = self.sample_count, read()
            return sampled

        for key in read():
            self.gauge(prefix + key).bind(
                lambda k=key: values().get(k, 0.0)
            )

    # -- sampling -------------------------------------------------------

    def sample(self, now: float) -> None:
        """Snapshot all counters and gauges at simulated time ``now``."""
        self.sample_count += 1
        for name, counter in self.counters.items():
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = TimeSeries()
            series.append(now, counter.value)
        self._sampling = True
        try:
            for name, gauge in self.gauges.items():
                series = self.series.get(name)
                if series is None:
                    series = self.series[name] = TimeSeries()
                series.append(now, gauge.read())
        finally:
            self._sampling = False
        for hook in self._sample_hooks:
            hook(now)

    def add_sample_hook(self, hook: Any) -> None:
        """Call ``hook(now)`` after every sample snapshot.

        This is the seam controllers hang off: the autoscaler reads the
        just-sampled signals and decides on the **simulated** sampling
        clock, so decisions are deterministic and replayable -- there is
        no other clock a registry consumer can observe.
        """
        self._sample_hooks.append(hook)

    def install(self, sim: Any) -> None:
        """Register the periodic sampler on a simulator."""
        sim.every(self.interval_s, lambda s: self.sample(s.now))

    # -- export ---------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(
            set(self.counters) | set(self.gauges) | set(self.histograms)
        )

    def latest(self, name: str) -> float:
        """Current value of a counter or gauge (NaN if unknown)."""
        if name in self.counters:
            return self.counters[name].value
        if name in self.gauges:
            return self.gauges[name].read()
        return float("nan")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "interval_s": self.interval_s,
            "samples": self.sample_count,
            "final": {name: self.latest(name) for name in
                      sorted(set(self.counters) | set(self.gauges))},
            "series": {
                name: {"t": s.times.tolist(), "v": s.values.tolist()}
                for name, s in sorted(self.series.items())
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self.histograms.items())
            },
        }
        return payload
