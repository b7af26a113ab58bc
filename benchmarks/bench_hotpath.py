"""Microbenchmark: the driver-side measurement hot path.

ShuffleBench (arXiv:2403.04570) and SProBench (arXiv:2504.02364) both
make the point that a streaming benchmark harness must itself sustain
multi-million-events/s measurement rates or it becomes the bottleneck
it is trying to measure.  This bench pins down the speedup of the
columnar chunked :class:`LatencyCollector` + NumPy-backed
:class:`TimeSeries` over the seed implementation (parallel Python lists
re-materialised per query; per-bin boolean-mask binning; one sort per
quantile), and verifies the two produce IDENTICAL numbers.

Run directly (not collected by the tier-1 pytest run)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py                # full, 1M samples
    PYTHONPATH=src python benchmarks/bench_hotpath.py --samples 50000  # CI smoke

Exit status is non-zero if the numeric-identity check fails, or if
``--assert-speedup X`` is given and the measured speedup is below X.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Tuple

import numpy as np

from repro.core.latency import EVENT_TIME, PROCESSING_TIME, LatencyCollector
from repro.core.metrics import StatSummary, TimeSeries, weighted_summary
from repro.core.records import OutputRecord

IDENTITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Seed (pre-optimisation) implementations, kept verbatim as the baseline.
# ---------------------------------------------------------------------------


def seed_weighted_quantile(values, weights, q):
    """Seed: one full sort per quantile."""
    if values.size == 0:
        return float("nan")
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    cum = np.cumsum(weights)
    target = q * cum[-1]
    idx = int(np.searchsorted(cum, target, side="left"))
    idx = min(idx, values.size - 1)
    return float(values[idx])


def seed_weighted_summary(values, weights) -> StatSummary:
    """Seed: three independent sorts for (p90, p95, p99)."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return StatSummary.empty()
    wts = np.asarray(weights, dtype=np.float64)
    total = float(wts.sum())
    if total <= 0:
        return StatSummary.empty()
    mean = float(np.average(vals, weights=wts))
    var = float(np.average((vals - mean) ** 2, weights=wts))
    return StatSummary(
        count=int(vals.size),
        weight=total,
        mean=mean,
        minimum=float(vals.min()),
        maximum=float(vals.max()),
        p90=seed_weighted_quantile(vals, wts, 0.90),
        p95=seed_weighted_quantile(vals, wts, 0.95),
        p99=seed_weighted_quantile(vals, wts, 0.99),
        std=float(np.sqrt(var)),
    )


def seed_binned(times, values, bin_s) -> Tuple[List[float], List[float]]:
    """Seed TimeSeries.binned: one boolean mask pass per bin."""
    out_t: List[float] = []
    out_v: List[float] = []
    if not len(times):
        return out_t, out_v
    t = np.asarray(times)
    v = np.asarray(values)
    t0 = t[0]
    bins = np.floor((t - t0) / bin_s).astype(int)
    for b in np.unique(bins):
        mask = bins == b
        out_t.append(t0 + float(b) * bin_s)
        out_v.append(float(np.mean(v[mask])))
    return out_t, out_v


class SeedLatencyCollector:
    """The seed collector: four parallel Python lists, re-materialised
    into fresh NumPy arrays on EVERY summary()/series() call."""

    def __init__(self) -> None:
        self._emit_times: List[float] = []
        self._event_lat: List[float] = []
        self._proc_lat: List[float] = []
        self._weights: List[float] = []

    def collect(self, outputs: List[OutputRecord]) -> None:
        for out in outputs:
            self._emit_times.append(out.emit_time)
            self._event_lat.append(out.event_time_latency)
            self._proc_lat.append(out.processing_time_latency)
            self._weights.append(out.weight)

    def __len__(self) -> int:
        return len(self._emit_times)

    def _arrays(self, kind: str, start_time: float):
        lat = self._event_lat if kind == EVENT_TIME else self._proc_lat
        times = np.asarray(self._emit_times)
        values = np.asarray(lat)
        weights = np.asarray(self._weights)
        mask = times >= start_time
        return times[mask], values[mask], weights[mask]

    def summary(self, kind: str = EVENT_TIME, start_time: float = 0.0):
        _, values, weights = self._arrays(kind, start_time)
        return seed_weighted_summary(values, weights)

    def binned_series(self, kind=EVENT_TIME, bin_s=5.0, start_time=0.0):
        times, values, _ = self._arrays(kind, start_time)
        return seed_binned(times, values, bin_s)

    def trend_slope(self, start_time=0.0, bin_s=5.0):
        t, v = self.binned_series(EVENT_TIME, bin_s=bin_s, start_time=start_time)
        ts = TimeSeries(times=t, values=v)
        return ts.slope_per_s()


# ---------------------------------------------------------------------------
# Fixture and harness
# ---------------------------------------------------------------------------


def make_outputs(n: int, seed: int = 7, batch: int = 256) -> List[List[OutputRecord]]:
    """Synthesise ``n`` sink emissions in collect()-sized bundles.

    Emit times advance monotonically (as in a real trial); latencies are
    lognormal; 10% of the cohorts are heavy (join-style weights).
    """
    rng = np.random.default_rng(seed)
    emit = np.cumsum(rng.exponential(1e-3, n)) + 1.0
    event_lat = rng.lognormal(mean=-1.0, sigma=0.6, size=n)
    proc_lat = event_lat * rng.uniform(0.3, 0.9, size=n)
    weights = np.ones(n)
    heavy = rng.random(n) < 0.1
    weights[heavy] = rng.integers(2, 64, size=int(heavy.sum())).astype(float)
    bundles: List[List[OutputRecord]] = []
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        bundles.append(
            [
                OutputRecord(
                    key=0,
                    value=0.0,
                    event_time=emit[i] - event_lat[i],
                    processing_time=emit[i] - proc_lat[i],
                    emit_time=emit[i],
                    weight=weights[i],
                )
                for i in range(lo, hi)
            ]
        )
    return bundles


def metrology_pass(collector, warmup: float, bin_s: float):
    """What TrialResult assembly + the sustainability assessment run:
    both summaries, the binned series, and the latency trend."""
    ev = collector.summary(EVENT_TIME, warmup)
    pr = collector.summary(PROCESSING_TIME, warmup)
    binned = collector.binned_series(EVENT_TIME, bin_s=bin_s, start_time=warmup)
    slope = collector.trend_slope(start_time=warmup, bin_s=bin_s)
    return ev, pr, binned, slope


def timed(fn, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def summaries_identical(a: StatSummary, b: StatSummary, tol: float) -> List[str]:
    problems = []
    for field in ("count", "weight", "mean", "minimum", "maximum",
                  "p90", "p95", "p99", "std"):
        x, y = getattr(a, field), getattr(b, field)
        if x != y and abs(x - y) > tol:
            problems.append(f"{field}: seed={x!r} new={y!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--bin-s", type=float, default=5.0)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        help="fail unless the cold metrology pass is at least this much faster",
    )
    args = parser.parse_args(argv)
    if args.samples < 1 or args.repeats < 1:
        parser.error("--samples and --repeats must be >= 1")

    n = args.samples
    print(f"== measurement hot path @ {n:,} samples ==")
    bundles = make_outputs(n)
    warmup = 0.25 * float(bundles[-1][-1].emit_time)

    seed_collector = SeedLatencyCollector()
    new_collector = LatencyCollector()

    ingest_seed, _ = timed(
        lambda: [seed_collector.collect(b) for b in bundles], 1
    )
    ingest_new, _ = timed(
        lambda: [new_collector.collect(b) for b in bundles], 1
    )
    print(f"collect()           seed {ingest_seed * 1e3:9.1f} ms   "
          f"new {ingest_new * 1e3:9.1f} ms   "
          f"({n / ingest_new / 1e6:.1f} M samples/s)")

    # Cold pass: first query after ingest (includes consolidation).
    cold_seed, seed_out = timed(
        lambda: metrology_pass(seed_collector, warmup, args.bin_s), 1
    )
    cold_new, new_out = timed(
        lambda: metrology_pass(new_collector, warmup, args.bin_s), 1
    )
    # Warm pass: repeated queries (figure generation, search re-reads).
    warm_seed, _ = timed(
        lambda: metrology_pass(seed_collector, warmup, args.bin_s),
        args.repeats,
    )
    warm_new, _ = timed(
        lambda: metrology_pass(new_collector, warmup, args.bin_s),
        args.repeats,
    )

    cold_speedup = cold_seed / cold_new if cold_new > 0 else float("inf")
    warm_speedup = warm_seed / warm_new if warm_new > 0 else float("inf")
    print(f"metrology pass cold seed {cold_seed * 1e3:9.1f} ms   "
          f"new {cold_new * 1e3:9.1f} ms   speedup {cold_speedup:6.1f}x")
    print(f"metrology pass warm seed {warm_seed * 1e3:9.1f} ms   "
          f"new {warm_new * 1e3:9.1f} ms   speedup {warm_speedup:6.1f}x")

    # Standalone TimeSeries.binned: mask loop vs np.bincount.
    times = np.concatenate([[o.emit_time for o in b] for b in bundles])
    values = np.concatenate(
        [[o.emit_time - o.event_time for o in b] for b in bundles]
    )
    ts = TimeSeries.from_arrays(times, values)
    binned_seed_t, binned_seed_out = timed(
        lambda: seed_binned(times, values, args.bin_s), args.repeats
    )
    binned_new_t, binned_new_out = timed(
        lambda: ts.binned(args.bin_s), args.repeats
    )
    binned_speedup = (
        binned_seed_t / binned_new_t if binned_new_t > 0 else float("inf")
    )
    print(f"TimeSeries.binned   seed {binned_seed_t * 1e3:9.1f} ms   "
          f"new {binned_new_t * 1e3:9.1f} ms   speedup {binned_speedup:6.1f}x")

    # ---- numeric identity ------------------------------------------------
    failures: List[str] = []
    for kind, s_seed, s_new in (
        (EVENT_TIME, seed_out[0], new_out[0]),
        (PROCESSING_TIME, seed_out[1], new_out[1]),
    ):
        for problem in summaries_identical(s_seed, s_new, IDENTITY_TOL):
            failures.append(f"summary[{kind}] {problem}")
    ref_t, ref_v = binned_seed_out
    if not np.allclose(binned_new_out.times, ref_t, atol=IDENTITY_TOL, rtol=0):
        failures.append("binned times differ")
    if not np.allclose(binned_new_out.values, ref_v, atol=IDENTITY_TOL, rtol=0):
        failures.append("binned values differ")
    # The weight-aware binned series must agree with a direct weighted
    # reference (this is the Figures 6-8 bugfix, intentionally != seed).
    weights = np.concatenate([[o.weight for o in b] for b in bundles])
    cut = times >= warmup
    wt, wv = weighted_reference_binned(
        times[cut], values[cut], weights[cut], args.bin_s
    )
    got = new_out[2]
    if not np.allclose(got.times, wt, atol=IDENTITY_TOL, rtol=0):
        failures.append("weighted binned times differ from reference")
    if not np.allclose(got.values, wv, atol=IDENTITY_TOL, rtol=0):
        failures.append("weighted binned values differ from reference")
    # Cross-check summary against the library weighted_summary too.
    lib = weighted_summary(values[cut], weights[cut])
    for problem in summaries_identical(lib, new_out[0], IDENTITY_TOL):
        failures.append(f"summary-vs-library {problem}")

    if failures:
        print("IDENTITY CHECK FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"numeric identity: OK (tolerance {IDENTITY_TOL:g})")

    if args.assert_speedup > 0 and cold_speedup < args.assert_speedup:
        print(
            f"SPEEDUP CHECK FAILED: cold {cold_speedup:.1f}x "
            f"< required {args.assert_speedup:.1f}x"
        )
        return 1
    return 0


def weighted_reference_binned(times, values, weights, bin_s):
    """Naive per-bin weighted mean, the ground truth for the bugfix."""
    t0 = times[0]
    bins = np.floor((times - t0) / bin_s).astype(int)
    out_t, out_v = [], []
    for b in np.unique(bins):
        mask = bins == b
        out_t.append(t0 + float(b) * bin_s)
        out_v.append(
            float(np.sum(values[mask] * weights[mask]) / np.sum(weights[mask]))
        )
    return out_t, out_v


if __name__ == "__main__":
    sys.exit(main())
