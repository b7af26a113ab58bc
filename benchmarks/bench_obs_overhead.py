"""Microbenchmark: observability must be free when it is off.

The event-lifecycle observability layer (metrics registry + sampled
tracing) instruments the hottest paths in the framework -- queue
push/pull, source ingest, window adds, sink emission.  The design
contract is *zero cost when disabled*: with ``observability=None`` the
only residual work is ``record.trace is None`` branches, and even the
fully-enabled configurations are polled (gauges) or 1-in-N sampled
(traces), never per-event.

This bench pins the contract down.  It runs the same trial spec under
three configurations:

- ``off``      -- ``observability=None`` (the pre-observability path);
- ``metrics``  -- ``ObsSpec(trace_sample_rate=0)``: registry sampling
  only, no tracing;
- ``traced``   -- ``ObsSpec(trace_sample_rate=1000)``: registry plus
  1-in-1000 lifecycle tracing;

interleaved round-robin, and reports each enabled configuration's
overhead as the median across rounds of its per-round ratio against
``off`` (robust to machine noise during any single round).  It also asserts the three runs
produce IDENTICAL measured results (tracing must never perturb the
simulation; the sampler is deterministic and out-of-band).

Run directly (not collected by the tier-1 pytest run)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --check   # gate

Exit status is non-zero if the identity check fails, or if ``--check``
is given and any enabled configuration exceeds ``--max-overhead``
(default 5%).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.obs.context import ObsSpec

IDENTITY_TOL = 1e-12


def build_spec(duration_s: float, obs: ObsSpec | None) -> ExperimentSpec:
    return ExperimentSpec(
        engine="flink",
        workers=2,
        profile=0.4e6,
        duration_s=duration_s,
        seed=7,
        monitor_resources=False,
        observability=obs,
    )


def time_configs(
    duration_s: float, configs, repeats: int
) -> tuple[dict, dict]:
    """Interleaved per-round wall times for every configuration.

    Each round runs every configuration back-to-back before the next
    round starts, so machine-wide drift (another process waking up
    mid-bench) lands on all configurations roughly equally instead of
    inflating whichever block happened to run last.  Returns the full
    per-round timing lists; overhead is judged per round (ratio against
    that round's baseline) so a single noisy round cannot flip the
    gate.
    """
    timings = {label: [] for label, _ in configs}
    results = {}
    run_experiment(build_spec(min(duration_s, 20.0), None))  # warmup
    for _ in range(repeats):
        for label, obs in configs:
            start = time.perf_counter()
            results[label] = run_experiment(build_spec(duration_s, obs))
            timings[label].append(time.perf_counter() - start)
    return timings, results


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def assert_identical(baseline, other, label: str) -> list[str]:
    """The simulation must not notice observability at all."""
    failures = []
    pairs = [
        ("mean_ingest_rate", baseline.mean_ingest_rate, other.mean_ingest_rate),
        ("event_mean", baseline.event_latency.mean, other.event_latency.mean),
        ("event_p99", baseline.event_latency.p99, other.event_latency.p99),
        (
            "proc_mean",
            baseline.processing_latency.mean,
            other.processing_latency.mean,
        ),
        ("outputs", float(len(baseline.collector)), float(len(other.collector))),
    ]
    for name, a, b in pairs:
        if abs(a - b) > IDENTITY_TOL * max(1.0, abs(a)):
            failures.append(f"{label}: {name} differs: {a!r} vs {b!r}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=120.0,
        help="simulated seconds per trial (default: 120)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="wall-time repeats per configuration, min taken (default: 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 180 simulated seconds, 7 repeats",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any enabled config exceeds --max-overhead",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="relative overhead gate for --check (default: 0.05)",
    )
    args = parser.parse_args(argv)
    # Sub-second baselines make a 5% gate flaky; 180 simulated seconds
    # (~1s of wall time for ``off`` on a 2-core host) over 7 interleaved
    # rounds is the smallest reliable configuration.
    duration = 180.0 if args.quick else args.duration
    repeats = 7 if args.quick else args.repeats

    configs = [
        ("off", None),
        ("metrics", ObsSpec(trace_sample_rate=0)),
        ("traced", ObsSpec(trace_sample_rate=1000)),
    ]
    timings, results = time_configs(duration, configs, repeats)

    failures = []
    for label in ("metrics", "traced"):
        failures += assert_identical(results["off"], results[label], label)

    base_rounds = timings["off"]
    print(
        f"obs overhead bench: {duration:g} simulated s, "
        f"median of {repeats} interleaved rounds"
    )
    print(f"  {'off':<8} {min(base_rounds):8.3f}s  (baseline)")
    over_limit = []
    for label in ("metrics", "traced"):
        # Overhead is a per-round ratio against that round's baseline,
        # then the median across rounds -- robust to machine noise that
        # min-of-N is not (one config lucking into a quiet window).
        overhead = median(
            t / b for t, b in zip(timings[label], base_rounds)
        ) - 1.0
        print(
            f"  {label:<8} {min(timings[label]):8.3f}s  ({overhead:+7.2%})"
        )
        if overhead > args.max_overhead:
            over_limit.append(f"{label}: {overhead:+.2%}")
    traced = results["traced"].observability
    print(
        f"  traced run: {traced.trace_log.started_count} traces started, "
        f"{traced.trace_log.completed_count} completed"
    )

    for failure in failures:
        print(f"IDENTITY FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check and over_limit:
        print(
            "OVERHEAD GATE FAILED (limit "
            f"{args.max_overhead:.0%}): {'; '.join(over_limit)}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
