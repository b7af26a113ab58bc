#!/usr/bin/env python3
"""Compare recovery policies on one faulted workload.

The same fault schedule -- a straggler, then a crash that kills three
of the four workers -- is run through three deployments of the same
Flink job offered 0.9 M/s (sustainable on 4 workers, ~50% above the
single survivor's knee):

- **backpressure only** (the legacy behaviour): the crash permanently
  removes capacity; the survivors absorb the backlog through
  backpressure alone;
- **load shedding**: the engine's recommended `DegradationPolicy`
  drops backlog beyond its latency bound at the sources and ramps
  ingest back after the recovery pause;
- **standby pool**: hot spares are promoted into the dead slots
  (paying the state-migration cost), restoring full capacity.

The printed recovery curves (mean event-time latency per 10 s bin) show
the trade each policy makes: backpressure preserves all data but holds
elevated latency until the backlog drains on reduced capacity; shedding
bounds latency by discarding weight (printed, and accounted in the
conservation ledgers); the standby pays a short migration pause and
then returns to the pre-fault band.

Run:  PYTHONPATH=src python examples/self_healing.py
"""

from repro import (
    ExperimentSpec,
    FaultSchedule,
    NodeCrash,
    SlowNode,
    run_experiment,
)
from repro.core.generator import GeneratorConfig
from repro.core.latency import EVENT_TIME
from repro.engines import engine_class
from repro.workloads import WindowSpec, WindowedAggregationQuery

FAULTS = FaultSchedule(
    (
        SlowNode(at_s=40.0, factor=0.5, duration_s=12.0),
        NodeCrash(at_s=90.0, nodes=3),
    )
)

BASE = dict(
    engine="flink",
    query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
    workers=4,
    profile=0.9e6,
    duration_s=180.0,
    seed=11,
    generator=GeneratorConfig(instances=2),
    faults=FAULTS,
    monitor_resources=False,
)

POLICIES = {
    "backpressure": {},
    "shed": {"degradation": engine_class("flink").recommended_degradation},
    "standby": {"standby": 3},
}


def latency_curve(result, bin_s=10.0):
    series = result.collector.binned_series(
        EVENT_TIME, bin_s=bin_s, start_time=0.0
    )
    return list(zip(series.times, series.values))


def main() -> None:
    print(f"Injecting: {FAULTS.describe()}\n")
    curves = {}
    for name, overrides in POLICIES.items():
        result = run_experiment(ExperimentSpec(**{**BASE, **overrides}))
        curves[name] = latency_curve(result)
        d = result.diagnostics
        print(
            f"{name:>13}: "
            f"{'FAILED' if result.failed else 'completed':<9} "
            f"p99 {result.event_latency.p99:6.2f}s  "
            f"end-backlog {result.throughput.queue_delay_at_end():5.1f}s  "
            f"shed {d['shed_weight']:12.0f}  "
            f"promoted {d['standbys_promoted']:.0f}"
        )

    print("\nmean event-time latency by 10s bin (recovery curves):")
    times = [t for t, _ in curves["backpressure"]]
    header = "  t(s)   " + "".join(f"{name:>14}" for name in POLICIES)
    print(header)
    for i, t in enumerate(times):
        row = f"  {t:6.0f} "
        for name in POLICIES:
            curve = curves[name]
            value = curve[i][1] if i < len(curve) else float("nan")
            row += f"{value:14.2f}" if value == value else f"{'-':>14}"
        print(row)


if __name__ == "__main__":
    main()
