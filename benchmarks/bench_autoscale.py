"""Elasticity benchmark: autoscaled cost and time-to-resustain gates.

SProBench-style question on top of the paper's fixed-cluster trials:
hit a one-worker cluster with a flash crowd at twice its sustained
capacity and let the threshold policy scale it out.  The run *gates*
(non-zero exit) on the two claims the autoscaling subsystem makes:

1. **Bounded resustain**: every scale-out event re-enters the sustain
   band, and the slowest event's ``time_to_resustain_s`` stays inside
   an explicit bound (detect + provision + migrate + catch-up).
2. **Elasticity pays**: the autoscaled bill (``cost_node_seconds``,
   integrated over billed nodes) is strictly below a fixed cluster
   provisioned for the peak (``max_workers`` for the whole trial) --
   otherwise the whole subsystem is pointless.

Both invariant families (conservation ledgers, delivery guarantees)
are re-checked on every trial via the shared grid checker.

Run directly (not collected by the tier-1 pytest run)::

    PYTHONPATH=src python benchmarks/bench_autoscale.py          # 5 engines
    PYTHONPATH=src python benchmarks/bench_autoscale.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.autoscale.metrics import RescaleMetrics
from repro.autoscale.policy import AutoscaleSpec
from repro.autoscale.scorecard import single_worker_capacity
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.grid import check_invariants
import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.workloads.profiles import FlashCrowdRate

MAX_WORKERS = 6

#: The gate: the slowest resustain across all engines must fit here.
#: Cold boot (15 s) + warm-up + migration + catch-up under a 2x burst;
#: measured values at seed 0 sit near 30-47 s per engine.
RESUSTAIN_BOUND_S = 75.0


def autoscale_spec(engine: str, *, duration: float, seed: int) -> ExperimentSpec:
    capacity = single_worker_capacity(engine)
    return ExperimentSpec(
        engine=engine,
        workers=1,
        profile=FlashCrowdRate(
            base=0.4 * capacity,
            spike=2.0 * capacity,
            horizon_s=duration / 2.0,
            spikes=1,
            spike_duration_s=25.0,
            seed=seed,
        ),
        duration_s=duration,
        seed=seed,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        autoscale=AutoscaleSpec(
            policy="threshold",
            min_workers=1,
            max_workers=MAX_WORKERS,
            cooldown_s=12.0,
        ),
    )


def fmt_s(value: float) -> str:
    return "never" if math.isnan(value) else f"{value:.1f}s"


def worst_resustain(events: list) -> float:
    """Slowest settled scale-out; NaN if the *final* scale-out never
    settled.  Intermediate steps of a multi-step ramp are superseded by
    the next decision before their settle window opens (the metrology
    truncates their scan there), so only the last one is a gate."""
    outs = [m for m in events if m.kind == "scale-out"]
    if outs and not outs[-1].resustained:
        return float("nan")
    settled = [m.time_to_resustain_s for m in outs if m.resustained]
    return max(settled, default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: flink only, short trial",
    )
    parser.add_argument("--duration", type=float, default=180.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.duration <= 0:
        parser.error("--duration must be positive")

    engines = (
        ("flink",)
        if args.quick
        else ("flink", "storm", "spark", "heron", "samza")
    )
    duration = min(args.duration, 90.0) if args.quick else args.duration

    failures = []
    lines = [
        f"{'engine':<8} {'out':>4} {'in':>4} {'ttr-worst':>10} "
        f"{'cost(ns)':>9} {'fixed(ns)':>9} {'saved':>6}",
        "-" * 56,
    ]
    for engine in engines:
        result = run_experiment(
            autoscale_spec(engine, duration=duration, seed=args.seed)
        )
        label = f"autoscale/{engine}"
        if result.failed:
            failures.append(f"{label}: trial failed: {result.failure}")
            continue
        violations = check_invariants(
            result, label, workers=MAX_WORKERS, latency_bound_s=20.0
        )
        failures.extend(violations)
        events: list[RescaleMetrics] = result.autoscale or []
        outs = sum(1 for m in events if m.kind == "scale-out")
        ins = len(events) - outs
        if outs == 0:
            failures.append(f"{label}: the burst never forced a scale-out")
        worst = worst_resustain(events)
        if math.isnan(worst):
            failures.append(f"{label}: a scale-out never re-sustained")
        elif worst > RESUSTAIN_BOUND_S:
            failures.append(
                f"{label}: worst resustain {worst:.1f}s exceeds the "
                f"{RESUSTAIN_BOUND_S:.0f}s bound"
            )
        cost = result.diagnostics["autoscale.cost_node_seconds"]
        fixed = MAX_WORKERS * duration
        if not cost < fixed:
            failures.append(
                f"{label}: autoscaled bill {cost:.0f} node-seconds is not "
                f"below the fixed peak-provisioned {fixed:.0f}"
            )
        lines.append(
            f"{engine:<8} {outs:>4} {ins:>4} {fmt_s(worst):>10} "
            f"{cost:>9.0f} {fixed:>9.0f} {1.0 - cost / fixed:>6.1%}"
        )

    lines.append("-" * 56)
    status = "PASS" if not failures else "FAIL"
    lines.append(
        f"{status}: {len(engines)} engines, bound {RESUSTAIN_BOUND_S:.0f}s, "
        f"seed {args.seed}"
    )
    lines.extend(f"  ! {failure}" for failure in failures)
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
