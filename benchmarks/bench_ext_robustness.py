"""Extension benches: node failures and out-of-order streams.

These are NOT artifacts of the ICDE'18 paper; they exercise the two
extensions the repository adds on top of it:

- **Node-failure robustness** reproduces the Related Work claim the
  paper cites (Lopez et al.): "Spark is more robust to node failures but
  it performs up to an order of magnitude worse than Storm and Flink."
- **Out-of-order streams** explore the future-work item of Section VI-D
  ("out-of-order and late arriving data management"): the
  completeness/latency trade of allowed lateness.
"""

import pytest

from benchmarks.conftest import agg_spec, emit
from repro.core.experiment import run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.flink import FlinkConfig
from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.workloads.disorder import DisorderSpec

FAIL_AT_S = 80.0
DURATION_S = 240.0


@pytest.mark.benchmark(group="extensions")
def test_ext_node_failure_robustness(benchmark):
    """Kill one of four workers mid-run; compare recovery."""

    def measure():
        results = {}
        for engine, rate in (("storm", 0.4e6), ("spark", 0.4e6), ("flink", 0.4e6)):
            spec = agg_spec(engine, 4, profile=rate, duration_s=DURATION_S)
            from dataclasses import replace

            spec = replace(
                spec, faults=FaultSchedule((NodeCrash(at_s=FAIL_AT_S),))
            )
            results[engine] = run_experiment(spec)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    def excess(result):
        series = result.collector.binned_series(bin_s=5.0, start_time=0.0)
        before = series.window(30.0, FAIL_AT_S - 2).mean()
        after = series.window(FAIL_AT_S + 5, DURATION_S).mean()
        return after - before

    lines = [
        "Extension: one of four workers fails at t=80 s (0.4 M/s offered)",
        f"{'engine':<8} {'latency excess':>15} {'state lost':>12} "
        f"{'throughput kept':>16}",
    ]
    excesses = {}
    for engine, result in results.items():
        excesses[engine] = excess(result)
        kept = result.mean_ingest_rate / 0.4e6
        lines.append(
            f"{engine:<8} {excesses[engine]:>13.2f} s "
            f"{result.diagnostics['state_lost_weight']:>12.0f} "
            f"{kept:>15.1%}"
        )
    lines.append(
        "-> Lopez et al. (cited in Related Work): Spark is the most robust "
        "to node failures."
    )
    emit("ext_node_failures", "\n".join(lines))

    assert excesses["spark"] < excesses["storm"]
    assert results["storm"].diagnostics["state_lost_weight"] > 0
    assert results["spark"].diagnostics["state_lost_weight"] == 0
    assert results["flink"].diagnostics["state_lost_weight"] == 0


@pytest.mark.benchmark(group="extensions")
def test_ext_late_events_tradeoff(benchmark):
    """Allowed lateness trades event-time latency for completeness."""

    def measure():
        out = {}
        for lateness in (0.0, 1.0, 2.5):
            from dataclasses import replace

            spec = agg_spec(
                "flink",
                2,
                profile=0.3e6,
                duration_s=160.0,
                engine_config=FlinkConfig(allowed_lateness_s=lateness),
            )
            spec = replace(
                spec,
                generator=GeneratorConfig(
                    instances=2,
                    disorder=DisorderSpec(fraction=0.15, max_delay_s=2.0),
                ),
            )
            out[lateness] = run_experiment(spec)
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "Extension: 15% of events up to 2 s late (Flink 2-node, 0.3 M/s)",
        f"{'allowed lateness':>17} {'dropped weight':>15} {'avg latency':>12}",
    ]
    for lateness, result in sorted(out.items()):
        lines.append(
            f"{lateness:>15.1f} s "
            f"{result.diagnostics['late_dropped_weight']:>15.0f} "
            f"{result.event_latency.mean:>10.2f} s"
        )
    lines.append(
        "-> holding windows open recovers stragglers at a latency cost "
        "(paper Section VI-D future work)."
    )
    emit("ext_late_events", "\n".join(lines))

    drops = {k: v.diagnostics["late_dropped_weight"] for k, v in out.items()}
    lat = {k: v.event_latency.mean for k, v in out.items()}
    assert drops[0.0] > drops[1.0] > drops[2.5]
    assert lat[0.0] < lat[1.0] < lat[2.5]
