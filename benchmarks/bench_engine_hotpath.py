"""Microbenchmark: the engine-side ingest/process hot path.

PR 1 vectorised the driver-side *measurement* path; this bench gates
the engine-side counterpart: record cohorts now flow through the tick
loop as NumPy column blocks (:mod:`repro.core.batch`) instead of
per-Record Python loops.  The scalar path is kept verbatim behind
``REPRO_ENGINE_SCALAR=1`` as the reference implementation, and this
bench runs the SAME seeded trial through both paths, asserting:

- numeric identity of the sink table (per-``(window_end, key)`` summed
  value and weight), the latency summaries, and the engine/driver
  diagnostics ledgers, to 1e-9 (in practice the paths are bitwise
  identical -- the columnar kernels are sequential-fold twins of the
  scalar loops, see DESIGN.md section 14);
- a wall-clock speedup of the vectorised trial over the scalar one.

Run directly (not collected by the tier-1 pytest run)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py                 # full, 1M events
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --events 100000  # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --engine storm --keys 4096 \
        --rate 300000 --events 3000000                                       # CI, wide Storm
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --query join --keys 4096 \
        --rate 300000 --events 3000000                                       # CI, wide join

``--engine`` picks the engine model (default flink).  Storm is gated
separately because its hot path is a different loop -- the in-flight
drain and tick-min countdown run inside the tick -- and a per-cohort
Python loop left there is invisible to a Flink-only gate.  ``--query
join`` gates the two-stream path, where every block crosses the queue
and store ledgers once per side and the strict folds are half the trial.

Exit status is non-zero if the identity check fails, or if
``--assert-speedup X`` is given and the measured speedup is below X.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Tuple

from repro.core.batch import SCALAR_ENV
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines import ENGINES
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

IDENTITY_TOL = 1e-9

#: Diagnostics keyed on host wall-clock, not simulation state -- the
#: only entries allowed to differ between the two runs.
WALL_CLOCK_KEYS = frozenset(
    {"driver.summary_s", "collector.collect_s", "collector.samples_per_s"}
)


QUERIES = {"agg": WindowedAggregationQuery, "join": WindowedJoinQuery}


def bench_spec(
    events: int, rate: float, keys: int, engine: str = "flink",
    query: str = "agg",
) -> ExperimentSpec:
    """One deterministic ``query`` trial of ``engine`` sized to ``events``.

    Dense mode with uniform keys keeps every tick's cohort block the
    same shape, so the scalar/vector timing difference is purely the
    per-cohort loop vs the columnar kernels.
    """
    return ExperimentSpec(
        engine=engine,
        query=QUERIES[query](
            window=WindowSpec(8.0, 4.0), keys=UniformKeys(keys)
        ),
        workers=2,
        profile=rate,
        duration_s=events / rate,
        seed=4242,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        keep_outputs=True,
    )


def run_mode(spec: ExperimentSpec, scalar: bool, repeats: int):
    """Best-of-``repeats`` wall time for one execution mode."""
    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        best = float("inf")
        result = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_experiment(spec)
            best = min(best, time.perf_counter() - t0)
        return best, result
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved


def sink_table(result) -> Dict[Tuple[float, int], Tuple[float, float]]:
    """Canonical sink contents, as in the conformance suite."""
    table: Dict[Tuple[float, int], Tuple[float, float]] = {}
    for out in result.collector.outputs:
        key = (round(out.window_end, 9), out.key)
        value, weight = table.get(key, (0.0, 0.0))
        table[key] = (value + out.value, weight + out.weight)
    return table


def compare_tables(scalar, vector) -> List[str]:
    problems: List[str] = []
    s_table, v_table = sink_table(scalar), sink_table(vector)
    if set(s_table) != set(v_table):
        only_s = len(set(s_table) - set(v_table))
        only_v = len(set(v_table) - set(s_table))
        problems.append(
            f"sink (window, key) sets differ: {only_s} scalar-only, "
            f"{only_v} vector-only"
        )
        return problems
    for key in sorted(s_table):
        for name, s, v in zip(
            ("value", "weight"), s_table[key], v_table[key]
        ):
            if s != v and abs(s - v) > IDENTITY_TOL:
                problems.append(f"sink[{key}].{name}: scalar={s!r} vector={v!r}")
    return problems


def compare_diagnostics(scalar, vector) -> List[str]:
    problems: List[str] = []
    s_diag, v_diag = scalar.diagnostics, vector.diagnostics
    if set(s_diag) != set(v_diag):
        problems.append(
            f"diagnostic key sets differ: {sorted(set(s_diag) ^ set(v_diag))}"
        )
    for key in sorted(set(s_diag) & set(v_diag)):
        if key in WALL_CLOCK_KEYS:
            continue
        s, v = s_diag[key], v_diag[key]
        if s != v and abs(s - v) > IDENTITY_TOL:
            problems.append(f"diagnostics[{key}]: scalar={s!r} vector={v!r}")
    return problems


def compare_summaries(scalar, vector) -> List[str]:
    problems: List[str] = []
    for kind in ("event_latency", "processing_latency"):
        s_sum, v_sum = getattr(scalar, kind), getattr(vector, kind)
        for field in ("count", "weight", "mean", "minimum", "maximum",
                      "p90", "p95", "p99", "std"):
            s, v = getattr(s_sum, field), getattr(v_sum, field)
            if s != v and abs(s - v) > IDENTITY_TOL:
                problems.append(f"{kind}.{field}: scalar={s!r} vector={v!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=1_000_000,
                        help="total offered events (rate * sim duration)")
    parser.add_argument("--rate", type=float, default=20_000.0,
                        help="offered load in events/s")
    parser.add_argument("--keys", type=int, default=500,
                        help="uniform key-space size (cohorts per block)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="flink",
        help="engine whose tick loop is gated (storm adds the in-flight "
        "drain and its tick-min countdown to the path)",
    )
    parser.add_argument(
        "--query",
        choices=sorted(QUERIES),
        default="agg",
        help="windowed aggregation or the two-stream windowed join",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        help="fail unless the vector trial is at least this much faster",
    )
    args = parser.parse_args(argv)
    if args.events < 1 or args.repeats < 1 or args.rate <= 0 or args.keys < 1:
        parser.error("--events/--repeats/--rate/--keys must be positive")

    spec = bench_spec(
        args.events, args.rate, args.keys, args.engine, args.query
    )
    print(
        f"== {args.engine} engine {args.query} hot path @ {args.events:,} events "
        f"({spec.duration_s:g}s sim, {args.keys} keys) =="
    )

    scalar_t, scalar_result = run_mode(spec, scalar=True, repeats=args.repeats)
    vector_t, vector_result = run_mode(spec, scalar=False, repeats=args.repeats)
    speedup = scalar_t / vector_t if vector_t > 0 else float("inf")
    print(f"trial wall time   scalar {scalar_t * 1e3:9.1f} ms   "
          f"vector {vector_t * 1e3:9.1f} ms   speedup {speedup:6.1f}x")
    for result, label in ((scalar_result, "scalar"), (vector_result, "vector")):
        if result.failed:
            print(f"TRIAL FAILED ({label}): {result.failure}")
            return 1

    failures = (
        compare_tables(scalar_result, vector_result)
        + compare_summaries(scalar_result, vector_result)
        + compare_diagnostics(scalar_result, vector_result)
    )
    if failures:
        print("IDENTITY CHECK FAILED:")
        for f in failures[:40]:
            print(f"  - {f}")
        if len(failures) > 40:
            print(f"  ... and {len(failures) - 40} more")
        return 1
    n_outputs = len(scalar_result.collector.outputs)
    print(f"numeric identity: OK over {n_outputs:,} sink outputs, "
          f"{len(scalar_result.diagnostics)} diagnostics "
          f"(tolerance {IDENTITY_TOL:g})")

    if args.assert_speedup > 0 and speedup < args.assert_speedup:
        print(
            f"SPEEDUP CHECK FAILED: {speedup:.1f}x "
            f"< required {args.assert_speedup:.1f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
