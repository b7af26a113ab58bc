"""The repository benchmark: host-time cost of the simulator and harness.

Four workloads, end-to-end metrics measured with tracing off, and a
per-layer ledger taken from outside the program in a separate traced
run.  ``BENCHMARK.json`` at the repository root declares every name;
``README.md`` next to this file explains them.

Run one workload the way the benchmark driver does::

    python3 -m benchmarks.perf --workload agg_steady --seed 17 --seconds 20 --trace 0

or the whole set, written to a result file::

    python3 -m benchmarks.perf --seed 17 --out BENCH.json
"""
