"""Every number the paper publishes, transcribed for shape comparison.

``repro paper`` (:mod:`repro.analysis.paper`) prints these side by side
with measured values.  Nothing in the framework or the engine
simulations reads this module; it exists so EXPERIMENTS.md and the
paper report can show paper-vs-measured without anyone re-reading the
PDF.

Units: throughputs in events/s; latency tuples are
(avg, min, max, q90, q95, q99) in seconds.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Table I: Sustainable throughput for windowed aggregations.
PAPER_TABLE1_AGG_THROUGHPUT: Dict[Tuple[str, int], float] = {
    ("storm", 2): 0.40e6,
    ("storm", 4): 0.69e6,
    ("storm", 8): 0.99e6,
    ("spark", 2): 0.38e6,
    ("spark", 4): 0.64e6,
    ("spark", 8): 0.91e6,
    ("flink", 2): 1.20e6,
    ("flink", 4): 1.20e6,
    ("flink", 8): 1.20e6,
}

# Table II: Latency statistics for windowed aggregations.
# Keys: (row label, workers); row label "<engine>" is the max-throughput
# run, "<engine>(90%)" the 90%-workload run.
PAPER_TABLE2_AGG_LATENCY: Dict[Tuple[str, int], Tuple[float, ...]] = {
    ("storm", 2): (1.4, 0.07, 5.7, 2.3, 2.7, 3.4),
    ("storm", 4): (2.1, 0.1, 12.2, 3.7, 5.8, 7.7),
    ("storm", 8): (2.2, 0.2, 17.7, 3.8, 6.4, 9.2),
    ("storm(90%)", 2): (1.1, 0.08, 5.7, 1.8, 2.1, 2.8),
    ("storm(90%)", 4): (1.6, 0.04, 9.2, 2.9, 4.1, 6.3),
    ("storm(90%)", 8): (1.9, 0.2, 11.0, 3.3, 5.0, 7.6),
    ("spark", 2): (3.6, 2.5, 8.5, 4.6, 4.9, 5.9),
    ("spark", 4): (3.3, 1.9, 6.9, 4.1, 4.3, 4.9),
    ("spark", 8): (3.1, 1.2, 6.9, 3.8, 4.1, 4.7),
    ("spark(90%)", 2): (3.4, 2.3, 8.0, 3.9, 4.5, 5.4),
    ("spark(90%)", 4): (2.8, 1.6, 6.9, 3.4, 3.7, 4.8),
    ("spark(90%)", 8): (2.7, 1.7, 5.9, 3.6, 3.9, 4.8),
    ("flink", 2): (0.5, 0.004, 12.3, 1.4, 2.2, 5.2),
    ("flink", 4): (0.2, 0.004, 5.1, 0.6, 1.2, 2.4),
    ("flink", 8): (0.2, 0.004, 5.4, 0.6, 1.2, 3.9),
    ("flink(90%)", 2): (0.3, 0.003, 5.8, 0.7, 1.1, 2.0),
    ("flink(90%)", 4): (0.2, 0.004, 5.1, 0.6, 1.3, 2.4),
    ("flink(90%)", 8): (0.2, 0.002, 5.4, 0.5, 0.8, 3.4),
}

# Table III: Sustainable throughput for windowed joins.
PAPER_TABLE3_JOIN_THROUGHPUT: Dict[Tuple[str, int], float] = {
    ("spark", 2): 0.36e6,
    ("spark", 4): 0.63e6,
    ("spark", 8): 0.94e6,
    ("flink", 2): 0.85e6,
    ("flink", 4): 1.12e6,
    ("flink", 8): 1.19e6,
}

# The naive Storm join (Experiment 2 text, not tabulated):
PAPER_STORM_NAIVE_JOIN_THROUGHPUT_2NODE = 0.14e6
PAPER_STORM_NAIVE_JOIN_AVG_LATENCY_2NODE = 2.3

# Table IV: Latency statistics for windowed joins.
PAPER_TABLE4_JOIN_LATENCY: Dict[Tuple[str, int], Tuple[float, ...]] = {
    ("spark", 2): (7.7, 1.3, 21.6, 11.2, 12.4, 14.7),
    ("spark", 4): (6.7, 2.1, 23.6, 10.2, 11.7, 15.4),
    ("spark", 8): (6.2, 1.8, 19.9, 9.4, 10.4, 13.2),
    ("spark(90%)", 2): (7.1, 2.1, 17.9, 10.3, 11.1, 12.7),
    ("spark(90%)", 4): (5.8, 1.8, 13.9, 8.7, 9.5, 10.7),
    ("spark(90%)", 8): (5.7, 1.7, 14.1, 8.6, 9.4, 10.6),
    ("flink", 2): (4.3, 0.01, 18.2, 7.6, 8.5, 10.5),
    ("flink", 4): (3.6, 0.02, 13.8, 6.7, 7.5, 8.6),
    ("flink", 8): (3.2, 0.02, 14.9, 6.2, 7.0, 8.4),
    ("flink(90%)", 2): (3.8, 0.02, 13.0, 6.7, 7.5, 8.7),
    ("flink(90%)", 4): (3.2, 0.02, 12.7, 6.1, 6.9, 8.0),
    ("flink(90%)", 8): (3.2, 0.02, 14.9, 6.2, 6.9, 8.3),
}

# Experiment 3 (large windows, aggregation (60s, 60s), 4 s batches):
# "Spark's throughput decreases by 2 times and avg latency increases by
# 10 times"; fixed by the Inverse Reduce Function.
PAPER_EXP3_SPARK_THROUGHPUT_FACTOR = 0.5
PAPER_EXP3_SPARK_LATENCY_FACTOR = 10.0

# Experiment 4 (single-key skew, aggregation):
PAPER_EXP4_FLINK_SKEW_THROUGHPUT = 0.48e6  # does not scale with nodes
PAPER_EXP4_STORM_SKEW_THROUGHPUT = 0.20e6  # does not scale with nodes
PAPER_EXP4_SPARK_SKEW_THROUGHPUT_4NODE = 0.53e6  # tree-aggregate scales

# Experiment 5 (fluctuating workloads): 0.84 M/s -> 0.28 M/s -> 0.84 M/s.
PAPER_EXP5_HIGH_RATE = 0.84e6
PAPER_EXP5_LOW_RATE = 0.28e6

# Experiment 7 (observed from the driver): sustainable average latencies
# range 0.2..6.2 s; minimum 0.003 s; maximum 19.9 s.
PAPER_EXP7_AVG_LATENCY_RANGE = (0.2, 6.2)
PAPER_EXP7_MIN_LATENCY = 0.003
PAPER_EXP7_MAX_LATENCY = 19.9
