"""The benchmark framework: the paper's primary contribution.

Public API tour (see the examples/ directory for runnable versions):

>>> from repro.core import ExperimentSpec, run_experiment
>>> from repro.workloads import WindowedAggregationQuery, WindowSpec
>>> spec = ExperimentSpec(
...     engine="flink",
...     query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
...     workers=2,
...     profile=0.2e6,
...     duration_s=60.0,
... )
>>> result = run_experiment(spec)          # doctest: +SKIP
>>> result.event_latency.mean             # doctest: +SKIP

The pieces, mirroring the paper's Sections III-IV:

- :mod:`repro.core.generator` -- the scalable on-the-fly data generator;
- :mod:`repro.core.queues` -- the queues between generators and SUT
  sources, where throughput is measured;
- :mod:`repro.core.records` -- events, cohorts, and output tuples with
  the max-contributing-event-time anchors;
- :mod:`repro.core.latency` / :mod:`repro.core.throughput` -- the two
  metrics, measured strictly outside the SUT;
- :mod:`repro.core.sustainable` -- Definition 5 and the search;
- :mod:`repro.core.driver` / :mod:`repro.core.experiment` -- trial
  wiring and the declarative runner;
- :mod:`repro.core.metrics` / :mod:`repro.core.report` -- weighted
  statistics, time series, and paper-style rendering.
"""

from repro.core.driver import BenchmarkDriver, TrialResult
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import DataGenerator, GeneratorConfig
from repro.core.latency import EVENT_TIME, PROCESSING_TIME, LatencyCollector
from repro.core.metrics import StatSummary, TimeSeries, weighted_summary
from repro.core.queues import DriverQueue, QueueSet
from repro.core.records import OutputRecord, Record
from repro.core.sustainable import (
    SustainabilityCriteria,
    SustainabilityVerdict,
    SustainableSearchResult,
    assess,
    find_sustainable_throughput,
)
from repro.core.throughput import ThroughputMonitor

__all__ = [
    "BenchmarkDriver",
    "DataGenerator",
    "DriverQueue",
    "EVENT_TIME",
    "ExperimentSpec",
    "GeneratorConfig",
    "LatencyCollector",
    "OutputRecord",
    "PROCESSING_TIME",
    "QueueSet",
    "Record",
    "StatSummary",
    "SustainabilityCriteria",
    "SustainabilityVerdict",
    "SustainableSearchResult",
    "ThroughputMonitor",
    "TimeSeries",
    "TrialResult",
    "assess",
    "find_sustainable_throughput",
    "run_experiment",
    "weighted_summary",
]
