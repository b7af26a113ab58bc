"""Cross-engine conformance: five engines, one seeded workload.

The engine models differ in *dynamics* (backpressure, batching, emit
timing) but must agree on *query semantics*: the same seeded workload
pushed through every engine has to produce the same windowed results.
This suite runs one seeded trial per query kind (windowed aggregation,
windowed join) through all five engines and asserts:

- identical sink contents where semantics coincide -- every engine
  emits the same ``(window_end, key)`` set with the same summed values
  and weights (the record-at-a-time engines agree bit-for-bit; Spark
  agrees up to float re-association from its tree aggregation);
- the *documented* divergences, explicitly: Spark's micro-batch
  execution delays every window emission behind batch scheduling, so
  its emit delays are strictly separated from Flink's pipelined ones
  and its worst case exceeds a full batch interval;
- golden checksums committed under ``tests/golden/`` -- a canonical
  serialisation of each engine's sink table is hashed and compared, so
  a semantics change cannot slip through as a plausible-looking value
  shift.  Regenerate after an *intentional* change with::

      REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
          tests/integration/test_conformance.py

The workload is pinned to 2 workers: Storm's windowed join splits
cohorts across executors, so worker count is part of the workload
identity the goldens hash.
"""

import hashlib
import json
import os
import pathlib

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.spark import SparkConfig
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

from tests.oracle import oracle_engines

ENGINES = ("flink", "storm", "spark", "heron", "samza")
PIPELINED = ("flink", "storm", "heron", "samza")
"""Record-at-a-time engines whose sink tables agree exactly."""

QUERIES = {
    "aggregation": WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
    "join": WindowedJoinQuery(window=WindowSpec(8.0, 4.0)),
}

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "conformance.json"
REL_TOL = 1e-9


def conformance_spec(engine: str, query) -> ExperimentSpec:
    return ExperimentSpec(
        engine=engine,
        query=query,
        workers=2,
        profile=30_000.0,
        duration_s=60.0,
        seed=1234,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        keep_outputs=True,
    )


def sink_table(result):
    """Canonical sink contents: ``(window_end, key) -> (value, weight)``.

    Summing per (window, key) folds away emission granularity (Storm
    may emit a window's outputs across several sink batches) without
    touching semantics.
    """
    table = {}
    for out in result.collector.outputs:
        key = (round(out.window_end, 9), out.key)
        value, weight = table.get(key, (0.0, 0.0))
        table[key] = (value + out.value, weight + out.weight)
    return table


def emit_delays(result):
    """Per-output emission delay behind the window close time."""
    return [o.emit_time - o.window_end for o in result.collector.outputs]


def checksum(table) -> str:
    """SHA-256 over the canonical serialisation of a sink table.

    Values are rounded to 9 significant digits so the hash pins
    semantics, not summation order; the full-precision cross-engine
    comparison lives in the agreement tests.
    """
    lines = [
        f"{we:.6f}|{key}|{value:.9e}|{weight:.9e}"
        for (we, key), (value, weight) in sorted(table.items())
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def runs():
    """All ten trials (5 engines x 2 queries), run once per session."""
    return {
        (engine, kind): run_experiment(conformance_spec(engine, query))
        for engine in ENGINES
        for kind, query in QUERIES.items()
    }


class TestCompletion:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_trial_completes_with_outputs(self, runs, engine, kind):
        result = runs[(engine, kind)]
        assert not result.failed, result.failure
        assert len(result.collector.outputs) > 0


class TestSinkAgreement:
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_window_key_sets_identical(self, runs, kind):
        """Every engine closes and emits exactly the same windows."""
        reference = set(sink_table(runs[("flink", kind)]))
        for engine in ENGINES[1:]:
            table = sink_table(runs[(engine, kind)])
            assert set(table) == reference, engine

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_values_and_weights_agree(self, runs, kind):
        """Summed values/weights per (window, key) match across all
        five engines to 1e-9 relative."""
        reference = sink_table(runs[("flink", kind)])
        for engine in ENGINES[1:]:
            table = sink_table(runs[(engine, kind)])
            for cell, (value, weight) in table.items():
                ref_value, ref_weight = reference[cell]
                assert value == pytest.approx(ref_value, rel=REL_TOL), (
                    engine, cell,
                )
                assert weight == pytest.approx(ref_weight, rel=REL_TOL), (
                    engine, cell,
                )

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    @pytest.mark.parametrize("engine", PIPELINED[1:])
    def test_record_at_a_time_engines_agree_exactly(self, runs, kind, engine):
        """Storm/Heron/Samza accumulate windows in the same cohort
        order as Flink, so where semantics coincide the summed *values*
        are bit-for-bit identical -- only Spark is allowed value
        re-association (its tree aggregation, asserted separately).
        Join weights may differ by float re-association (backpressure
        splits cohorts at different boundaries per engine), bounded to
        1e-12 relative."""
        reference = sink_table(runs[("flink", kind)])
        table = sink_table(runs[(engine, kind)])
        for cell, (value, weight) in table.items():
            ref_value, ref_weight = reference[cell]
            assert value == ref_value, (engine, cell)
            assert weight == pytest.approx(ref_weight, rel=1e-12), (
                engine, cell,
            )


class TestSparkDivergence:
    """The documented divergence: micro-batch boundaries.

    Spark closes windows only when a batch job fires and completes, so
    every emission trails the window end by at least the scheduling
    pipeline, while Flink emits within operator latency of the close.
    """

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_emit_delays_strictly_separated_from_flink(self, runs, kind):
        spark_delays = emit_delays(runs[("spark", kind)])
        flink_delays = emit_delays(runs[("flink", kind)])
        assert min(spark_delays) > max(flink_delays)

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_worst_emit_delay_exceeds_batch_interval(self, runs, kind):
        """A window closing just after a batch fires waits out the whole
        next batch: the worst emit delay must exceed the interval."""
        batch_interval = SparkConfig().batch_interval_s
        assert max(emit_delays(runs[("spark", kind)])) > batch_interval


class TestGoldenChecksums:
    def test_sink_checksums_match_goldens(self, runs):
        actual = {
            kind: {
                engine: checksum(sink_table(runs[(engine, kind)]))
                for engine in ENGINES
            }
            for kind in sorted(QUERIES)
        }
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(actual, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated goldens at {GOLDEN_PATH}")
        assert GOLDEN_PATH.exists(), (
            f"missing golden file {GOLDEN_PATH}; generate with "
            "REGEN_GOLDEN=1 (see module docstring)"
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert actual == golden, (
            "sink contents diverged from committed goldens; if the "
            "change is intentional, regenerate with REGEN_GOLDEN=1"
        )

    def test_oracle_engines_reproduce_goldens(self):
        """The record-at-a-time oracle (:mod:`tests.oracle`) is the code
        that generated the goldens: it must still reproduce all ten.
        Never regenerates -- a mismatch here means the oracle drifted."""
        golden = json.loads(GOLDEN_PATH.read_text())
        with oracle_engines():
            actual = {
                kind: {
                    engine: checksum(
                        sink_table(
                            run_experiment(conformance_spec(engine, query))
                        )
                    )
                    for engine in ENGINES
                }
                for kind, query in sorted(QUERIES.items())
            }
        assert actual == golden
