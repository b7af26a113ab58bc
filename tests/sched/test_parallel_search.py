"""Parallel speculative bisection: byte-identity with the serial path."""

import json

import pytest

from repro.analysis.export import search_to_dict
from repro.core.experiment import ExperimentSpec
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    find_sustainable_throughput,
    search_fingerprint,
    sweep_sustainable_rates,
)
from repro.metrology import TrialJournal
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

HIGH_RATE = 800_000.0


def _spec(engine="storm", workers=2) -> ExperimentSpec:
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=workers,
        profile=HIGH_RATE,
        duration_s=30.0,
        seed=5,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )


def _fingerprint(spec) -> str:
    return search_fingerprint(spec, high_rate=HIGH_RATE)


def _as_bytes(search) -> str:
    return json.dumps(search_to_dict(search), indent=2, sort_keys=True)


class TestParallelSearch:
    @pytest.fixture(scope="class")
    def reference(self):
        return find_sustainable_throughput(_spec(), high_rate=HIGH_RATE)

    def test_multi_trial_reference(self, reference):
        # The byte-identity claim below is vacuous on a 1-trial search.
        assert reference.trial_count > 1

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_parallel_search_is_byte_identical(self, reference, jobs):
        parallel = find_sustainable_throughput(
            _spec(), high_rate=HIGH_RATE, workers=jobs
        )
        assert _as_bytes(parallel) == _as_bytes(reference)

    def test_parallel_journal_resumes_serially(self, reference, tmp_path):
        # A parallel run's journal is interchangeable with a serial
        # one: resume it with workers=1 and replay everything.
        path = tmp_path / "journal.json"
        spec = _spec()
        find_sustainable_throughput(
            spec,
            high_rate=HIGH_RATE,
            workers=2,
            journal=TrialJournal(path, fingerprint=_fingerprint(spec)),
        )
        resumed_journal = TrialJournal(
            path, fingerprint=_fingerprint(spec), resume=True
        )
        resumed = find_sustainable_throughput(
            spec, high_rate=HIGH_RATE, journal=resumed_journal
        )
        # Every trial on the serial bisection path must be a replay
        # (speculative extras in the journal are harmless overshoot).
        assert resumed_journal.misses == 0
        assert _as_bytes(resumed) == _as_bytes(reference)

    def test_custom_run_callable_cannot_be_parallel(self):
        with pytest.raises(ValueError):
            find_sustainable_throughput(
                _spec(),
                high_rate=HIGH_RATE,
                workers=2,
                run=lambda spec: None,
            )


class TestParallelSweep:
    def test_sweep_matches_independent_searches(self):
        cells = [
            (("storm", 2), _spec("storm", 2)),
            (("flink", 2), _spec("flink", 2)),
        ]
        serial = sweep_sustainable_rates(cells, high_rate=HIGH_RATE)
        parallel = sweep_sustainable_rates(
            cells, high_rate=HIGH_RATE, workers=2
        )
        assert list(parallel) == list(serial)  # cell order preserved
        assert parallel == serial
        for key, spec in cells:
            alone = find_sustainable_throughput(spec, high_rate=HIGH_RATE)
            assert serial[key] == alone.sustainable_rate
