"""Search parallelism lives at the cell level; a journal an old
speculative per-probe run left behind still resumes byte-identically."""

import json

import pytest

from repro.analysis.export import search_to_dict
from repro.core.experiment import ExperimentSpec
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    find_sustainable_throughput,
    probe_key,
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

    def test_parallel_journal_resumes_serially(self, reference, tmp_path):
        # Speculative runs journaled rates off the serial ladder too.
        # Such a journal must resume with every ladder probe replayed
        # and the extras never read: they claim "sustained" at every
        # off-ladder midpoint, which would change the report if the
        # search read any of them.
        path = tmp_path / "journal.json"
        spec = _spec()
        find_sustainable_throughput(
            spec,
            high_rate=HIGH_RATE,
            journal=TrialJournal(path, fingerprint=_fingerprint(spec)),
        )
        old_run = TrialJournal(
            path, fingerprint=_fingerprint(spec), resume=True
        )
        ladder = {trial.rate for trial in reference.trials}
        extras = [HIGH_RATE * k / 16 for k in range(1, 16)]
        extras = [rate for rate in extras if rate not in ladder]
        for rate in extras:
            old_run.record(
                probe_key(rate),
                {
                    "rate": rate,
                    "sustainable": True,
                    "reasons": [],
                    "mean_ingest_rate": rate,
                    "event_latency": {},
                },
            )
        assert len(old_run) == len(ladder) + len(extras) > len(ladder)
        resumed_journal = TrialJournal(
            path, fingerprint=_fingerprint(spec), resume=True
        )
        resumed = find_sustainable_throughput(
            spec, high_rate=HIGH_RATE, journal=resumed_journal
        )
        assert resumed_journal.misses == 0
        assert _as_bytes(resumed) == _as_bytes(reference)


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
            assert serial[key] == {
                "sustainable_rate": alone.sustainable_rate,
                "trial_count": alone.trial_count,
                "simulated_s": alone.simulated_s,
            }
