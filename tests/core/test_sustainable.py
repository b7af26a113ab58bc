"""Unit tests for the sustainability judgement and throughput search."""

import inspect
import json
import math

import pytest

from repro.analysis.export import search_to_dict
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    SustainabilityCriteria,
    SustainableSearchResult,
    aimed_cell,
    assess,
    find_sustainable_throughput,
    search_fingerprint,
)
from repro.core.driver import TrialResult
from repro.core.latency import LatencyCollector
from repro.core.metrics import weighted_summary
from repro.core.queues import DriverQueue, QueueSet
from repro.core.records import OutputRecord
from repro.core.throughput import ThroughputMonitor
from repro.engines.base import EngineConfig
from repro.metrology import TrialJournal
from repro.sim.simulator import Simulator
from repro.workloads.keys import NormalKeys, UniformKeys
from repro.workloads.profiles import ConstantRate
from repro.workloads.queries import WindowedAggregationQuery, WindowSpec

from tests.cohorts import cohort
from tests.oracle.search import cold_search


def synthetic_result(
    offered=1000.0,
    backlog_growth=0.0,
    latency_slope=0.0,
    failure=None,
    duration=100.0,
    outputs=True,
    disorder_lag=0.0,
):
    """Build a TrialResult with scripted queue/latency dynamics.

    ``disorder_lag`` shifts every generated event's event-time into the
    past (late arrival) while the *push* still happens now -- the
    disorder workload as seen by the driver queues.
    """
    sim = Simulator()
    queue = DriverQueue("q")
    queues = QueueSet([queue])
    monitor = ThroughputMonitor(sim, queues)

    def step(s):
        t = s.now
        queue.push_block(
            cohort(event_time=t - disorder_lag, weight=offered), at_time=t
        )
        keep = backlog_growth
        queue.pull_blocks(max(0.0, offered - keep))

    sim.every(1.0, step)
    sim.run_until(duration)
    monitor.stop()
    collector = LatencyCollector()
    base = 1.0
    for t in range(0, int(duration), 2):
        lat = base + latency_slope * t
        collector.collect(
            [
                OutputRecord(
                    key=0,
                    value=0.0,
                    event_time=float(t) - lat,
                    processing_time=float(t) - lat / 2,
                    emit_time=float(t),
                )
            ]
            if outputs
            else []
        )
    warmup = duration * 0.25
    return TrialResult(
        engine="fake",
        workers=2,
        query_kind="aggregation",
        offered_profile=ConstantRate(offered),
        duration_s=duration,
        warmup_s=warmup,
        failure=failure,
        failure_time=float("nan"),
        event_latency=collector.summary("event_time", warmup),
        processing_latency=collector.summary("processing_time", warmup),
        mean_ingest_rate=monitor.mean_ingest_rate(warmup),
        collector=collector,
        throughput=monitor,
        resources=None,
    )


class TestAssess:
    def test_stable_trial_is_sustainable(self):
        verdict = assess(synthetic_result())
        assert verdict.sustainable
        assert verdict.reasons == []

    def test_failure_is_unsustainable(self):
        verdict = assess(synthetic_result(failure="connection dropped"))
        assert not verdict.sustainable
        assert any("failure" in r.lower() for r in verdict.reasons)

    def test_growing_backlog_is_unsustainable(self):
        verdict = assess(synthetic_result(offered=1000.0, backlog_growth=100.0))
        assert not verdict.sustainable
        assert any("backlog" in r for r in verdict.reasons)

    def test_small_fluctuation_allowed(self):
        verdict = assess(synthetic_result(offered=1000.0, backlog_growth=2.0))
        assert verdict.sustainable

    def test_latency_growth_is_unsustainable(self):
        verdict = assess(synthetic_result(latency_slope=0.5))
        assert not verdict.sustainable
        assert any("latency" in r for r in verdict.reasons)

    def test_no_outputs_is_unsustainable(self):
        verdict = assess(synthetic_result(outputs=False))
        assert not verdict.sustainable

    def test_criteria_tolerances_respected(self):
        loose = SustainabilityCriteria(max_latency_slope=1.0)
        verdict = assess(synthetic_result(latency_slope=0.5), loose)
        assert verdict.sustainable

    def test_disordered_but_keeping_up_trial_is_sustainable(self):
        """Regression: events arriving 50 s late (event-time disorder)
        while the SUT fully keeps up must not trip the
        ``max_queue_delay_s`` rule -- queueing wait is measured from the
        enqueue clock, not the event-time anchor."""
        result = synthetic_result(disorder_lag=50.0)
        assert result.throughput.queue_delay_at_end() < 1.0
        verdict = assess(result)
        assert verdict.sustainable, verdict.reasons

    def test_disordered_overloaded_trial_still_fails(self):
        """Disorder must not mask a genuinely growing backlog."""
        verdict = assess(
            synthetic_result(disorder_lag=50.0, backlog_growth=100.0)
        )
        assert not verdict.sustainable


class TestSearch:
    def make_fake_run(self, capacity):
        """A fake experiment: sustainable iff rate <= capacity."""

        def run(spec):
            rate = spec.rate_profile().rate_at(0.0)
            growth = max(0.0, (rate - capacity)) + 0.0
            return synthetic_result(offered=rate, backlog_growth=growth)

        return run

    def spec(self):
        return ExperimentSpec(
            engine="flink",
            query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
            duration_s=20.0,
            generator=GeneratorConfig(instances=1),
        )

    def test_returns_high_when_sustainable(self):
        result = find_sustainable_throughput(
            self.spec(), high_rate=500.0, run=self.make_fake_run(1000.0)
        )
        assert result.sustainable_rate == 500.0
        assert result.trial_count == 1

    def test_bisection_converges_to_capacity(self):
        result = find_sustainable_throughput(
            self.spec(),
            high_rate=2000.0,
            run=self.make_fake_run(1000.0),
            rel_tol=0.02,
        )
        assert result.sustainable_rate == pytest.approx(1000.0, rel=0.1)

    def test_trials_recorded(self):
        result = find_sustainable_throughput(
            self.spec(), high_rate=2000.0, run=self.make_fake_run(900.0)
        )
        assert result.trial_count >= 3
        assert result.best_trial() is not None
        assert result.best_trial().rate == result.sustainable_rate

    def test_all_unsustainable_returns_nan(self):
        """Regression: a search where every probe fails must NOT report
        the (never-run) low_rate floor as sustainable -- it returns NaN."""
        result = find_sustainable_throughput(
            self.spec(),
            high_rate=2000.0,
            low_rate=0.0,
            run=self.make_fake_run(-1.0),
            max_trials=4,
        )
        assert math.isnan(result.sustainable_rate)
        assert not result.found
        assert result.best_trial() is None
        # Every reported trial was actually run at a positive rate.
        assert all(t.rate > 0.0 for t in result.trials)

    def test_found_flag_set_when_sustainable(self):
        result = find_sustainable_throughput(
            self.spec(), high_rate=500.0, run=self.make_fake_run(1000.0)
        )
        assert result.found

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_sustainable_throughput(
                self.spec(), high_rate=1.0, low_rate=2.0
            )

    def test_max_trials_bounds_work(self):
        result = find_sustainable_throughput(
            self.spec(),
            high_rate=2000.0,
            run=self.make_fake_run(1000.0),
            max_trials=3,
            rel_tol=1e-6,
        )
        assert result.trial_count <= 3


class TestStoppedProbesAcrossRoutes:
    """A ladder with stopped probes (ceiling 1.6 M/s, four times what
    Storm sustains) is the same bytes live and killed-then-resumed."""

    HIGH_RATE = 1.6e6

    def storm(self):
        return ExperimentSpec(
            engine="storm",
            query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
            workers=2,
            duration_s=40.0,
            seed=5,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
        )

    def as_bytes(self, search):
        return json.dumps(search_to_dict(search), indent=2, sort_keys=True)

    @pytest.fixture(scope="class")
    def serial(self):
        return find_sustainable_throughput(
            self.storm(), high_rate=self.HIGH_RATE
        )

    def test_the_ladder_contains_stopped_and_full_length_probes(self, serial):
        stops = [trial.stopped_at_s for trial in serial.trials]
        assert stops[0] == 20.0  # warm-up 10 s + 10 samples
        assert None in stops
        assert serial.found
        assert serial.simulated_s < serial.planned_s == 40.0 * len(stops)

    def test_a_stopped_probe_names_its_stop_first(self, serial):
        ceiling = serial.trials[0]
        assert not ceiling.verdict.sustainable
        assert ceiling.verdict.reasons[0] == (
            "stopped at 20.0s of 40.0s: verdict settled"
        )
        # ...and then what assess() measured on the truncated trial.
        assert ceiling.verdict.reasons[1:] == assess(ceiling.result).reasons
        assert ceiling.result.failure is None
        assert ceiling.result.duration_s == 40.0
        assert ceiling.result.warmup_s == 10.0
        assert ceiling.export_entry()["stopped_at_s"] == 20.0
        assert ceiling.result.throughput.sample_count == 20

    def test_killed_after_three_probes_then_resumed(self, serial, tmp_path):
        spec = self.storm()
        fingerprint = search_fingerprint(spec, high_rate=self.HIGH_RATE)
        live = []

        def dies_on_the_fourth(probe):
            if len(live) == 3:
                raise KeyboardInterrupt
            live.append(probe)
            return run_experiment(probe)

        with pytest.raises(KeyboardInterrupt):
            find_sustainable_throughput(
                spec,
                high_rate=self.HIGH_RATE,
                run=dies_on_the_fourth,
                journal=TrialJournal(tmp_path / "j.json", fingerprint),
            )
        journal = TrialJournal(tmp_path / "j.json", fingerprint, resume=True)
        resumed = find_sustainable_throughput(
            spec, high_rate=self.HIGH_RATE, journal=journal
        )
        assert journal.hits == 3
        assert self.as_bytes(resumed) == self.as_bytes(serial)
        # The replayed ceiling probe still knows where it stopped.
        replayed = resumed.trials[0]
        assert replayed.result is None
        assert replayed.stopped_at_s == 20.0
        assert replayed.verdict.reasons == serial.trials[0].verdict.reasons


class TestFingerprint:
    def spec(self, **overrides):
        fields = dict(
            engine="flink",
            query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
            duration_s=20.0,
        )
        fields.update(overrides)
        return ExperimentSpec(**fields)

    def test_versioned_and_stable_across_processes(self):
        fingerprint = search_fingerprint(self.spec(), high_rate=1e6)
        assert fingerprint.startswith("search|v3|")
        # No default object repr (an address would never match again).
        assert " at 0x" not in fingerprint
        assert fingerprint == search_fingerprint(self.spec(), high_rate=1e6)

    @pytest.mark.parametrize(
        "change",
        [
            dict(duration_s=60.0),
            dict(seed=2),
            dict(workers=4),
            dict(query=WindowedAggregationQuery(window=WindowSpec(16.0, 4.0))),
            dict(
                query=WindowedAggregationQuery(
                    window=WindowSpec(8.0, 4.0), keys=UniformKeys(1024)
                )
            ),
            dict(
                query=WindowedAggregationQuery(
                    window=WindowSpec(8.0, 4.0), keys=NormalKeys(1024)
                )
            ),
            dict(generator=GeneratorConfig(instances=2)),
            dict(engine_config=EngineConfig()),
            dict(standby=1),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_covers_everything_that_shapes_a_probe(self, change):
        assert search_fingerprint(
            self.spec(**change), high_rate=1e6
        ) != search_fingerprint(self.spec(), high_rate=1e6)

    def test_covers_the_search_arguments_and_the_anytime_rule(self):
        base = search_fingerprint(self.spec(), high_rate=1e6)
        assert search_fingerprint(self.spec(), high_rate=2e6) != base
        assert search_fingerprint(self.spec(), 1e6, low_rate=1.0) != base
        assert search_fingerprint(self.spec(), 1e6, rel_tol=0.1) != base
        assert search_fingerprint(self.spec(), 1e6, max_trials=9) != base
        bounded = SustainabilityCriteria(max_lost_weight=0.0)
        assert "judged_by=Sustainability" in base
        assert "judged_by=None" in search_fingerprint(
            self.spec(), 1e6, criteria=bounded
        )

    def test_the_offered_load_of_the_spec_is_not_part_of_it(self):
        # The search overrides the profile on every probe.
        assert search_fingerprint(
            self.spec(profile=123.0), high_rate=1e6
        ) == search_fingerprint(self.spec(profile=456.0), high_rate=1e6)

    def test_defaults_cannot_drift_from_the_search_they_identify(self):
        # ``aimed_cell`` too takes the search's own arguments a second
        # time (after the result it explains); the cold oracle takes
        # all of them but the journal.
        search = inspect.signature(find_sustainable_throughput).parameters
        oracle = inspect.signature(cold_search).parameters
        assert list(search) == [*oracle, "journal"]
        helpers = ((search_fingerprint, 0), (aimed_cell, 1), (cold_search, 0))
        for helper, skip in helpers:
            described = list(inspect.signature(helper).parameters.items())
            assert len(described) > skip + 1
            for name, parameter in described[skip:]:
                assert parameter.default == search[name].default, name
