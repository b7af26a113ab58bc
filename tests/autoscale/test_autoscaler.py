"""End-to-end autoscaled trials: wiring, metrology, determinism."""

import json

import pytest

from repro.analysis.export import trial_to_dict
from repro.autoscale.metrics import (
    RescaleMetrics,
    compute_rescale_metrics,
    rescale_timeline_events,
)
from repro.autoscale.policy import AutoscaleSpec
from repro.autoscale.scorecard import single_worker_capacity
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.grid import check_invariants
from repro.workloads.profiles import FlashCrowdRate


def flash_crowd_spec(engine="flink", policy="threshold", duration_s=90.0):
    """One worker hit by a burst at 2x its capacity: must scale out."""
    capacity = single_worker_capacity(engine)
    return ExperimentSpec(
        engine=engine,
        workers=1,
        profile=FlashCrowdRate(
            base=0.4 * capacity,
            spike=2.0 * capacity,
            horizon_s=duration_s / 2.0,
            spikes=1,
            spike_duration_s=20.0,
            seed=0,
        ),
        duration_s=duration_s,
        seed=0,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        autoscale=AutoscaleSpec(
            policy=policy, min_workers=1, max_workers=6, cooldown_s=12.0
        ),
    )


class TestAutoscaledTrial:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(flash_crowd_spec())

    def test_burst_forces_scale_out(self, result):
        assert not result.failed
        assert result.autoscale
        kinds = [m.kind for m in result.autoscale]
        assert "scale-out" in kinds
        assert result.diagnostics["autoscale.scale_outs"] >= 1.0

    def test_resustains_with_decomposed_legs(self, result):
        outs = [m for m in result.autoscale if m.kind == "scale-out"]
        assert any(m.resustained for m in outs)
        for m in outs:
            if not m.resustained:
                continue
            assert m.time_to_resustain_s == pytest.approx(
                m.detect_s + m.provision_s + m.migrate_s + m.catchup_s
            )
            assert m.provision_s >= 0.0
            assert m.catchup_s >= 0.0

    def test_bounds_respected(self, result):
        workers_end = result.diagnostics["cluster_workers"]
        assert 1.0 <= workers_end <= 6.0
        for m in result.autoscale:
            assert m.to_workers <= 6.0
            if m.kind == "scale-in":
                assert m.to_workers >= 1.0

    def test_ledgers_balance_through_scale_events(self, result):
        violations = check_invariants(result, "autoscaled", workers=6)
        assert violations == []

    def test_cost_billed(self, result):
        cost = result.diagnostics["autoscale.cost_node_seconds"]
        # At least the single base worker for the whole trial, at most
        # the ceiling for the whole trial.
        assert result.duration_s <= cost <= 6.0 * result.duration_s

    def test_timeline_annotated(self, result):
        assert result.observability is not None
        kinds = {
            e["kind"] for e in result.observability.trace_log.events
        }
        assert "autoscale.scale-out" in kinds
        assert "autoscale.resustained" in kinds

    def test_export_json_clean(self, result):
        payload = trial_to_dict(result)
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload
        assert payload["autoscale"]

    def test_deterministic_replay(self, result):
        rerun = run_experiment(flash_crowd_spec())

        def canonical(res):
            return json.dumps(trial_to_dict(res), sort_keys=True)

        assert canonical(result) == canonical(rerun)


class TestNoAutoscale:
    def test_field_absent_without_spec(self):
        result = run_experiment(
            ExperimentSpec(
                engine="flink",
                workers=1,
                profile=1e5,
                duration_s=10.0,
                monitor_resources=False,
            )
        )
        assert result.autoscale is None
        assert "autoscale.events" not in result.diagnostics
        # No implicit observability either: autoscale is what forces it.
        assert result.observability is None


class TestRescaleMetrics:
    LOG = [
        {
            "kind": "scale-out",
            "decided_at_s": 10.0,
            "delta": 2.0,
            "from_workers": 2.0,
            "to_workers": 4.0,
            "detect_s": 1.5,
            "reason": "lag",
            "spares_used": 0.0,
            "provision_s": 17.0,
            "cutover_at_s": 27.0,
            "migrated_bytes": 1e8,
            "migration_s": 1.0,
            "style_pause_s": 0.5,
            "pause_s": 1.5,
            "online_at_s": 28.5,
        }
    ]

    def test_catchup_measured_from_lag_series(self):
        times = [float(t) for t in range(0, 60, 2)]
        values = [10.0 if t < 40 else 0.5 for t in times]
        (m,) = compute_rescale_metrics(self.LOG, times, values, 60.0)
        assert m.resustained
        assert m.catchup_s == pytest.approx(40.0 - 28.5)
        assert m.time_to_resustain_s == pytest.approx(
            1.5 + (27.0 - 10.0) + 1.5 + (40.0 - 28.5)
        )

    def test_never_settles_is_nan(self):
        times = [float(t) for t in range(0, 60, 2)]
        values = [10.0] * len(times)
        (m,) = compute_rescale_metrics(self.LOG, times, values, 60.0)
        assert not m.resustained
        assert m.to_dict()["time_to_resustain_s"] is None

    def test_settle_needs_consecutive_samples(self):
        times = [30.0, 32.0, 34.0, 36.0, 38.0]
        values = [0.5, 10.0, 0.5, 0.5, 0.5]
        (m,) = compute_rescale_metrics(self.LOG, times, values, 60.0)
        # The lone in-bound sample at 30 does not count; the streak
        # opening at 34 does.
        assert m.catchup_s == pytest.approx(34.0 - 28.5)

    def test_next_event_bounds_the_scan(self):
        log = [dict(self.LOG[0]), dict(self.LOG[0])]
        log[1]["decided_at_s"] = 35.0
        times = [30.0, 40.0, 42.0]
        values = [10.0, 0.5, 0.5]
        first, _ = compute_rescale_metrics(log, times, values, 60.0)
        # The settle at t=40 belongs to the second event's scan window.
        assert not first.resustained

    def test_timeline_events_skip_unsettled(self):
        m_ok = RescaleMetrics(
            kind="scale-out", decided_at_s=10.0, delta=2.0,
            from_workers=2.0, to_workers=4.0, reason="lag", spares=0.0,
            detect_s=1.0, provision_s=17.0, migrate_s=1.5, catchup_s=5.0,
            time_to_resustain_s=24.5, migrated_bytes=0.0, lost_weight=0.0,
            duplicated_weight=0.0,
        )
        m_bad = RescaleMetrics(
            kind="scale-out", decided_at_s=50.0, delta=2.0,
            from_workers=4.0, to_workers=6.0, reason="lag", spares=0.0,
            detect_s=1.0, provision_s=17.0, migrate_s=1.5,
            catchup_s=float("nan"), time_to_resustain_s=float("nan"),
            migrated_bytes=0.0, lost_weight=0.0, duplicated_weight=0.0,
        )
        (event,) = rescale_timeline_events([m_ok, m_bad])
        assert event["kind"] == "autoscale.resustained"
        assert event["at_time"] == pytest.approx(10.0 - 1.0 + 24.5)

    def test_describe_is_human_readable(self):
        times = [float(t) for t in range(0, 60, 2)]
        values = [0.5] * len(times)
        (m,) = compute_rescale_metrics(self.LOG, times, values, 60.0)
        text = m.describe()
        assert "scale-out" in text
        assert "resustain" in text
