"""Driver-side recovery metrology over synthetic latency series."""

import math

import numpy as np
import pytest

from repro.core.metrics import TimeSeries
from repro.faults.metrics import RecoveryMetrics, compute_recovery_metrics


class _StubCollector:
    """Collector facade: a known raw event-time latency series."""

    def __init__(self, times, values):
        self._series = TimeSeries(times, values)

    def binned_series(self, kind, bin_s, start_time=0.0, agg=None):
        return self._series.binned(bin_s)

    def series(self):
        return self._series


class _StubThroughput:
    def __init__(self, times, values):
        self.ingest_series = TimeSeries(times, values)


class _StubResult:
    def __init__(self, latency, ingest, duration_s):
        self.collector = _StubCollector(*latency)
        self.throughput = _StubThroughput(*ingest)
        self.duration_s = duration_s


def synthetic_trial(fault_t=60.0, spike_s=10.0, duration=160.0, spike=9.0):
    """1 Hz latency samples: flat 1.0 s baseline, a spike of ``spike``
    seconds decaying back to baseline ``spike_s`` seconds after the
    fault; ingest flat at 1e5 with a catch-up burst to 3e5."""
    times = np.arange(0.0, duration, 1.0)
    values = np.full_like(times, 1.0)
    in_spike = (times >= fault_t) & (times < fault_t + spike_s)
    values[in_spike] = spike
    ingest_v = np.full_like(times, 1e5)
    catchup = (times >= fault_t + spike_s) & (times < fault_t + spike_s + 5.0)
    ingest_v[catchup] = 3e5
    return _StubResult((times, values), (times, ingest_v), duration)


class TestComputeRecoveryMetrics:
    def test_empty_log_gives_no_metrics(self):
        assert compute_recovery_metrics(synthetic_trial(), []) == []

    def test_recovery_time_matches_spike_span(self):
        trial = synthetic_trial(fault_t=60.0, spike_s=10.0)
        (m,) = compute_recovery_metrics(
            trial, [{"kind": "crash", "at_s": 60.0, "pause_s": 8.0}]
        )
        assert m.kind == "crash"
        assert m.recovered
        # Latency returns to the band 10 s after the fault (+-1 bin).
        assert m.recovery_time_s == pytest.approx(10.0, abs=1.5)
        assert m.injected_pause_s == 8.0
        assert m.baseline_latency_s == pytest.approx(1.0, abs=0.05)

    def test_catchup_throughput_is_peak_drain(self):
        trial = synthetic_trial()
        (m,) = compute_recovery_metrics(
            trial, [{"kind": "crash", "at_s": 60.0}]
        )
        # The burst falls after the latency recovers, so the peak within
        # the recovery window is the steady rate; widen the window by
        # moving the burst inside the spike to see it.
        assert m.catchup_throughput >= 1e5

    def test_never_recovered_is_nan(self):
        # Latency keeps climbing after the fault: no recovery.
        times = np.arange(0.0, 120.0, 1.0)
        values = np.where(times < 60.0, 1.0, 1.0 + (times - 59.0))
        ingest = np.full_like(times, 1e5)
        trial = _StubResult((times, values), (times, ingest), 120.0)
        (m,) = compute_recovery_metrics(
            trial, [{"kind": "crash", "at_s": 60.0}]
        )
        assert not m.recovered
        assert math.isnan(m.recovery_time_s)
        assert math.isnan(m.post_p99_s)

    def test_multi_fault_horizons_do_not_overlap(self):
        # Two spikes; each fault's scan stops at the next injection.
        times = np.arange(0.0, 200.0, 1.0)
        values = np.full_like(times, 1.0)
        values[(times >= 60.0) & (times < 68.0)] = 9.0
        values[(times >= 120.0) & (times < 132.0)] = 9.0
        ingest = np.full_like(times, 1e5)
        trial = _StubResult((times, values), (times, ingest), 200.0)
        first, second = compute_recovery_metrics(
            trial,
            [
                {"kind": "crash", "at_s": 120.0},
                {"kind": "crash", "at_s": 60.0},
            ],
        )
        # Sorted by injection time regardless of log order.
        assert first.fault_time_s == 60.0
        assert second.fault_time_s == 120.0
        assert first.recovery_time_s == pytest.approx(8.0, abs=1.5)
        assert second.recovery_time_s == pytest.approx(12.0, abs=1.5)

    def test_guarantee_weights_pass_through(self):
        trial = synthetic_trial()
        (m,) = compute_recovery_metrics(
            trial,
            [
                {
                    "kind": "crash",
                    "at_s": 60.0,
                    "lost_weight": 123.0,
                    "duplicated_weight": 7.0,
                }
            ],
        )
        assert m.lost_weight == 123.0
        assert m.duplicated_weight == 7.0

    def test_to_dict_cleans_nans(self):
        m = RecoveryMetrics(
            kind="crash",
            fault_time_s=60.0,
            detection_s=float("nan"),
            injected_pause_s=8.0,
            recovery_time_s=float("nan"),
            catchup_throughput=1e5,
            baseline_latency_s=1.0,
            baseline_p99_s=1.0,
            post_p99_s=float("nan"),
            lost_weight=0.0,
            duplicated_weight=0.0,
        )
        payload = m.to_dict()
        assert payload["detection_s"] is None
        assert payload["recovery_time_s"] is None
        assert payload["injected_pause_s"] == 8.0
        assert not m.recovered
        assert "never" in m.describe()


def _metrics(**overrides):
    base = dict(
        kind="crash",
        fault_time_s=60.0,
        detection_s=2.0,
        injected_pause_s=6.0,
        recovery_time_s=10.0,
        catchup_throughput=3e5,
        baseline_latency_s=1.0,
        baseline_p99_s=1.2,
        post_p99_s=1.1,
        lost_weight=0.0,
        duplicated_weight=0.0,
    )
    base.update(overrides)
    return RecoveryMetrics(**base)


class TestPhaseDecomposition:
    def test_phases_partition_the_recovery_window(self):
        m = _metrics()
        assert m.detection_phase_s == 2.0
        assert m.restore_phase_s == 4.0
        assert m.catchup_phase_s == 4.0
        total = m.detection_phase_s + m.restore_phase_s + m.catchup_phase_s
        assert total == pytest.approx(m.recovery_time_s, abs=1e-12)

    def test_model_outage_longer_than_measured_window_is_clamped(self):
        # The outage is model-derived, the recovery time read off binned
        # latency; when they disagree the phases clamp into the window.
        m = _metrics(injected_pause_s=50.0, recovery_time_s=10.0)
        assert m.detection_phase_s == 2.0
        assert m.restore_phase_s == 8.0
        assert m.catchup_phase_s == 0.0

    def test_nan_detection_and_pause_count_as_zero(self):
        # Transient faults log no detection and no derived pause; the
        # whole window is catch-up, never NaN.
        m = _metrics(
            detection_s=float("nan"), injected_pause_s=float("nan")
        )
        assert m.detection_phase_s == 0.0
        assert m.restore_phase_s == 0.0
        assert m.catchup_phase_s == m.recovery_time_s

    def test_unrecovered_has_no_decomposition(self):
        m = _metrics(recovery_time_s=float("nan"))
        assert math.isnan(m.detection_phase_s)
        assert math.isnan(m.restore_phase_s)
        assert math.isnan(m.catchup_phase_s)


class TestExportRegression:
    """Never-recovered trials must export ``recovered: false`` with
    explicit null phases -- not silently drop keys or print NaN."""

    def test_unrecovered_exports_recovered_false_and_null_phases(self):
        payload = _metrics(
            recovery_time_s=float("nan"),
            catchup_throughput=float("nan"),
            post_p99_s=float("nan"),
        ).to_dict()
        assert payload["recovered"] is False
        assert payload["detection_phase_s"] is None
        assert payload["restore_phase_s"] is None
        assert payload["catchup_phase_s"] is None
        assert payload["recovery_time_s"] is None

    def test_recovered_exports_numeric_phases(self):
        payload = _metrics().to_dict()
        assert payload["recovered"] is True
        assert payload["detection_phase_s"] == 2.0
        assert payload["restore_phase_s"] == 4.0
        assert payload["catchup_phase_s"] == 4.0

    def test_export_is_json_round_trippable(self):
        import json

        payload = _metrics(recovery_time_s=float("nan")).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_describe_never_prints_nan(self):
        text = _metrics(
            recovery_time_s=float("nan"), catchup_throughput=float("nan")
        ).describe()
        assert "nan" not in text
        assert "never" in text
        assert "n/a" in text
