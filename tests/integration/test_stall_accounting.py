"""Stall accounting vs. the driver's observed throughput dip.

The satellite bugfix this pins: backpressure state used to be invisible
outside the engine, so the throttle's internal stall clock could drift
from simulated time (it only advanced inside ``ingest_budget``) and
nothing could notice.  Now the throttle reports ``bp.stalled_s`` to the
metrics registry/diagnostics, and this test cross-checks it against a
*driver-side* measurement the SUT cannot influence: the longest run of
zero-ingest intervals in the ThroughputMonitor's series.  A topology
stall is exactly a zero-ingest window, so the two must agree to bin
quantisation.
"""

import numpy as np
import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.throughput import THROUGHPUT_INTERVAL_S
from repro.engines import backpressure

MONITOR_INTERVAL_S = THROUGHPUT_INTERVAL_S


def stalled_storm_result(stall_duration_s=10.0):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backpressure, "STALL_DURATION_S", stall_duration_s)
        return run_experiment(
            ExperimentSpec(
                engine="storm",
                workers=2,
                profile=0.6e6,
                duration_s=120.0,
                seed=11,
                generator=GeneratorConfig(instances=2),
                monitor_resources=False,
            )
        )


def longest_zero_run(series) -> int:
    """Longest consecutive run of zero-ingest monitor intervals."""
    best = current = 0
    for value in np.asarray(series.values):
        current = current + 1 if value <= 1e-9 else 0
        best = max(best, current)
    return best


@pytest.fixture(scope="module")
def result():
    return stalled_storm_result()


class TestStallMatchesObservedDip:
    def test_overload_triggers_a_stall(self, result):
        assert result.diagnostics["bp.stall_count"] >= 1.0
        assert result.diagnostics["bp.stalled_s"] > 0.0

    def test_stalled_s_matches_monitor_zero_run(self, result):
        """The throttle's own stall accounting must match the dip the
        driver observes at the queues, within bin quantisation (the
        stall can straddle up to two partial monitor intervals)."""
        stalled_s = result.diagnostics["bp.stalled_s"]
        dip_s = longest_zero_run(result.throughput.ingest_series)
        dip_s *= MONITOR_INTERVAL_S
        assert dip_s == pytest.approx(stalled_s, abs=2.0 * MONITOR_INTERVAL_S)

    def test_stalled_s_equals_configured_duration(self, result):
        """One stall at 2 workers runs exactly the configured duration
        in simulated seconds -- the clock-drift regression: before the
        on_tick_end sync, skipped ticks (JVM pauses) stretched this."""
        per_stall = result.diagnostics["bp.stalled_s"] / result.diagnostics[
            "bp.stall_count"
        ]
        assert per_stall == pytest.approx(10.0, abs=1e-9)

    def test_off_time_exceeds_stall_time_under_overload(self, result):
        """At 2x overload the on/off throttle spends far longer *off*
        (watermark oscillation) than stalled; both are reported."""
        assert result.diagnostics["bp.off_s"] > result.diagnostics[
            "bp.stalled_s"
        ]
