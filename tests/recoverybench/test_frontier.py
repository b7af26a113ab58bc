"""Unit tests for the checkpoint-interval sensitivity frontier."""

import json
import math

from repro.core.experiment import run_experiment
from repro.engines.base import EngineConfig
from repro.engines.storm import StormConfig
from repro.recoverybench.frontier import (
    FrontierPoint,
    frontier_points,
    point_from_digest,
)
from repro.recoverybench.scorecard import RecoverConfig, frontier_spec

NAN = float("nan")


def _point(interval_s, recovery, overhead, recovered=True, checkpoints=5):
    return FrontierPoint(
        engine="flink",
        interval_s=interval_s,
        recovered=recovered,
        recovery_time_s=recovery,
        overhead_fraction=overhead,
        checkpoints=checkpoints,
    )


class TestPointFromDigest:
    def test_reads_fault_and_overhead(self):
        digest = {
            "failed": False,
            "fault": {"recovered": True, "recovery_time_s": 9.05},
            "violations": [],
            "overhead_fraction": 0.008,
            "checkpoints": 18,
        }
        point = point_from_digest(digest, "flink", 2.5)
        assert point.engine == "flink"
        assert point.interval_s == 2.5
        assert point.recovered
        assert point.recovery_time_s == 9.05
        assert point.overhead_fraction == 0.008
        assert point.checkpoints == 18

    def test_missing_fault_is_unrecovered_nan(self):
        point = point_from_digest(
            {"fault": None, "overhead_fraction": 0.0, "checkpoints": 0},
            "storm",
            5.0,
        )
        assert not point.recovered
        assert math.isnan(point.recovery_time_s)

    def test_to_dict_is_json_safe(self):
        point = _point(5.0, NAN, 0.01, recovered=False)
        payload = point.to_dict()
        assert payload["recovery_time_s"] is None
        assert json.loads(json.dumps(payload)) == payload


class TestFrontierPoints:
    def test_classic_trade_off_keeps_every_point(self):
        # Strictly monotone trade-off: everything is efficient.
        points = [
            _point(2.5, 6.0, 0.08),
            _point(5.0, 8.0, 0.04),
            _point(10.0, 12.0, 0.02),
        ]
        assert [on for _, on in frontier_points(points)] == [True] * 3

    def test_tied_recovery_keeps_only_the_cheapest(self):
        # Binned latency quantizes recovery; equal recovery at higher
        # overhead is dominated (the real flink 2.5/5/10 s shape).
        points = [
            _point(2.5, 9.05, 0.008),
            _point(5.0, 9.05, 0.004),
            _point(10.0, 9.05, 0.002),
            _point(20.0, 13.05, 0.001),
        ]
        annotated = frontier_points(points)
        assert [on for _, on in annotated] == [False, False, True, True]

    def test_flat_frontier_keeps_all_ties(self):
        # Lineage recompute: interval changes nothing; no point strictly
        # beats another, so all stay efficient.
        points = [_point(i, 7.0, 0.0) for i in (2.5, 5.0, 10.0)]
        assert all(on for _, on in frontier_points(points))

    def test_unrecovered_points_are_never_efficient(self):
        points = [
            _point(2.5, NAN, 0.0, recovered=False),
            _point(5.0, 20.0, 0.05),
        ]
        annotated = frontier_points(points)
        assert [on for _, on in annotated] == [False, True]

    def test_empty_sweep(self):
        assert frontier_points([]) == []


class TestFrontierSpec:
    def test_storm_frontier_runs_on_storm_calibration(self):
        """A frontier trial keeps the engine's own defaults: Storm's
        0.08 s pipeline delay, not the base config's 0.05 s (a plain
        ``EngineConfig`` used to be copied over them), with GC and emit
        jitter off."""
        engines = []
        spec = frontier_spec("storm", 5.0, RecoverConfig(seed=17))
        run_experiment(spec, driver_hook=lambda d: engines.append(d.engine))
        config = engines[0].config
        assert isinstance(config, StormConfig)
        assert config.pipeline_delay_s == StormConfig.pipeline_delay_s
        assert config.pipeline_delay_s != EngineConfig.pipeline_delay_s
        assert config.gc_rate_per_s == 0.0
        assert config.emit_jitter_sigma == 0.0
