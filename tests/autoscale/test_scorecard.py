"""Elasticity scorecard: config, grid coverage, invariants.

Byte-identity (serial / parallel / resumed / golden) is the shared
contract in ``tests/integration/test_grid_contract.py``.
"""

import pytest

from repro.autoscale.scorecard import (
    SPIKE_DURATION_S,
    ElasticityConfig,
    elasticity_fingerprint,
    run_elasticity,
    single_worker_capacity,
)

SMALL = ElasticityConfig(
    seed=3, engines=("flink",), policies=("threshold",), duration_s=60.0
)


class TestConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ElasticityConfig(engines=())
        with pytest.raises(ValueError):
            ElasticityConfig(policies=("psychic",))
        with pytest.raises(ValueError):
            ElasticityConfig(profiles=("square-wave",))
        with pytest.raises(ValueError):
            ElasticityConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            ElasticityConfig(duration_s=SPIKE_DURATION_S)  # no room to drain

    def test_fingerprint_covers_the_whole_config(self):
        a = elasticity_fingerprint(SMALL)
        b = elasticity_fingerprint(
            ElasticityConfig(
                seed=4, engines=("flink",), policies=("threshold",),
                duration_s=60.0,
            )
        )
        assert a != b


class TestCapacity:
    def test_pure_function_of_engine_name(self):
        assert single_worker_capacity("flink") == single_worker_capacity(
            "flink"
        )

    def test_engines_differ(self):
        assert single_worker_capacity("flink") != single_worker_capacity(
            "storm"
        )


class TestSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return run_elasticity(SMALL)

    def test_all_cells_scored(self, report):
        assert set(report.scorecards) == {("flink", "threshold")}
        card = report.scorecards[("flink", "threshold")]
        assert card.trials == len(SMALL.profiles)
        assert card.survived == card.trials

    def test_the_cluster_actually_scaled(self, report):
        card = report.scorecards[("flink", "threshold")]
        assert card.scale_outs >= 1
        assert card.resustained >= 1

    def test_no_invariant_violations(self, report):
        assert report.ok, report.violations

    def test_autoscaling_beats_fixed_provisioning(self, report):
        card = report.scorecards[("flink", "threshold")]
        assert 0.0 < card.cost_node_seconds < card.fixed_cost_node_seconds
