"""Unit tests for the cost model and its calibration."""

import pytest

from repro.engines.calibration import (
    AGGREGATION,
    JOIN,
    CostModel,
    cost_model_for,
    registered_models,
)
from repro.sim.cluster import ClusterSpec


class TestRegistry:
    def test_all_six_models_registered(self):
        models = registered_models()
        for engine in ("storm", "spark", "flink"):
            for kind in (AGGREGATION, JOIN):
                assert (engine, kind) in models

    def test_lookup_case_insensitive(self):
        assert cost_model_for("FLINK", AGGREGATION).engine == "flink"

    def test_unknown_lookup_rejected(self):
        with pytest.raises(ValueError):
            cost_model_for("apex", AGGREGATION)
        with pytest.raises(ValueError):
            cost_model_for("flink", "cep")


class TestCalibratedCapacities:
    """CPU capacities must reproduce the Table I/III fits they came from."""

    @pytest.mark.parametrize(
        "engine,workers,expected",
        [
            ("storm", 2, 0.40e6),
            ("storm", 4, 0.69e6),
            ("storm", 8, 0.99e6),
            ("spark", 2, 0.38e6),
            ("spark", 4, 0.64e6),
            ("spark", 8, 0.91e6),
        ],
    )
    def test_aggregation_cpu_capacity(self, engine, workers, expected):
        model = cost_model_for(engine, AGGREGATION)
        cap = model.cpu_capacity_events_per_s(ClusterSpec(workers))
        assert cap == pytest.approx(expected, rel=0.02)

    def test_flink_cpu_capacity_exceeds_network_bound(self):
        model = cost_model_for("flink", AGGREGATION)
        for workers in (2, 4, 8):
            cap = model.cpu_capacity_events_per_s(ClusterSpec(workers))
            assert cap > 1.202e6  # the 1 Gb/s wire limit binds instead

    @pytest.mark.parametrize(
        "engine,workers,expected",
        [
            ("spark", 2, 0.36e6),
            ("spark", 4, 0.63e6),
            ("spark", 8, 0.94e6),
            ("flink", 2, 0.85e6),
            ("flink", 4, 1.12e6),
        ],
    )
    def test_join_cpu_capacity(self, engine, workers, expected):
        model = cost_model_for(engine, JOIN)
        cap = model.cpu_capacity_events_per_s(ClusterSpec(workers))
        assert cap == pytest.approx(expected, rel=0.02)

    def test_storm_naive_join_2node(self):
        model = cost_model_for("storm", JOIN)
        cap = model.cpu_capacity_events_per_s(ClusterSpec(2))
        assert cap == pytest.approx(0.14e6, rel=0.02)


class TestSkew:
    def test_flink_single_key_slot_rate(self):
        model = cost_model_for("flink", AGGREGATION)
        assert model.keyed_slot_capacity_events_per_s() == pytest.approx(
            0.48e6, rel=0.01
        )

    def test_storm_single_key_slot_rate(self):
        model = cost_model_for("storm", AGGREGATION)
        assert model.keyed_slot_capacity_events_per_s() == pytest.approx(
            0.20e6, rel=0.01
        )

    def test_flink_skew_capacity_does_not_scale(self):
        model = cost_model_for("flink", AGGREGATION)
        cap2 = model.skew_capacity_events_per_s(ClusterSpec(2), 1.0)
        cap8 = model.skew_capacity_events_per_s(ClusterSpec(8), 1.0)
        assert cap2 == pytest.approx(cap8)
        assert cap2 == pytest.approx(0.48e6, rel=0.01)

    def test_spark_skew_capacity_scales(self):
        model = cost_model_for("spark", AGGREGATION)
        cap4 = model.skew_capacity_events_per_s(ClusterSpec(4), 1.0)
        # Paper Experiment 4: 0.53 M/s at 4 nodes (0.83 * 0.64).
        assert cap4 == pytest.approx(0.53e6, rel=0.02)
        cap8 = model.skew_capacity_events_per_s(ClusterSpec(8), 1.0)
        assert cap8 > cap4

    def test_mild_skew_does_not_bind(self):
        model = cost_model_for("flink", AGGREGATION)
        base = model.cpu_capacity_events_per_s(ClusterSpec(2))
        mild = model.skew_capacity_events_per_s(ClusterSpec(2), 0.05)
        assert mild == pytest.approx(base)

    def test_zero_hot_fraction_is_base(self):
        model = cost_model_for("storm", AGGREGATION)
        base = model.cpu_capacity_events_per_s(ClusterSpec(4))
        assert model.skew_capacity_events_per_s(ClusterSpec(4), 0.0) == base


class TestInterpolation:
    def test_known_points_exact(self):
        model = cost_model_for("storm", AGGREGATION)
        assert model.efficiency(4) == 0.8625

    def test_interpolates_between_points(self):
        model = cost_model_for("storm", AGGREGATION)
        eff6 = model.efficiency(6)
        assert 0.61875 < eff6 < 0.8625

    def test_clamps_outside_range(self):
        model = cost_model_for("storm", AGGREGATION)
        assert model.efficiency(1) == 1.0
        assert model.efficiency(16) == 0.61875


class TestBulkDelay:
    def test_zero_cost_zero_delay(self):
        model = cost_model_for("flink", AGGREGATION)
        assert model.bulk_emit_delay_s(1e6, ClusterSpec(2)) == 0.0

    def test_delay_proportional_to_volume(self):
        model = cost_model_for("storm", AGGREGATION)
        d1 = model.bulk_emit_delay_s(1e6, ClusterSpec(2))
        d2 = model.bulk_emit_delay_s(2e6, ClusterSpec(2))
        assert d2 == pytest.approx(2 * d1)

    def test_delay_shrinks_with_cluster(self):
        model = cost_model_for("flink", JOIN)
        d2 = model.bulk_emit_delay_s(1e6, ClusterSpec(2))
        d8 = model.bulk_emit_delay_s(1e6, ClusterSpec(8))
        assert d8 < d2
