"""Unit tests for the on-the-fly data generator."""

import pytest

from repro.core.generator import (
    OVERPROVISION_FACTOR,
    TICK_INTERVAL_S,
    DataGenerator,
    GeneratorConfig,
    build_generator_fleet,
)
from repro.core.queues import DriverQueue
from repro.core.records import ADS, PURCHASES
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.keys import SingleKey
from repro.workloads.profiles import ConstantRate
from repro.workloads.queries import WindowedAggregationQuery, WindowedJoinQuery

from tests.cohorts import expand


def make_generator(sim, query=None, rate=1000.0, share=1.0):
    query = query or WindowedAggregationQuery()
    config = GeneratorConfig(instances=1)
    queue = DriverQueue("q", capacity_weight=float("inf"))
    gen = DataGenerator(
        sim=sim,
        queue=queue,
        profile=ConstantRate(rate),
        query=query,
        rng=RngRegistry(0).stream("g"),
        config=config,
        share=share,
    )
    return gen, queue


class TestRates:
    def test_generated_weight_matches_rate(self):
        sim = Simulator()
        gen, queue = make_generator(sim, rate=1000.0)
        gen.start()
        sim.run_until(10.0)
        assert gen.generated_weight == pytest.approx(10.0 * 1000.0, rel=0.02)
        assert queue.pushed_weight == pytest.approx(gen.generated_weight)

    def test_share_scales_rate(self):
        sim = Simulator()
        gen, queue = make_generator(sim, rate=1000.0, share=0.25)
        gen.start()
        sim.run_until(10.0)
        assert gen.generated_weight == pytest.approx(2500.0, rel=0.02)

    def test_zero_rate_produces_nothing(self):
        sim = Simulator()
        gen, queue = make_generator(sim, rate=0.0)
        gen.start()
        sim.run_until(5.0)
        assert queue.pushed_weight == 0.0

    def test_events_timestamped_at_generation(self):
        sim = Simulator()
        gen, queue = make_generator(sim, rate=100.0)
        gen.start()
        sim.run_until(1.0)
        records = expand(queue.pull_blocks(1e9))
        times = {r.event_time for r in records}
        # All event times are generation tick times within the run
        # (generation starts immediately at t=0).
        assert all(0 <= t <= 1.0 for t in times)
        assert len(times) > 1


class TestDenseMode:
    def test_dense_covers_all_keys_each_tick(self):
        sim = Simulator()
        query = WindowedAggregationQuery()
        gen, queue = make_generator(sim, query=query, rate=6400.0)
        gen.start()
        sim.run_until(TICK_INTERVAL_S)
        records = expand(queue.pull_blocks(1e9))
        keys = {r.key for r in records}
        positive_mass_keys = {
            i for i, m in enumerate(query.keys.pmf()) if m > 0
        }
        assert keys == positive_mass_keys

    def test_dense_weights_follow_pmf(self):
        sim = Simulator()
        query = WindowedAggregationQuery()
        gen, queue = make_generator(sim, query=query, rate=6400.0)
        gen.start()
        sim.run_until(TICK_INTERVAL_S)
        records = expand(queue.pull_blocks(1e9))
        pmf = query.keys.pmf()
        tick_weight = 6400.0 * TICK_INTERVAL_S
        for r in records:
            assert r.weight == pytest.approx(tick_weight * pmf[r.key])

    def test_single_key_dense_emits_one_record_per_tick(self):
        sim = Simulator()
        query = WindowedAggregationQuery(keys=SingleKey())
        gen, queue = make_generator(sim, query=query, rate=100.0)
        gen.start()
        sim.run_until(TICK_INTERVAL_S * 0.5)
        records = expand(queue.pull_blocks(1e9))
        assert len(records) == 1
        assert records[0].key == 0


class TestJoinStreams:
    def test_join_emits_both_streams(self):
        sim = Simulator()
        query = WindowedJoinQuery(purchases_share=0.5)
        gen, queue = make_generator(sim, query=query, rate=1000.0)
        gen.start()
        sim.run_until(1.0)
        records = expand(queue.pull_blocks(1e9))
        by_stream = {}
        for r in records:
            by_stream[r.stream] = by_stream.get(r.stream, 0.0) + r.weight
        assert by_stream[PURCHASES] == pytest.approx(by_stream[ADS], rel=0.01)

    def test_purchases_share_respected(self):
        sim = Simulator()
        query = WindowedJoinQuery(purchases_share=0.75)
        gen, queue = make_generator(sim, query=query, rate=1000.0)
        gen.start()
        sim.run_until(1.0)
        records = expand(queue.pull_blocks(1e9))
        purchases = sum(r.weight for r in records if r.stream == PURCHASES)
        total = sum(r.weight for r in records)
        assert purchases / total == pytest.approx(0.75, rel=0.01)

    def test_ads_have_zero_value(self):
        sim = Simulator()
        gen, queue = make_generator(sim, query=WindowedJoinQuery(), rate=100.0)
        gen.start()
        sim.run_until(0.5)
        for r in expand(queue.pull_blocks(1e9)):
            if r.stream == ADS:
                assert r.value == 0.0


class TestFleet:
    def test_fleet_shares_sum_to_one(self):
        sim = Simulator()
        rng = RngRegistry(0)
        config = GeneratorConfig(instances=4)
        fleet = build_generator_fleet(
            sim=sim,
            profile=ConstantRate(4000.0),
            query=WindowedAggregationQuery(),
            rng_streams=[rng.stream(f"g{i}") for i in range(4)],
            config=config,
            horizon_s=10.0,
        )
        for gen in fleet:
            gen.start()
        sim.run_until(5.0)
        total = sum(g.generated_weight for g in fleet)
        assert total == pytest.approx(5.0 * 4000.0, rel=0.02)

    def test_fleet_blocks_carry_one_key_catalog(self):
        # Columnar stores recognise a block's catalog by identity: every
        # instance must stamp the distribution's one support array.
        sim = Simulator()
        rng = RngRegistry(0)
        query = WindowedAggregationQuery()
        fleet = build_generator_fleet(
            sim=sim,
            profile=ConstantRate(4000.0),
            query=query,
            rng_streams=[rng.stream(f"g{i}") for i in range(3)],
            config=GeneratorConfig(instances=3),
            horizon_s=10.0,
        )
        for gen in fleet:
            gen.start()
        sim.run_until(0.2)
        catalog = query.keys.support()[0]
        blocks = [b for gen in fleet for b in gen.queue.pull_blocks(1e9)]
        assert len(blocks) >= 3
        assert all(b.keys is catalog for b in blocks)

    def test_fleet_queue_capacity_from_peak(self):
        sim = Simulator()
        rng = RngRegistry(0)
        config = GeneratorConfig(instances=2, queue_capacity_seconds=10.0)
        fleet = build_generator_fleet(
            sim=sim,
            profile=ConstantRate(100.0),
            query=WindowedAggregationQuery(),
            rng_streams=[rng.stream(f"g{i}") for i in range(2)],
            config=config,
            horizon_s=10.0,
        )
        # Per-instance peak 50 events/s * 10 s = 500 events capacity.
        assert fleet[0].queue.capacity_weight == pytest.approx(500.0)

    def test_fleet_rng_count_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_generator_fleet(
                sim=sim,
                profile=ConstantRate(1.0),
                query=WindowedAggregationQuery(),
                rng_streams=[],
                config=GeneratorConfig(instances=2),
                horizon_s=1.0,
            )


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(instances=0)
        with pytest.raises(ValueError):
            GeneratorConfig(instances=-2)
        with pytest.raises(ValueError):
            GeneratorConfig(queue_capacity_seconds=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(queue_capacity_seconds=-5.0)

    def test_validation_messages_name_the_value(self):
        # The CLI surfaces these messages verbatim as argument errors;
        # they must say what was wrong, not just that something was.
        with pytest.raises(ValueError, match="-3"):
            GeneratorConfig(instances=-3)
        with pytest.raises(ValueError, match="-0.5"):
            GeneratorConfig(queue_capacity_seconds=-0.5)

    def test_max_share_capped_by_overprovision(self):
        assert GeneratorConfig(instances=4).max_share == pytest.approx(
            OVERPROVISION_FACTOR / 4
        )
        # A single instance can always serve the whole profile.
        assert GeneratorConfig(instances=1).max_share == 1.0

    def test_bad_share_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_generator(sim, share=0.0)

    def test_double_start_rejected(self):
        sim = Simulator()
        gen, _ = make_generator(sim)
        gen.start()
        with pytest.raises(RuntimeError):
            gen.start()
