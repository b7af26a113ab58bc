"""Engine-level rescale mechanics: styles, safety guards, billing."""

from dataclasses import replace

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.autoscale.rescale import (
    RESCALE_STYLES,
    STYLE_MICRO_BATCH,
    STYLE_REBALANCE,
    STYLE_REPARTITION,
    STYLE_SAVEPOINT,
    RescaleSemantics,
)
from repro.engines import engine_class
from repro.faults.checkpoint import sync_pause_s
from repro.faults.schedule import NodeCrash
from repro.sim.cluster import ClusterSpec
from repro.sim.network import DataPlane
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.queries import WindowedAggregationQuery


def make_engine(name="flink", workers=2, standby=0):
    sim = Simulator()
    engine = engine_class(name)(
        sim=sim,
        cluster=ClusterSpec(workers, standby=standby),
        query=WindowedAggregationQuery(),
        plane=DataPlane(sim),
        rng=RngRegistry(0).stream("rescale-test"),
    )
    return sim, engine


class TestRescaleSemantics:
    def test_engine_styles(self):
        assert engine_class("spark").rescale.style == STYLE_MICRO_BATCH
        assert engine_class("flink").rescale.style == STYLE_SAVEPOINT
        assert engine_class("storm").rescale.style == STYLE_REBALANCE
        assert engine_class("heron").rescale.style == STYLE_REBALANCE
        assert engine_class("samza").rescale.style == STYLE_REPARTITION

    def test_validation(self):
        with pytest.raises(ValueError):
            RescaleSemantics(style="teleport")
        with pytest.raises(ValueError):
            RescaleSemantics(provision_s=-1.0)
        with pytest.raises(ValueError):
            RescaleSemantics(warmup_s=-1.0)

    def test_hot_spares_skip_cold_boot(self):
        semantics = RescaleSemantics(provision_s=15.0, warmup_s=2.0)
        assert semantics.lead_s(cold=1) == 17.0
        assert semantics.lead_s(cold=0) == 2.0  # warm-up still paid


class TestStylePauses:
    """The style component of a real cutover, read from its log entry
    (a scale-in cuts over at the request)."""

    @staticmethod
    def cutover(name, workers=2, state_bytes=0.0):
        _, engine = make_engine(name, workers)
        engine.state.charge(state_bytes)
        return engine, engine.request_scale_in(1)

    def test_micro_batch_is_free(self):
        _, entry = self.cutover("spark", state_bytes=1e9)
        assert entry["migrated_bytes"] > 0.0
        assert entry["style_pause_s"] == 0.0
        assert entry["pause_s"] == entry["migration_s"]

    def test_savepoint_pays_whole_state_sync(self):
        flink, entry = self.cutover("flink", state_bytes=1e9)
        whole = sync_pause_s(flink.state.used_bytes)
        moved = sync_pause_s(entry["migrated_bytes"])
        assert entry["style_pause_s"] == pytest.approx(whole)
        assert whole > moved

    def test_repartition_pays_moved_share_only(self):
        samza, entry = self.cutover("samza", state_bytes=1e9)
        assert entry["migrated_bytes"] == pytest.approx(5e8)
        expected = sync_pause_s(entry["migrated_bytes"])
        assert entry["style_pause_s"] == pytest.approx(expected)

    def test_rebalance_grows_with_topology(self):
        _, small = self.cutover("storm", workers=2)
        _, large = self.cutover("storm", workers=8)
        assert small["style_pause_s"] > 0.0
        assert large["style_pause_s"] > small["style_pause_s"]


class TestScaleOut:
    def test_cold_scale_out_lifecycle(self):
        sim, engine = make_engine("flink", workers=2)
        entry = engine.request_scale_out(2, reason="test", detect_s=1.0)
        assert entry is not None
        assert entry["kind"] == "scale-out"
        assert entry["from_workers"] == 2.0
        assert entry["to_workers"] == 4.0
        assert entry["spares_used"] == 0.0
        assert entry["provision_s"] == engine.rescale.lead_s(cold=2)
        # Provisioning nodes bill immediately; capacity arrives later.
        assert engine.billed_nodes == 4
        assert engine.active_workers == 2
        assert engine.target_workers == 4
        sim.run_until(60.0)
        assert engine.active_workers == 4
        assert engine.cluster.workers == 4
        assert "online_at_s" in entry
        assert entry["online_at_s"] >= entry["cutover_at_s"]

    def test_one_rescale_in_flight(self):
        sim, engine = make_engine("flink")
        assert engine.request_scale_out(1) is not None
        assert engine.request_scale_out(1) is None
        sim.run_until(60.0)
        assert engine.request_scale_out(1) is not None

    def test_spares_first(self):
        sim, engine = make_engine(
            "flink",
            workers=2,
            standby=2,
        )
        entry = engine.request_scale_out(3)
        assert entry["spares_used"] == 2.0
        assert engine.standbys_available == 0
        # One cold node: the full provision lead still applies.
        assert entry["provision_s"] == engine.rescale.lead_s(cold=1)

    def test_all_spares_warm_lead(self):
        sim, engine = make_engine(
            "flink",
            workers=2,
            standby=2,
        )
        entry = engine.request_scale_out(2)
        assert entry["provision_s"] == engine.rescale.warmup_s

    def test_refused_when_failed(self):
        sim, engine = make_engine("flink")
        # Losing every worker with no standbys is fatal.
        engine.inject_fault(NodeCrash(at_s=1.0, nodes=engine.active_workers))
        assert engine.failed
        assert engine.request_scale_out(1) is None

    def test_exactly_once_exposes_nothing(self):
        sim, engine = make_engine("flink")
        entry = engine.request_scale_out(1)
        sim.run_until(60.0)
        assert entry["lost_weight"] == 0.0
        assert entry["duplicated_weight"] == 0.0


class TestScaleIn:
    def test_last_worker_never_drained(self):
        sim, engine = make_engine("flink", workers=1)
        assert engine.request_scale_in(1) is None
        assert engine.active_workers == 1

    def test_drain_keeps_one_worker(self):
        # Asking for more than available clamps to active - 1.
        sim, engine = make_engine("flink", workers=3)
        entry = engine.request_scale_in(5)
        assert entry is not None
        assert entry["delta"] == -2.0
        sim.run_until(60.0)
        assert engine.active_workers == 1
        assert engine.cluster.workers == 1

    def test_spares_returned_first_without_pause(self):
        sim, engine = make_engine(
            "flink",
            workers=2,
            standby=2,
        )
        billed_before = engine.billed_nodes
        entry = engine.request_scale_in(2)
        # Pure spare return: instant, no migration, no pause, actives
        # untouched.
        assert entry["spares_returned"] == 2.0
        assert entry["pause_s"] == 0.0
        assert entry["migrated_bytes"] == 0.0
        assert entry["online_at_s"] == entry["decided_at_s"]
        assert engine.active_workers == 2
        assert engine.billed_nodes == billed_before - 2

    def test_scale_in_blocked_mid_migration(self):
        sim, engine = make_engine("flink", workers=2)
        entry = engine.request_scale_out(1)
        sim.run_until(entry["provision_s"] + 0.001)  # just past cutover
        landed_at_s = entry["cutover_at_s"] + entry["pause_s"]
        assert sim.now < landed_at_s  # the savepoint alone outlasts 1 ms
        assert engine.request_scale_in(1) is None
        sim.run_until(landed_at_s)
        assert engine.request_scale_in(1) is not None

    def test_victims_bill_until_departure(self):
        sim, engine = make_engine("samza", workers=4)
        # Seed some keyed state so the drain takes real time.
        engine.state.charge(5e8)
        entry = engine.request_scale_in(2)
        assert entry is not None
        assert entry["pause_s"] > 0.0
        assert engine.billed_nodes == 4  # still draining
        sim.run_until(entry["decided_at_s"] + entry["pause_s"] + 1.0)
        assert engine.active_workers == 2
        assert engine.billed_nodes == 2

    def test_spare_return_while_every_worker_is_warming_up(self):
        # Both workers crashed and their standbys are still warming up:
        # nothing serves, yet the third spare can be handed back -- as a
        # pure spare return, not as "minus one victim".
        sim, engine = make_engine(
            "flink",
            workers=2,
            standby=3,
        )
        engine.inject_fault(NodeCrash(at_s=1.0, nodes=2))
        assert (engine.active_workers, engine.standbys_available) == (0, 1)
        entry = engine.request_scale_in(1)
        assert entry["delta"] == -1.0
        assert entry["spares_returned"] == 1.0
        assert entry["to_workers"] == entry["from_workers"] == 2.0
        assert entry["online_at_s"] == entry["decided_at_s"]

    def test_refused_below_spares_and_victims(self):
        sim, engine = make_engine("flink", workers=1)
        assert engine.request_scale_in(3) is None


class TestStyleRegistry:
    def test_all_registered_styles_have_a_branch(self):
        # Guards against adding a style without pricing it.
        _, engine = make_engine("flink")
        # (On the instance: ``rescale`` is a class attribute shared by
        # every Flink engine in the process.)
        for style in RESCALE_STYLES:
            engine.rescale = replace(engine.rescale, style=style)
            assert engine.control.style_pause_s(1e6) >= 0.0
