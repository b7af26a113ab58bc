"""What happens *to* an engine, pinned: faults, verdicts, rescales, checkpoints.

The conformance and grid goldens pin the engines' reaction to crashes,
restarts and Flink rescales as seen through whole trials.  This corpus
drives the same machinery directly -- ``inject_fault`` /
``request_scale_*`` / ``apply_suspect_migration`` on a started engine
under a steady feed -- through the branches those trials never reach
(fatal restart, suspect eviction with and without a spare, a crash
racing a scale-in drain, a fatal crash under an in-flight scale-out,
straggler replacement at the detection boundary, every gray fault) on
all five engines, and records the fault log, the rescale log, the
worker-pool timeline and the diagnostics.  Regenerate after an
*intentional* behaviour change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/engines/test_control_plane.py
"""

import hashlib
import json
import os
import pathlib

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.queues import DriverQueue, QueueSet
from repro.engines import engine_class
from repro.engines.operators.sink import Sink
from repro.faults import checkpoint as checkpoint_model
from repro.faults.checkpoint import CheckpointSpec
from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    FlappingNode,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.recovery.reschedule import (
    MODE_NONE,
    MODE_SPREAD,
    MODE_STANDBY,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import SutFailure
from repro.sim.network import DataPlane
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.queries import WindowedAggregationQuery

from tests.cohorts import cohort

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "control_plane.json"
ENGINES = ("flink", "heron", "samza", "spark", "storm")

#: The diagnostics a control-plane change would move; stored in full
#: (zeros elided).  Everything else is pinned through ``diagnostics_sha``.
CONTROL_KEYS = (
    "ingested_weight", "active_workers", "cluster_workers",
    "state_lost_weight", "faults_injected", "lost_weight",
    "duplicated_weight", "checkpoints_completed",
    "checkpoint_pause_total_s", "recovery_pause_total_s",
    "rescale_pause_total_s", "suspect_pause_total_s",
    "suspect_migrations", "standbys_available", "standbys_promoted",
    "rescale_events", "shed_weight",
)


class Rig:
    """One started engine under a steady feed: 0.6 M events/s, or with
    ``saturate`` 3.6 M events/s -- above every engine's capacity, so
    the ingested weight follows whatever capacity is left."""

    def __init__(
        self, name, workers, *, standby=0, reschedule=None, checkpoint=None,
        ramp=False, saturate=False,
    ):
        cls = engine_class(name)
        self.sim = Simulator()
        self.engine = cls(
            sim=self.sim,
            cluster=ClusterSpec(workers, standby=standby),
            query=WindowedAggregationQuery(),
            plane=DataPlane(self.sim),
            rng=RngRegistry(0).stream("control-plane"),
            checkpoint=checkpoint,
            reschedule=reschedule,
            degradation=cls.recommended_degradation if ramp else None,
        )
        self.cohort_weight = 60000.0 if saturate else 10000.0
        self.queues = [DriverQueue("q0"), DriverQueue("q1")]
        self.engine.start(QueueSet(self.queues), Sink())
        self.sim.every(0.1, self._feed)
        self.pool = []
        self.sim.every(0.25, self._watch_pool, start=0.0)
        self.returned = []

    def _feed(self, sim):
        for queue in self.queues:
            for key in range(3):
                queue.push_block(
                    cohort(
                        key=key, event_time=sim.now, weight=self.cohort_weight
                    ),
                    at_time=sim.now,
                )

    def _watch_pool(self, sim):
        engine = self.engine
        seen = [
            engine.active_workers, engine.billed_nodes,
            engine.target_workers, engine.standbys_available,
        ]
        if not self.pool or self.pool[-1][1:] != seen:
            self.pool.append([sim.now] + seen)

    def at(self, time_s, call, *args, **kwargs):
        """Run ``engine.<call>(*args)`` at ``time_s``; what the request
        returned (None = refused) is part of the record."""

        def fire():
            result = getattr(self.engine, call)(*args, **kwargs)
            if call != "inject_fault":
                self.returned.append([time_s, call, result is not None])

        self.sim.schedule_at(time_s, fire)

    def fault(self, event):
        self.at(event.at_s, "inject_fault", event)

    def charge_state(self, nbytes):
        """Seed keyed state so migrations and drains take real time."""
        self.engine.state.charge(nbytes)

    def record(self, until_s):
        self.sim.run_until(until_s)
        engine = self.engine
        diag = engine.diagnostics()
        blob = json.dumps(diag, sort_keys=True)
        return json.loads(json.dumps({
            "fault_log": engine.fault_log,
            "rescale_log": engine.rescale_log,
            "requests": self.returned,
            "pool": self.pool,
            "failure": repr(engine.failure),
            "control": {k: diag[k] for k in CONTROL_KEYS if diag[k] != 0.0},
            "diagnostics_sha": hashlib.sha256(blob.encode()).hexdigest()[:16],
        }))


def fatal_restart(name):
    rig = Rig(name, 3, ramp=True)
    rig.fault(ProcessRestart(at_s=2.0, nodes=1))
    rig.fault(ProcessRestart(at_s=12.0, nodes=3))
    return rig.record(14.0)


def fatal_crash_mode_none(name):
    rig = Rig(name, 3, reschedule=MODE_NONE)
    rig.fault(NodeCrash(at_s=2.0, nodes=1))
    rig.fault(NodeCrash(at_s=13.0, nodes=2))
    return rig.record(15.0)


def crash_standby_then_spread(name):
    # One spare for two dead workers: one slot is promoted into, the
    # other spreads; checkpoints (2 s) bound the replay span.
    rig = Rig(
        name, 3,
        standby=1, reschedule=MODE_STANDBY,
        checkpoint=CheckpointSpec(interval_s=2.0),
        ramp=True,
    )
    rig.charge_state(4e8)
    rig.fault(NodeCrash(at_s=3.0, nodes=2))
    return rig.record(25.0)


def suspect_spread(name):
    # Spread mode never promotes: the idle spare stays idle, every
    # eviction shrinks the pool, and the last worker is never evicted.
    rig = Rig(
        name, 3, standby=1, reschedule=MODE_SPREAD
    )
    rig.charge_state(4e8)
    rig.fault(DegradingNode(at_s=2.0, duration_s=8.0, node=1))
    rig.at(4.0, "apply_suspect_migration", 1, spurious=False)
    rig.at(9.0, "apply_suspect_migration", 0, spurious=True)
    rig.at(14.0, "apply_suspect_migration", 2, spurious=True)
    return rig.record(18.0)


def suspect_standby(name):
    # First verdict consumes the spare, the second finds none and spreads.
    rig = Rig(
        name, 3,
        standby=1, reschedule=MODE_STANDBY,
        ramp=True,
    )
    rig.charge_state(4e8)
    rig.fault(FlappingNode(at_s=2.0, duration_s=10.0, node=2, period_s=2.0))
    rig.at(4.0, "apply_suspect_migration", 2, spurious=False)
    rig.at(10.0, "apply_suspect_migration", 0, spurious=True)
    return rig.record(16.0)


def suspect_refused(name):
    rig = Rig(name, 2, reschedule=MODE_NONE)
    rig.at(2.0, "apply_suspect_migration", 0, spurious=True)
    return rig.record(4.0)


def scale_in_race(name, request, crash):
    rig = Rig(name, 4)
    rig.charge_state(2e9)  # a drain of seconds, so the crash lands inside
    rig.at(2.0, "request_scale_in", request)
    rig.fault(NodeCrash(at_s=2.5, nodes=crash))
    return rig.record(40.0)


def scale_in_race_reduced(name):
    return scale_in_race(name, request=2, crash=2)


def scale_in_race_skipped(name):
    return scale_in_race(name, request=1, crash=3)


def fatal_crash_before_cutover(name):
    rig = Rig(name, 2)
    rig.at(2.0, "request_scale_out", 1, reason="test", detect_s=0.5)
    rig.fault(NodeCrash(at_s=5.0, nodes=2))
    return rig.record(30.0)


def fatal_crash_before_completion(name):
    rig = Rig(name, 2)
    rig.charge_state(2e9)
    rig.at(2.0, "request_scale_out", 1)
    lead_s = rig.engine.rescale.lead_s(cold=1)
    rig.fault(NodeCrash(at_s=2.0 + lead_s + 0.01, nodes=2))
    return rig.record(2.0 + lead_s + 30.0)


def slow_node_at_the_detection_boundary(name):
    # Below / equal to / above DETECTION_TIMEOUT_S (2.0): only the last
    # two are replaced by a standby.
    rig = Rig(
        name, 4, saturate=True,
        standby=3, reschedule=MODE_STANDBY,
    )
    rig.charge_state(4e8)
    rig.fault(SlowNode(at_s=2.0, duration_s=1.0, nodes=1, factor=0.4))
    rig.fault(SlowNode(at_s=5.0, duration_s=2.0, nodes=1, factor=0.4))
    rig.fault(SlowNode(at_s=9.0, duration_s=6.0, nodes=2, factor=0.4))
    return rig.record(17.0)


def scale_out_on_a_spare_then_scale_in(name):
    rig = Rig(
        name, 2,
        standby=2, reschedule=MODE_STANDBY,
        ramp=True,
    )
    rig.charge_state(4e8)
    rig.at(2.0, "request_scale_out", 1)  # warm: the spare skips the boot
    rig.at(3.0, "request_scale_out", 1)  # refused: one rescale in flight
    rig.at(20.0, "request_scale_in", 1)  # the idle spare goes first, free
    rig.at(21.0, "request_scale_in", 2)  # drains actives, keeps one
    rig.at(21.5, "request_scale_in", 1)  # refused: mid-migration
    return rig.record(40.0)


def transient_and_gray_faults(name):
    rig = Rig(name, 4, saturate=True)
    rig.fault(NetworkPartition(at_s=2.0, duration_s=2.0))
    rig.fault(QueueDisconnect(at_s=5.0, duration_s=1.5, queue_index=1))
    rig.fault(FlappingNode(at_s=7.0, duration_s=5.0, node=0, period_s=2.0, seed=3))
    rig.fault(DegradingNode(at_s=12.5, duration_s=5.0, node=1, steps=4))
    rig.fault(AsymmetricPartition(at_s=18.0, duration_s=2.5, node=2, direction="data"))
    rig.fault(AsymmetricPartition(at_s=21.0, duration_s=2.0, node=3))
    return rig.record(24.0)


def checkpoint_ticks(name):
    # The barrier pauses (checkpoint-restore engines only) overlap a
    # restart's outage; only the outage anchors the admission ramp.
    rig = Rig(name, 2, checkpoint=CheckpointSpec(interval_s=1.5), ramp=True)
    rig.charge_state(1e9)
    rig.fault(ProcessRestart(at_s=4.0, nodes=1))
    return rig.record(16.0)


SCENARIOS = (
    fatal_restart,
    fatal_crash_mode_none,
    crash_standby_then_spread,
    suspect_spread,
    suspect_standby,
    suspect_refused,
    scale_in_race_reduced,
    scale_in_race_skipped,
    fatal_crash_before_cutover,
    fatal_crash_before_completion,
    slow_node_at_the_detection_boundary,
    scale_out_on_a_spare_then_scale_in,
    transient_and_gray_faults,
    checkpoint_ticks,
)


def dump(corpus):
    cells = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(corpus[key], sort_keys=True)}"
        for key in sorted(corpus)
    )
    return "{\n" + cells + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REGEN_GOLDEN"):
        corpus = {
            f"{name}/{scenario.__name__}": scenario(name)
            for name in ENGINES
            for scenario in SCENARIOS
        }
        GOLDEN.write_text(dump(corpus))
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
@pytest.mark.parametrize("name", ENGINES)
def test_cell_matches_golden(golden, name, scenario):
    cell = scenario(name)
    pinned = golden[f"{name}/{scenario.__name__}"]
    for field in pinned:
        assert cell[field] == pinned[field], (
            f"{name}/{scenario.__name__}: {field} moved"
        )
    assert cell.keys() == pinned.keys()


def test_golden_is_canonical(golden):
    # The file is exactly what REGEN_GOLDEN would write from its own
    # content, and covers every cell.
    assert dump(golden) == GOLDEN.read_text()
    assert len(golden) == len(ENGINES) * len(SCENARIOS)


class TestTheCorpusReachesWhatItClaims:
    """Guards on the scenarios themselves, so a tuning change cannot
    quietly turn a boundary case into an ordinary one."""

    def test_fatal_faults_keep_their_log_entry(self, golden):
        for name in ENGINES:
            for scenario in ("fatal_restart", "fatal_crash_mode_none"):
                cell = golden[f"{name}/{scenario}"]
                assert cell["fault_log"][-1]["fatal"] == 1.0
                assert cell["failure"] != "None"

    def test_the_race_clamp_is_exercised(self, golden):
        for name in ENGINES:
            reduced = golden[f"{name}/scale_in_race_reduced"]
            skipped = golden[f"{name}/scale_in_race_skipped"]
            assert reduced["control"]["active_workers"] == 1.0
            assert reduced["control"]["cluster_workers"] == 3.0
            assert skipped["control"]["active_workers"] == 1.0
            assert skipped["control"]["cluster_workers"] == 4.0
            # The crash landed before the drain finished.
            for cell in (reduced, skipped):
                crash_at = cell["fault_log"][0]["at_s"]
                assert crash_at < cell["rescale_log"][0]["online_at_s"]

    def test_failed_scale_out_returns_its_provisioning(self, golden):
        for name in ENGINES:
            for scenario in (
                "fatal_crash_before_cutover", "fatal_crash_before_completion",
            ):
                cell = golden[f"{name}/{scenario}"]
                assert "online_at_s" not in cell["rescale_log"][0]
                _, active, billed, target, _ = cell["pool"][-1]
                assert (active, billed, target) == (0, 0, 2)
            late = golden[f"{name}/fatal_crash_before_completion"]
            assert "cutover_at_s" in late["rescale_log"][0]
            early = golden[f"{name}/fatal_crash_before_cutover"]
            assert "cutover_at_s" not in early["rescale_log"][0]

    def test_stragglers_are_replaced_from_the_timeout_up(self, golden):
        for name in ENGINES:
            log = golden[f"{name}/slow_node_at_the_detection_boundary"]["fault_log"]
            assert [entry.get("promoted", 0.0) for entry in log] == [0.0, 1.0, 2.0]

    def test_suspect_eviction_with_and_without_a_spare(self, golden):
        for name in ENGINES:
            spread = golden[f"{name}/suspect_spread"]
            verdicts = [e for e in spread["fault_log"] if e["kind"] == "suspect"]
            assert [e["promoted"] for e in verdicts] == [0.0, 0.0]
            assert spread["requests"][-1] == [14.0, "apply_suspect_migration", False]
            assert spread["control"]["standbys_available"] == 1.0
            standby = golden[f"{name}/suspect_standby"]
            verdicts = [e for e in standby["fault_log"] if e["kind"] == "suspect"]
            assert [e["promoted"] for e in verdicts] == [1.0, 0.0]
            assert standby["control"]["active_workers"] == 2.0


class TestBehaviourTheGoldenWouldNotExplain:
    """The same branches stated as properties, so a failure says what
    broke instead of which bytes moved."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_fatal_restart_keeps_its_entry_and_its_accounting(self, name):
        rig = Rig(name, 2)
        rig.fault(ProcessRestart(at_s=3.0, nodes=2))
        rig.sim.run_until(4.0)
        engine = rig.engine
        assert engine.failed and "bounced all 2" in str(engine.failure)
        (entry,) = engine.fault_log
        assert entry["kind"] == "restart" and entry["fatal"] == 1.0
        assert entry["pause_s"] == 0.0
        # Accounted before the engine froze: the whole exposure went
        # through the delivery guarantee, exactly once.
        ledger = engine.guarantees
        assert ledger.fault_count == 1
        assert entry["exposed_weight"] == ledger.exposed_weight > 0.0
        assert entry["lost_weight"] == ledger.lost_weight
        assert entry["duplicated_weight"] == ledger.duplicated_weight
        assert engine.state_lost_weight == ledger.lost_weight
        assert engine.diagnostics()["faults_injected"] == 1.0
        # A bounce is not a death: the head count is untouched.
        assert engine.active_workers == 2

    @pytest.mark.parametrize("name", ENGINES)
    def test_a_crash_while_no_worker_serves_is_fatal(self, name):
        # One worker, one spare: the first crash promotes the spare,
        # which warms up through the recovery pause, and a second crash
        # inside that pause finds no worker serving.
        rig = Rig(
            name, 1,
            standby=1, reschedule=MODE_STANDBY,
        )
        rig.fault(NodeCrash(at_s=2.0))
        rig.fault(NodeCrash(at_s=3.0))
        rig.sim.run_until(4.0)
        engine = rig.engine
        first, second = engine.fault_log
        assert first["promoted"] == 1.0 and first["pause_s"] > 1.0
        assert second["kind"] == "crash" and second["fatal"] == 1.0
        assert engine.failed and isinstance(engine.failure, SutFailure)
        assert "no worker is serving" in str(engine.failure)
        assert engine.active_workers == 0

    @pytest.mark.parametrize("name", ENGINES)
    def test_a_warming_standby_keeps_billing(self, name):
        # Three workers, one spare, two crash: the spare is promoted and
        # warms up through the recovery pause, a machine billed all the
        # while, then serves.
        rig = Rig(
            name, 3,
            standby=1, reschedule=MODE_STANDBY,
        )
        rig.charge_state(4e8)
        rig.fault(NodeCrash(at_s=3.0, nodes=2))
        rig.sim.run_until(3.5)
        engine = rig.engine
        (entry,) = engine.fault_log
        assert entry["promoted"] == 1.0 and entry["pause_s"] > 0.5
        assert (engine.active_workers, engine.billed_nodes) == (1, 2)
        rig.sim.run_until(3.0 + entry["pause_s"] + 0.5)
        assert (engine.active_workers, engine.billed_nodes) == (2, 2)
        assert engine.standbys_available == 0

    @pytest.mark.parametrize("request_n,crash_n", [(1, 1), (1, 3), (2, 2), (3, 3)])
    def test_a_crash_racing_the_drain_never_empties_the_cluster(
        self, request_n, crash_n
    ):
        rig = Rig("samza", 4)
        rig.charge_state(2e9)
        rig.at(2.0, "request_scale_in", request_n)
        rig.fault(NodeCrash(at_s=2.5, nodes=crash_n))
        rig.sim.run_until(40.0)
        engine = rig.engine
        (entry,) = engine.rescale_log
        assert 2.5 < entry["online_at_s"]  # the crash did land mid-drain
        assert not engine.failed
        assert 1 <= engine.active_workers <= engine.cluster.workers
        assert engine.target_workers == engine.cluster.workers
        assert engine.billed_nodes == engine.active_workers

    @pytest.mark.parametrize("request_n,crash_n", [(1, 1), (2, 2), (1, 3)])
    @pytest.mark.parametrize("name", ENGINES)
    def test_a_drain_cut_short_by_a_crash_logs_who_departed(
        self, name, request_n, crash_n
    ):
        # A crash mid-drain can leave fewer active workers than the
        # scale-in meant to retire; the log says how many did depart.
        rig = Rig(name, 4)
        rig.charge_state(2e9)
        rig.at(2.0, "request_scale_in", request_n)
        rig.fault(NodeCrash(at_s=2.5, nodes=crash_n))
        rig.sim.run_until(40.0)
        engine = rig.engine
        (entry,) = engine.rescale_log
        assert 2.5 < entry["online_at_s"]  # the crash did land mid-drain
        departed = 4 - engine.cluster.workers
        assert departed == min(request_n, 4 - crash_n - 1)
        assert entry["from_workers"] == 4.0
        assert entry["to_workers"] == engine.cluster.workers
        assert entry["delta"] == -departed

    @pytest.mark.parametrize("name", ["storm", "heron"])
    def test_an_outage_of_zero_seconds_anchors_no_admission_ramp(
        self, name, monkeypatch
    ):
        # Every term of the tuple-replay recovery pause configured away:
        # the restart costs nothing, so admission must not be throttled
        # to the ramp floor "after" it.  (Between two ticks, so the
        # bounced worker is back before capacity is next read.)
        for constant in (
            "DETECTION_TIMEOUT_S", "RESTART_BASE_S",
            "REBALANCE_BASE_S", "REPLAY_COST_FACTOR",
        ):
            monkeypatch.setattr(checkpoint_model, constant, 0.0)

        def ingested(restart):
            rig = Rig(
                name, 2, checkpoint=CheckpointSpec(), ramp=True, saturate=True
            )
            assert rig.engine.degradation.readmission_ramp_s > 0.0
            if restart:
                rig.fault(ProcessRestart(at_s=1.02, nodes=1))
            rig.sim.run_until(2.0)
            if restart:
                assert rig.engine.fault_log[0]["pause_s"] == 0.0
            return rig.engine.ingested_weight

        assert ingested(restart=True) == ingested(restart=False)
