"""Chaos harness tests: schedule generation, invariants, crash-aftermath
resume.  Byte-identity (serial / parallel / resumed / golden) is the
shared contract in ``tests/integration/test_grid_contract.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.schedule import FaultSchedule
from repro.grid import check_invariants
from repro.metrology import TrialJournal
from repro.metrology.journal import shard_path
from repro.recovery import chaos
from repro.recovery.chaos import (
    DEFAULT_POLICIES,
    ChaosConfig,
    ChaosPolicy,
    Scorecard,
    chaos_fingerprint,
    random_fault_schedule,
    round_seed,
    run_chaos,
)

SMALL = ChaosConfig(
    seed=3, rounds=2, engines=("flink",), duration_s=30.0, rate=20_000.0
)


class TestConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(rounds=0)
        with pytest.raises(ValueError):
            ChaosConfig(engines=())
        with pytest.raises(ValueError):
            ChaosConfig(policies=())

    def test_default_policies_cover_the_three_corners(self):
        names = [p.name for p in DEFAULT_POLICIES]
        assert names == ["baseline", "shed", "standby"]
        assert DEFAULT_POLICIES[0].standby == 0
        assert DEFAULT_POLICIES[2].standby == 1


class TestScheduleGeneration:
    def test_schedules_are_valid_for_the_trial(self):
        # Every generated schedule must pass the fault layer's own
        # validation (times inside the trial, positive durations).
        config = ChaosConfig(seed=0, rounds=1)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            schedule = random_fault_schedule(rng, config)
            assert isinstance(schedule, FaultSchedule)
            assert 1 <= len(schedule.events) <= chaos.MAX_FAULTS_PER_ROUND
            schedule.validate_against(config.duration_s)

    def test_same_rng_state_same_schedule(self):
        config = ChaosConfig(seed=0, rounds=1)
        a = random_fault_schedule(np.random.default_rng(7), config)
        b = random_fault_schedule(np.random.default_rng(7), config)
        assert a.describe() == b.describe()

    def test_driver_faults_mixed_into_the_draw(self):
        config = ChaosConfig(seed=0, rounds=1)
        kinds = set()
        for seed in range(60):
            schedule = random_fault_schedule(
                np.random.default_rng(seed), config
            )
            kinds.update(
                event.kind for event in schedule.events if event.driver_side
            )
        assert {"gencrash", "queueloss", "driverslow"} <= kinds

    def test_driver_faults_can_be_disabled(self):
        config = ChaosConfig(seed=0, rounds=1, driver_faults=False)
        for seed in range(40):
            schedule = random_fault_schedule(
                np.random.default_rng(seed), config
            )
            assert not any(e.driver_side for e in schedule.events)


class TestSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(SMALL)

    def test_all_cells_scored(self, report):
        assert set(report.scorecards) == {
            ("flink", "baseline"),
            ("flink", "shed"),
            ("flink", "standby"),
        }
        for card in report.scorecards.values():
            assert card.rounds == SMALL.rounds
            assert card.survived + card.failed == card.rounds

    def test_no_invariant_violations(self, report):
        assert report.ok, report.violations

    def test_scorecard_tracks_driver_faults(self, report):
        # With driver faults in the mix (the default), at least one
        # cell in a 2-round soak sees a driver-side injection, and the
        # count is exported as its own scorecard column.
        payload = report.to_dict()
        totals = sum(
            card["driver_faults_injected"]
            for card in payload["scorecards"].values()
        )
        assert totals >= 0  # column always present ...
        assert all(
            "driver_faults_injected" in card
            and "driver_lost_weight" in card
            for card in payload["scorecards"].values()
        )

    def test_crash_aftermath_shards_resume_byte_identical(
        self, report, tmp_path
    ):
        # Reconstruct the on-disk state of a parallel run whose parent
        # was killed: the parent journal holds a prefix of the grid,
        # one worker shard holds digests whose "done" message never
        # arrived.  --resume must replay both and only run the rest.
        fingerprint = chaos_fingerprint(SMALL)
        full_path = tmp_path / "full.json"
        run_chaos(
            SMALL, journal=TrialJournal(full_path, fingerprint=fingerprint)
        )
        entries = json.loads(full_path.read_text())["entries"]
        assert len(entries) == 6  # 1 engine x 3 policies x 2 rounds
        keys = sorted(entries)

        path = tmp_path / "crashed.json"
        parent = TrialJournal(path, fingerprint=fingerprint)
        for key in keys[:2]:
            parent.record(key, entries[key])
        shard = TrialJournal(shard_path(path, 1), fingerprint=fingerprint)
        shard.record(keys[2], entries[keys[2]])

        resumed_journal = TrialJournal(
            path, fingerprint=fingerprint, resume=True
        )
        resumed = run_chaos(SMALL, journal=resumed_journal)
        assert resumed_journal.hits == 3
        assert resumed_journal.misses == 3
        assert resumed.to_json() == report.to_json()


class TestRoundSeeds:
    def test_seed_round_pairs_do_not_collide(self):
        # Regression: seed * 1000 + round made (seed=1, round=0) and
        # (seed=0, round=1000) draw identical trials.
        assert round_seed(1, 0) != round_seed(0, 1_000)

    def test_distinct_across_a_dense_grid(self):
        grid = {
            round_seed(seed, round_index)
            for seed in range(20)
            for round_index in range(20)
        }
        assert len(grid) == 400

    def test_deterministic(self):
        assert round_seed(3, 7) == round_seed(3, 7)


class TestShardMergeProperty:
    """Merge order must never leak into the final scorecard."""

    @pytest.fixture(scope="class")
    def soak(self):
        report = run_chaos(SMALL)
        fingerprint = chaos_fingerprint(SMALL)
        # One full pass to harvest every cell digest.
        import tempfile, pathlib  # noqa: E401

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "j.json"
            run_chaos(
                SMALL, journal=TrialJournal(path, fingerprint=fingerprint)
            )
            entries = json.loads(path.read_text())["entries"]
        return report, fingerprint, entries

    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_shard_partition_replays_byte_identical(
        self, soak, tmp_path_factory, data
    ):
        # Scatter the digests over a random number of shards (plus an
        # arbitrary parent prefix) in a random order; the resumed soak
        # must reproduce the uninterrupted report byte for byte.
        report, fingerprint, entries = soak
        keys = data.draw(st.permutations(sorted(entries)))
        shard_count = data.draw(st.integers(min_value=1, max_value=4))
        owners = [
            data.draw(
                st.integers(min_value=0, max_value=shard_count),
                label=f"owner[{key}]",
            )
            for key in keys
        ]
        tmp_path = tmp_path_factory.mktemp("shards")
        path = tmp_path / "j.json"
        parent = TrialJournal(path, fingerprint=fingerprint)
        # The parent journal file must exist for --resume; the first
        # key always lands there (a parent that recorded nothing is
        # simply a fresh run, not a resume).
        parent.record(keys[0], entries[keys[0]])
        shards = {}
        for key, owner in zip(keys[1:], owners[1:]):
            if owner == 0:
                parent.record(key, entries[key])
            else:
                if owner not in shards:
                    shards[owner] = TrialJournal(
                        shard_path(path, owner), fingerprint=fingerprint
                    )
                shards[owner].record(key, entries[key])

        resumed_journal = TrialJournal(
            path, fingerprint=fingerprint, resume=True
        )
        resumed = run_chaos(SMALL, journal=resumed_journal)
        assert resumed_journal.hits == len(entries)
        assert resumed_journal.misses == 0
        assert resumed.to_json() == report.to_json()


class TestInvariantChecker:
    def test_flags_broken_driver_ledger(self):
        report = run_chaos(
            ChaosConfig(
                seed=1,
                rounds=1,
                engines=("flink",),
                policies=(ChaosPolicy(name="baseline"),),
                duration_s=30.0,
                rate=20_000.0,
            )
        )
        (card,) = report.scorecards.values()
        assert not card.violations

    def test_detects_guarantee_breach(self):
        # Forge a diagnostics dict that claims an exactly-once engine
        # lost weight; the checker must flag it.
        class Forged:
            engine = "flink"
            failed = True
            failure_time = 10.0
            diagnostics = {
                "conservation.ingested": 100.0,
                "driver.pushed_weight": 100.0,
                "driver.pulled_weight": 100.0,
                "driver.queued_weight": 0.0,
                "driver.shed_weight": 0.0,
                "lost_weight": 50.0,
                "duplicated_weight": 0.0,
            }

        violations = check_invariants(Forged(), "forged", workers=2)
        assert any("lost" in v for v in violations)

    def test_detects_ledger_imbalance(self):
        class Forged:
            engine = "storm"
            failed = True
            failure_time = 10.0
            diagnostics = {
                "conservation.ingested": 100.0,
                "conservation.staged": 0.0,
                "conservation.admitted": 60.0,
                "conservation.dropped": 0.0,
                "conservation.closed": 60.0,
                "conservation.stored": 0.0,
                "conservation.lost": 0.0,
                "driver.pushed_weight": 100.0,
                "driver.pulled_weight": 100.0,
                "driver.queued_weight": 0.0,
                "driver.shed_weight": 0.0,
                "lost_weight": 0.0,
                "duplicated_weight": 0.0,
            }

        violations = check_invariants(Forged(), "forged", workers=2)
        assert any("ingest ledger" in v for v in violations)

    def test_cascade_bound_follows_the_real_cluster_size(self):
        # A depth-3 migration chain is legal on 4 workers and a
        # violation on 2: the bound is the cluster the trial ran on,
        # not a constant.
        class Detection:
            calm = False
            false_positives = 0
            detector = "phi"
            cascade_depth_max = 3

        class Forged:
            engine = "flink"
            failed = True
            failure_time = 10.0
            diagnostics = {}
            detection = Detection()

        def cascade(workers):
            return [
                v
                for v in check_invariants(Forged(), "forged", workers=workers)
                if "cascade depth" in v
            ]

        assert cascade(4) == []
        assert len(cascade(2)) == 1


class TestRecoveryDecompositionColumns:
    """PR 9: scorecards carry the detect/restore/catch-up phase means
    and per-fault guarantee weights the recovery benchmark reads."""

    def _digest(self, recovery):
        return {
            "failed": False,
            "end_queue_delay_s": 0.0,
            "faults_injected": float(len(recovery)),
            "shed_weight": 0.0,
            "standbys_promoted": 0.0,
            "lost_weight": 0.0,
            "duplicated_weight": 0.0,
            "recovery": recovery,
            "violations": [],
        }

    def _entry(self, **overrides):
        base = {
            "detection_s": 2.0,
            "migrated_bytes": 0.0,
            "recovered": True,
            "recovery_time_s": 9.0,
            "detection_phase_s": 2.0,
            "restore_phase_s": 3.0,
            "catchup_phase_s": 4.0,
            "catchup_throughput": 1e5,
            "lost_weight": 10.0,
            "duplicated_weight": 5.0,
        }
        base.update(overrides)
        return base

    def test_phase_means_and_weights_aggregate(self):
        card = Scorecard(engine="flink", policy="baseline")
        card.absorb_digest(self._digest([self._entry()]))
        card.absorb_digest(
            self._digest(
                [
                    self._entry(
                        detection_phase_s=4.0,
                        restore_phase_s=5.0,
                        catchup_phase_s=6.0,
                        lost_weight=2.0,
                        duplicated_weight=1.0,
                    )
                ]
            )
        )
        payload = card.to_dict()
        assert payload["detect_phase_s_mean"] == 3.0
        assert payload["restore_phase_s_mean"] == 4.0
        assert payload["catchup_phase_s_mean"] == 5.0
        assert payload["fault_lost_weight"] == 12.0
        assert payload["fault_duplicated_weight"] == 6.0

    def test_unrecovered_faults_contribute_no_phases(self):
        card = Scorecard(engine="flink", policy="baseline")
        card.absorb_digest(
            self._digest(
                [
                    self._entry(
                        recovered=False,
                        recovery_time_s=None,
                        detection_phase_s=None,
                        restore_phase_s=None,
                        catchup_phase_s=None,
                    )
                ]
            )
        )
        payload = card.to_dict()
        assert payload["faults_unrecovered"] == 1
        assert payload["detect_phase_s_mean"] == 0.0
        # The unrecovered fault's exposure still counts.
        assert payload["fault_lost_weight"] == 10.0

    def test_absorbs_pre_pr9_digests_without_phase_keys(self):
        # Old journals lack the phase/weight keys; absorbing them must
        # not crash (the fingerprint bump keeps them out of *resumes*,
        # but absorb_digest stays total on old shapes).
        entry = self._entry()
        for key in (
            "detection_phase_s",
            "restore_phase_s",
            "catchup_phase_s",
            "lost_weight",
            "duplicated_weight",
        ):
            del entry[key]
        card = Scorecard(engine="flink", policy="baseline")
        card.absorb_digest(self._digest([entry]))
        payload = card.to_dict()
        assert payload["faults_recovered"] == 1
        assert payload["detect_phase_s_mean"] == 0.0
        assert payload["fault_lost_weight"] == 0.0

    def test_fingerprint_carries_the_digest_schema_version(self):
        # Resuming a pre-PR-9 (v2: phase columns) or pre-detection (v3:
        # detection section) journal must mismatch loudly, not blend
        # old digests into new scorecards.
        assert chaos_fingerprint(SMALL).startswith("chaos|v3|")

    def test_render_shows_the_decomposition(self):
        card = Scorecard(engine="flink", policy="baseline")
        card.absorb_digest(self._digest([self._entry()]))
        from repro.recovery.chaos import ChaosReport

        report = ChaosReport(
            config=SMALL,
            schedules=[],
            scorecards={("flink", "baseline"): card},
        )
        text = report.render()
        assert "det(s)" in text
        assert "rst(s)" in text
        assert "cat(s)" in text


class TestGrayDraws:
    CONFIG = ChaosConfig(seed=0, rounds=1, gray_faults=True)

    @pytest.fixture(autouse=True)
    def five_faults_per_round(self, monkeypatch):
        monkeypatch.setattr(chaos, "MAX_FAULTS_PER_ROUND", 5)

    def test_gray_kinds_mixed_into_the_draw(self):
        kinds = set()
        for seed in range(80):
            schedule = random_fault_schedule(
                np.random.default_rng(seed), self.CONFIG
            )
            kinds.update(event.kind for event in schedule.events)
        assert {"flap", "degrade", "asympart"} <= kinds

    def test_gray_draws_always_validate(self):
        # The deterministic node-placement pass must keep every drawn
        # schedule clear of the same-node overlap rejections.
        for seed in range(120):
            schedule = random_fault_schedule(
                np.random.default_rng(seed), self.CONFIG
            )
            schedule.validate_against(self.CONFIG.duration_s)

    def test_gray_off_by_default(self):
        config = ChaosConfig(seed=0, rounds=1)
        for seed in range(40):
            schedule = random_fault_schedule(
                np.random.default_rng(seed), config
            )
            assert not any(
                e.kind in ("flap", "degrade", "asympart")
                for e in schedule.events
            )

    def test_detector_config_validated(self):
        with pytest.raises(ValueError, match="unknown detector"):
            ChaosConfig(detector="bogus")


class TestDetectorSoak:
    def test_timeout_detector_is_byte_identical_to_no_detector(self):
        # The acceptance bar for the default detector: on the legacy
        # fault mix, `--detector timeout` replicates the fixed-timeout
        # recovery semantics so faithfully that the entire scorecard
        # JSON -- every float -- matches a run without the plane.
        import dataclasses

        plain = run_chaos(SMALL)
        timed = run_chaos(dataclasses.replace(SMALL, detector="timeout"))
        assert timed.to_json() == plain.to_json()

    def test_detection_columns_default_to_zero(self):
        report = run_chaos(SMALL)
        for card in report.to_dict()["scorecards"].values():
            assert card["false_positives"] == 0
            assert card["spurious_migration_node_s"] == 0.0
            assert card["cascade_depth_max"] == 0
            assert card["metastable"] == 0

    def test_soak_invariants_hold_for_every_engine_and_detector(self):
        # The ISSUE acceptance grid: all five engines under all three
        # detectors with gray faults in the mix -- the calm-no-FP and
        # cascade-bound invariants hold on every trial (report.ok).
        for detector in ("timeout", "phi", "quorum"):
            config = ChaosConfig(
                seed=2,
                rounds=1,
                duration_s=30.0,
                rate=10_000.0,
                detector=detector,
                gray_faults=True,
            )
            report = run_chaos(config)
            assert report.ok, (detector, report.violations)


class TestChaosFingerprint:
    def test_v3_tag_and_config_separation(self):
        import dataclasses

        fingerprint = chaos_fingerprint(SMALL)
        assert fingerprint.startswith("chaos|v3|")
        assert fingerprint != chaos_fingerprint(
            dataclasses.replace(SMALL, detector="phi")
        )
        assert fingerprint != chaos_fingerprint(
            dataclasses.replace(SMALL, gray_faults=True)
        )

    def test_stale_journal_mismatches_loudly(self, tmp_path):
        # A journal written under the v2 digest schema must refuse to
        # resume under v3 -- with both fingerprints in the error, not a
        # silent partial replay.
        path = tmp_path / "stale.json"
        stale = chaos_fingerprint(SMALL).replace("chaos|v3|", "chaos|v2|", 1)
        TrialJournal(path, fingerprint=stale).record(
            "flink/baseline/round0", {"failed": False}
        )
        with pytest.raises(ValueError) as err:
            TrialJournal(
                path, fingerprint=chaos_fingerprint(SMALL), resume=True
            )
        assert "chaos|v2|" in str(err.value)
        assert "chaos|v3|" in str(err.value)
