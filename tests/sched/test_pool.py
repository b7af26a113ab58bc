"""TrialScheduler: fan-out, journal replay, crash resilience, shards."""

import json

import pytest

from repro.metrology.journal import TrialJournal, shard_path
from repro.sched import TaskFailed, TrialScheduler, TrialTask, pool

from tests.sched import tasks as bodies

FP = "sched-test-fingerprint"


def make_tasks(n, fn=bodies.double):
    return [TrialTask(key=f"cell{i}", fn=fn, payload=i) for i in range(n)]


def expected(n):
    return {f"cell{i}": i * 2 for i in range(n)}


class TestInline:
    def test_single_worker_runs_everything(self):
        scheduler = TrialScheduler(workers=1)
        assert scheduler.run(make_tasks(5)) == expected(5)

    def test_single_pending_task_runs_inline_even_with_workers(self):
        # One pending cell never justifies a pool.
        scheduler = TrialScheduler(workers=4)
        assert scheduler.run(make_tasks(1)) == expected(1)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError):
            TrialScheduler(workers=0)

    def test_duplicate_keys_rejected(self):
        scheduler = TrialScheduler(workers=1)
        twice = make_tasks(2) + make_tasks(1)
        with pytest.raises(ValueError):
            scheduler.run(twice)

    def test_inline_failure_propagates(self):
        scheduler = TrialScheduler(workers=1)
        with pytest.raises(RuntimeError):
            scheduler.run(make_tasks(2, fn=bodies.boom))

    def test_on_result_fires_per_live_task(self):
        seen = []
        scheduler = TrialScheduler(workers=1)
        scheduler.run(
            make_tasks(3), on_result=lambda key, digest: seen.append(key)
        )
        assert seen == ["cell0", "cell1", "cell2"]


class TestPool:
    def test_parallel_matches_inline(self):
        serial = TrialScheduler(workers=1).run(make_tasks(7))
        parallel = TrialScheduler(workers=3).run(
            make_tasks(7, fn=bodies.slow_double)
        )
        assert parallel == serial == expected(7)

    def test_worker_failure_raises_task_failed(self):
        scheduler = TrialScheduler(workers=2)
        mixed = make_tasks(3) + [
            TrialTask(key="bad", fn=bodies.boom, payload=None)
        ]
        with pytest.raises(TaskFailed, match="exploded on purpose"):
            scheduler.run(mixed)

    def test_killed_worker_cell_is_rerun(self, tmp_path, monkeypatch):
        # One cell SIGKILLs its worker (once).  The parent must notice
        # the corpse, re-enqueue the in-flight cell, and finish the
        # whole grid on the survivors.
        marker = tmp_path / "killed"
        tasks = [
            TrialTask(
                key=f"cell{i}",
                fn=bodies.crash_worker_once,
                payload=(str(marker), i),
            )
            for i in range(6)
        ]
        monkeypatch.setattr(pool, "POLL_INTERVAL_S", 0.05)
        results = TrialScheduler(workers=3).run(tasks)
        assert results == expected(6)
        assert marker.exists()


class TestJournalIntegration:
    def test_replay_skips_journaled_cells(self, tmp_path):
        journal = TrialJournal(tmp_path / "j.json", fingerprint=FP)
        journal.record("cell0", 0)
        journal.record("cell1", 2)
        replayed = []
        results = TrialScheduler(workers=1, journal=journal).run(
            make_tasks(4),
            on_replay=lambda key, digest: replayed.append(key),
        )
        assert results == expected(4)
        assert replayed == ["cell0", "cell1"]
        assert journal.hits == 2

    def test_fully_journaled_run_never_executes(self, tmp_path):
        journal = TrialJournal(tmp_path / "j.json", fingerprint=FP)
        for key, digest in expected(3).items():
            journal.record(key, digest)
        results = TrialScheduler(workers=2, journal=journal).run(
            make_tasks(3, fn=bodies.forbidden)
        )
        assert results == expected(3)

    def test_parallel_run_journals_everything_and_merges_shards(
        self, tmp_path
    ):
        path = tmp_path / "j.json"
        journal = TrialJournal(path, fingerprint=FP)
        TrialScheduler(workers=3, journal=journal).run(make_tasks(6))
        assert journal.shard_paths() == []  # shards folded and removed
        payload = json.loads(path.read_text())
        assert payload["entries"] == {
            key: value for key, value in expected(6).items()
        }

    def test_journal_survives_parallel_then_serial_resume(self, tmp_path):
        path = tmp_path / "j.json"
        TrialScheduler(
            workers=3, journal=TrialJournal(path, fingerprint=FP)
        ).run(make_tasks(5))
        resumed = TrialJournal(path, fingerprint=FP, resume=True)
        results = TrialScheduler(workers=1, journal=resumed).run(
            make_tasks(5, fn=bodies.forbidden)
        )
        assert results == expected(5)
        assert resumed.hits == 5

    def test_leftover_shard_from_dead_run_replays_on_resume(self, tmp_path):
        # Simulate the aftermath of a killed parent: its journal holds
        # a prefix of the grid, a worker shard holds more completed
        # cells that never reached the parent.  --resume must replay
        # *both* without re-running anything it has.
        path = tmp_path / "j.json"
        parent = TrialJournal(path, fingerprint=FP)
        parent.record("cell0", 0)
        shard = TrialJournal(shard_path(path, 1), fingerprint=FP)
        shard.record("cell1", 2)
        shard.record("cell2", 4)

        resumed = TrialJournal(path, fingerprint=FP, resume=True)
        assert resumed.shard_paths() == []  # merged and removed on resume
        tasks = make_tasks(3, fn=bodies.forbidden) + make_tasks(
            4, fn=bodies.double
        )[3:]
        results = TrialScheduler(workers=1, journal=resumed).run(tasks)
        assert results == expected(4)
        assert resumed.hits == 3
