"""Checkpoint/resume journals: kill-at-trial-k resume byte-identity."""

import json
import os

import pytest

from repro.analysis.export import search_to_dict
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    find_sustainable_throughput,
    search_fingerprint,
)
from repro.metrology import JournalMismatch, TrialJournal
from repro.metrology.journal import MISSING, shard_path
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

HIGH_RATE = 800_000.0


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        engine="storm",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=HIGH_RATE,
        duration_s=30.0,
        seed=5,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )


def _fingerprint(spec) -> str:
    return search_fingerprint(spec, high_rate=HIGH_RATE)


class TestJournalBasics:
    def test_get_miss_then_record_then_hit(self, tmp_path):
        journal = TrialJournal(tmp_path / "j.json", fingerprint="fp")
        assert journal.get("k") is None
        journal.record("k", {"x": 1.5})
        assert journal.get("k") == {"x": 1.5}
        # The file is flushed immediately: a crash right now loses
        # nothing already recorded.
        reopened = TrialJournal(
            tmp_path / "j.json", fingerprint="fp", resume=True
        )
        assert reopened.get("k") == {"x": 1.5}

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TrialJournal(tmp_path / "missing.json", fingerprint="fp", resume=True)

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        TrialJournal(tmp_path / "j.json", fingerprint="fp-a").record("k", {})
        with pytest.raises(JournalMismatch):
            TrialJournal(tmp_path / "j.json", fingerprint="fp-b", resume=True)

    def test_fresh_journal_overwrites_stale_file(self, tmp_path):
        path = tmp_path / "j.json"
        TrialJournal(path, fingerprint="fp-a").record("k", {"x": 1.0})
        fresh = TrialJournal(path, fingerprint="fp-b")
        assert fresh.get("k") is None

    def test_journaled_none_is_a_hit_not_a_miss(self, tmp_path):
        # A trial can legitimately export null; replaying it must not
        # be mistaken for "never ran" (which would re-run the trial and
        # count the lookup as a miss).
        journal = TrialJournal(tmp_path / "j.json", fingerprint="fp")
        journal.record("null-trial", None)
        assert "null-trial" in journal
        assert journal.get("null-trial", MISSING) is None
        assert (journal.hits, journal.misses) == (1, 0)
        assert journal.get("absent", MISSING) is MISSING
        assert (journal.hits, journal.misses) == (1, 1)

    def test_contains_does_not_touch_counters(self, tmp_path):
        journal = TrialJournal(tmp_path / "j.json", fingerprint="fp")
        journal.record("k", 1)
        assert "k" in journal and "other" not in journal
        assert (journal.hits, journal.misses) == (0, 0)


class TestAtomicity:
    def test_flush_uses_per_process_temp_and_fsyncs(
        self, tmp_path, monkeypatch
    ):
        # Concurrent writers (parent journal + worker shards in one
        # directory) must never share a temp name, and the data must be
        # durable before the rename publishes it.
        replaced, synced = [], []
        real_replace, real_fsync = os.replace, os.fsync
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (replaced.append(str(src)),
                              real_replace(src, dst)),
        )
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        journal = TrialJournal(tmp_path / "j.json", fingerprint="fp")
        journal.record("k", {"x": 1.0})
        assert replaced and replaced[0].endswith(f".tmp.{os.getpid()}")
        # One fsync for the temp file's data, one for the directory
        # entry after the rename.
        assert len(synced) >= 2
        assert not list(tmp_path.glob("*.tmp.*"))  # temp file gone


class TestShards:
    def test_shard_path_naming(self, tmp_path):
        path = tmp_path / "journal.json"
        assert shard_path(path, 3).name == "journal.json.shard-w3"
        assert shard_path(path, 3).parent == path.parent

    def test_merge_shards_folds_and_removes(self, tmp_path):
        path = tmp_path / "j.json"
        parent = TrialJournal(path, fingerprint="fp")
        parent.record("a", 1)
        for index, key in enumerate(["b", "c"]):
            TrialJournal(shard_path(path, index), fingerprint="fp").record(
                key, index
            )
        added = parent.merge_shards()
        assert added == 2
        assert parent.shard_paths() == []
        # The merged state is flushed: a reopened journal sees it all.
        reopened = TrialJournal(path, fingerprint="fp", resume=True)
        assert len(reopened) == 3

    def test_absorb_existing_keys_win(self, tmp_path):
        path = tmp_path / "j.json"
        parent = TrialJournal(path, fingerprint="fp")
        parent.record("a", "parent")
        shard = TrialJournal(shard_path(path, 0), fingerprint="fp")
        shard.record("a", "shard")
        shard.record("b", "shard")
        assert parent.merge_shards() == 1
        assert parent.get("a") == "parent"

    def test_absorb_refuses_foreign_fingerprint(self, tmp_path):
        path = tmp_path / "j.json"
        parent = TrialJournal(path, fingerprint="fp-a")
        TrialJournal(shard_path(path, 0), fingerprint="fp-b").record("k", 1)
        with pytest.raises(JournalMismatch):
            parent.merge_shards()

    def test_fresh_journal_deletes_stale_shards(self, tmp_path):
        path = tmp_path / "j.json"
        TrialJournal(shard_path(path, 0), fingerprint="fp-old").record("k", 1)
        fresh = TrialJournal(path, fingerprint="fp-new")
        assert fresh.shard_paths() == []

    def test_resume_merges_leftover_shards(self, tmp_path):
        path = tmp_path / "j.json"
        TrialJournal(path, fingerprint="fp").record("a", 1)
        TrialJournal(shard_path(path, 2), fingerprint="fp").record("b", 2)
        resumed = TrialJournal(path, fingerprint="fp", resume=True)
        assert resumed.get("b") == 2
        assert resumed.shard_paths() == []


class TestSearchResume:
    class Killed(RuntimeError):
        pass

    def _killing_run(self, live_budget):
        """A run callable that dies after ``live_budget`` live trials --
        the moral equivalent of kill -9 at trial k."""
        remaining = [live_budget]

        def run(spec):
            if remaining[0] <= 0:
                raise self.Killed()
            remaining[0] -= 1
            return run_experiment(spec)

        return run

    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_killed_then_resumed_search_is_byte_identical(
        self, tmp_path, kill_after
    ):
        spec = _spec()
        reference = find_sustainable_throughput(spec, high_rate=HIGH_RATE)
        reference_json = json.dumps(
            search_to_dict(reference), indent=2, sort_keys=True
        )

        path = tmp_path / "journal.json"
        journal = TrialJournal(path, fingerprint=_fingerprint(spec))
        with pytest.raises(self.Killed):
            find_sustainable_throughput(
                spec,
                high_rate=HIGH_RATE,
                run=self._killing_run(kill_after),
                journal=journal,
            )

        resumed_journal = TrialJournal(
            path, fingerprint=_fingerprint(spec), resume=True
        )
        resumed = find_sustainable_throughput(
            spec, high_rate=HIGH_RATE, journal=resumed_journal
        )
        assert resumed_journal.hits == kill_after
        assert resumed_journal.misses == reference.trial_count - kill_after
        resumed_json = json.dumps(
            search_to_dict(resumed), indent=2, sort_keys=True
        )
        assert resumed_json == reference_json

    def test_fully_journaled_search_runs_zero_trials(self, tmp_path):
        spec = _spec()
        path = tmp_path / "journal.json"
        first = find_sustainable_throughput(
            spec,
            high_rate=HIGH_RATE,
            journal=TrialJournal(path, fingerprint=_fingerprint(spec)),
        )
        replay_journal = TrialJournal(
            path, fingerprint=_fingerprint(spec), resume=True
        )

        def forbidden_run(spec):
            raise AssertionError("journaled search must not re-run trials")

        replay = find_sustainable_throughput(
            spec,
            high_rate=HIGH_RATE,
            run=forbidden_run,
            journal=replay_journal,
        )
        assert replay_journal.misses == 0
        assert replay.sustainable_rate == first.sustainable_rate
