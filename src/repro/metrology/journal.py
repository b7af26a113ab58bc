"""Checkpoint/resume journal for multi-trial experiments.

A sustainable-throughput search is a dozen trials; a chaos soak is
engines x policies x rounds.  Losing the process at trial ``k`` used to
mean re-running trials ``0..k-1``.  The journal checkpoints each
completed trial's *exported* outcome to a JSON file as soon as it
finishes; on ``--resume`` the orchestrator replays journaled outcomes
instead of re-running, and because the journal stores exactly the
values the final report serialises (floats survive a JSON round-trip
bit-for-bit), an interrupted-and-resumed run produces a byte-identical
final report.

The journal is keyed, not positional: deterministic orchestrators
(bisection, the chaos grid) re-derive the same keys in the same order,
so a key hit is a replay and a miss is live work.  A ``fingerprint``
string captures everything that shaped the run (spec label, seed,
search bracket, criteria); resuming against a journal whose fingerprint
differs raises :class:`JournalMismatch` -- silently mixing trials from
a different experiment would fabricate results.

Writes are atomic (per-process temp file + fsync + rename, then a
directory fsync), so a crash mid-write leaves the previous consistent
journal on disk even when several processes write journals side by
side.

Sharding (the parallel trial scheduler, :mod:`repro.sched`): each
worker process journals into its own shard file next to the parent
journal (``<name>.shard-w<k>``) under the same fingerprint, and the
parent folds shards back with :meth:`TrialJournal.merge_shards`.
Resuming merges any leftover shards from a killed run automatically,
so a dead worker costs only its in-flight trial.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Union

_FORMAT = "repro-trial-journal-v1"

#: Sentinel default for :meth:`TrialJournal.get` letting callers
#: distinguish "key absent" from a journaled ``None`` outcome.
MISSING = object()


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different experiment."""


def shard_path(
    path: Union[str, pathlib.Path], worker_index: int
) -> pathlib.Path:
    """The journal shard a scheduler worker writes, next to ``path``."""
    path = pathlib.Path(path)
    return path.with_name(f"{path.name}.shard-w{int(worker_index)}")


class TrialJournal:
    """Keyed JSON store of completed-trial outcomes for one experiment."""

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        fingerprint: str,
        resume: bool = False,
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = fingerprint
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        if resume:
            if not self.path.exists():
                # Resuming with nothing to resume from would silently
                # re-run everything live -- surprising, so explicit.
                raise FileNotFoundError(
                    f"cannot --resume: journal {self.path} does not exist"
                )
            payload = json.loads(self.path.read_text())
            if payload.get("format") != _FORMAT:
                raise JournalMismatch(
                    f"{self.path} is not a trial journal "
                    f"(format {payload.get('format')!r})"
                )
            found = payload.get("fingerprint")
            if found != fingerprint:
                raise JournalMismatch(
                    f"journal {self.path} was written by a different "
                    f"experiment:\n  journal: {found}\n  current: {fingerprint}"
                )
            self._entries = dict(payload.get("entries", {}))
            # A run killed mid-parallel leaves worker shards holding
            # trials whose completion never reached the parent journal;
            # fold them in so --resume replays *everything* completed.
            self.merge_shards()
        else:
            # A fresh (non-resume) journal starts a new experiment:
            # shards left behind by an unrelated previous run must not
            # leak into this run's end-of-pool merge.
            for stale in self.shard_paths():
                stale.unlink()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership without touching the hit/miss counters."""
        return key in self._entries

    def get(self, key: str, default: Any = None) -> Optional[Any]:
        """The journaled outcome for ``key``, or ``default`` (counts
        hit/miss).

        A journaled ``None`` (a trial that legitimately exported a null
        outcome) is a *hit* and is returned as ``None``; pass the
        module-level :data:`MISSING` sentinel as ``default`` (or test
        ``key in journal`` first) to tell it apart from a miss.
        """
        entry = self._entries.get(key, MISSING)
        if entry is MISSING:
            self.misses += 1
            return default
        self.hits += 1
        return entry

    def record(self, key: str, entry: Any) -> None:
        """Checkpoint one completed trial (flushed to disk immediately)."""
        self._entries[key] = entry
        self._flush()

    def _flush(self) -> None:
        payload = {
            "format": _FORMAT,
            "fingerprint": self.fingerprint,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Per-process temp name: concurrent writers (scheduler parent
        # plus worker shards in the same directory) must never clobber
        # each other's half-written temp file.
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            handle.flush()
            # Without the fsync, a crash after os.replace can still
            # surface a zero-length "journal" once the page cache is
            # lost -- the atomicity claim needs the data durable first.
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        """Make the rename itself durable (best effort off-POSIX)."""
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(dir_fd)

    # -- shard protocol (parallel scheduler) ---------------------------------

    def shard_paths(self) -> List[pathlib.Path]:
        """Worker shards currently on disk next to this journal."""
        if not self.path.parent.exists():
            return []
        return sorted(self.path.parent.glob(self.path.name + ".shard-*"))

    def absorb(self, path: Union[str, pathlib.Path]) -> int:
        """Fold another journal file's entries into this one (in
        memory; the caller flushes).  The shard must carry the same
        fingerprint -- mixing experiments would fabricate results.
        Existing keys win: per-trial outcomes are deterministic, so a
        duplicate key is the same digest recorded twice.  Returns the
        number of new entries."""
        payload = json.loads(pathlib.Path(path).read_text())
        if payload.get("format") != _FORMAT:
            raise JournalMismatch(
                f"{path} is not a trial journal "
                f"(format {payload.get('format')!r})"
            )
        found = payload.get("fingerprint")
        if found != self.fingerprint:
            raise JournalMismatch(
                f"shard {path} was written by a different experiment:\n"
                f"  shard:   {found}\n  current: {self.fingerprint}"
            )
        added = 0
        for key, entry in payload.get("entries", {}).items():
            if key not in self._entries:
                self._entries[key] = entry
                added += 1
        return added

    def merge_shards(self) -> int:
        """Fold every on-disk shard into this journal and delete the
        shard files; returns the number of new entries."""
        added = 0
        merged_any = False
        for shard in self.shard_paths():
            added += self.absorb(shard)
            merged_any = True
            shard.unlink()
        if added:
            self._flush()
        elif merged_any and self._entries:
            # Shards held nothing new, but they are gone now -- make
            # sure the parent journal holding their content is durable.
            self._flush()
        return added

    def stats(self) -> Dict[str, float]:
        return {
            "journal.entries": float(len(self._entries)),
            "journal.hits": float(self.hits),
            "journal.misses": float(self.misses),
        }
