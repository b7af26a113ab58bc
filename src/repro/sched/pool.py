"""Work-stealing process-pool trial scheduler with crash-safe shards.

Design
------
Trial cells are embarrassingly parallel: each is a pure function of a
picklable payload (an :class:`~repro.core.experiment.ExperimentSpec`
plus a little context) returning a JSON-safe digest.  The parent holds
the bag of unclaimed cells; each worker process pulls work on demand --
it announces ``ready``, the parent hands it the next cell, it runs the
cell, journals the digest to its own shard file, and reports the digest
back.  Dynamic self-scheduling means a slow cell (an engine that
survives a long recovery) never serialises the grid behind it.

The handshake (rather than a shared task queue the workers drain
directly) is what makes crash recovery exact: the parent records every
assignment before the cell leaves its hands, so when a worker dies the
parent knows precisely which cell was in flight.  A shared-bag design
cannot know that -- a ``claimed`` message from the worker rides a
buffered queue and can be lost with the process.

Crash model
-----------
- *A worker dies* (OOM-killed, SIGKILL): the parent notices the dead
  process during its poll, re-enqueues the worker's assigned cell for
  the survivors, and carries on.  Cells the dead worker already
  finished are safe twice over -- in its shard on disk and in the
  parent's journal (the parent records each digest as it arrives).
- *Every worker dies*: the parent finishes the remaining cells inline.
- *The parent dies*: worker shards remain on disk; the next run with
  ``--resume`` merges them under the journal fingerprint and replays,
  so the crash costs only trials that were in flight.

Determinism
-----------
The scheduler never invents order: results are returned as a
``{key: digest}`` mapping and the caller absorbs them in its own
deterministic order.  Seeds and journal keys are computed by the caller
*before* fan-out.  Parallel and serial runs of the same grid therefore
produce byte-identical reports -- the property the chaos CI smoke
``cmp``s.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.metrology.journal import MISSING, TrialJournal, shard_path


class TaskFailed(RuntimeError):
    """A trial task raised inside a worker (carries the remote traceback)."""


@dataclass(frozen=True)
class TrialTask:
    """One independent trial cell.

    ``fn`` must be a module-level function (pickled by reference) taking
    ``payload`` and returning a JSON-safe digest; ``key`` identifies the
    cell in journals and in the returned result mapping.
    """

    key: str
    fn: Callable[[Any], Any]
    payload: Any = None


def _preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (fast start, no re-import); else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(
    index: int,
    task_queue,
    result_queue,
    shard: Optional[str],
    fingerprint: Optional[str],
) -> None:  # pragma: no cover - runs in a child process
    """Pull cells from the parent until the shutdown sentinel."""
    journal = (
        TrialJournal(shard, fingerprint) if shard is not None else None
    )
    while True:
        result_queue.put(("ready", index, None, None))
        task = task_queue.get()
        if task is None:
            return
        key, fn, payload = task
        try:
            digest = fn(payload)
        except BaseException:
            result_queue.put(("error", index, key, traceback.format_exc()))
            continue
        if journal is not None:
            # Shard first, then report: the digest is durable on disk
            # before the parent ever counts it done.
            journal.record(key, digest)
        result_queue.put(("done", index, key, digest))


class _Worker:
    """Parent-side view of one worker: process, private task queue,
    and the cell currently assigned to it (None when idle)."""

    def __init__(self, process, task_queue) -> None:
        self.process = process
        self.task_queue = task_queue
        self.assigned: Optional[TrialTask] = None
        self.dead = False


class TrialScheduler:
    """Fan independent trial cells over ``workers`` processes.

    With ``workers <= 1`` (or one pending cell) everything runs inline
    in the parent -- the serial path and the parallel path share the
    journal-lookup, record, and result-shape semantics exactly.
    """

    def __init__(
        self,
        workers: int = 1,
        journal: Optional[TrialJournal] = None,
        poll_interval_s: float = 0.1,
        join_timeout_s: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.journal = journal
        self.poll_interval_s = float(poll_interval_s)
        self.join_timeout_s = float(join_timeout_s)

    def run(
        self,
        tasks: Sequence[TrialTask],
        on_result: Optional[Callable[[str, Any], None]] = None,
        on_replay: Optional[Callable[[str, Any], None]] = None,
    ) -> Dict[str, Any]:
        """Run every task; return ``{key: digest}`` for all of them.

        Journaled keys are replayed without running (``on_replay`` fires
        per replay, ``on_result`` per live completion).  Raises
        :class:`TaskFailed` if any task raised in a worker.
        """
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate task keys in one scheduler run")
        results: Dict[str, Any] = {}
        pending: List[TrialTask] = []
        for task in tasks:
            if self.journal is not None:
                cached = self.journal.get(task.key, MISSING)
                if cached is not MISSING:
                    results[task.key] = cached
                    if on_replay is not None:
                        on_replay(task.key, cached)
                    continue
            pending.append(task)
        if self.workers <= 1 or len(pending) <= 1:
            for task in pending:
                self._commit(task.key, task.fn(task.payload), results, on_result)
            return results
        self._run_pool(pending, results, on_result)
        return results

    def _commit(
        self,
        key: str,
        digest: Any,
        results: Dict[str, Any],
        on_result: Optional[Callable[[str, Any], None]],
    ) -> None:
        results[key] = digest
        if self.journal is not None:
            self.journal.record(key, digest)
        if on_result is not None:
            on_result(key, digest)

    # -- the pool ------------------------------------------------------------

    def _run_pool(
        self,
        pending: List[TrialTask],
        results: Dict[str, Any],
        on_result: Optional[Callable[[str, Any], None]],
    ) -> None:
        context = _preferred_context()
        count = min(self.workers, len(pending))
        result_queue = context.Queue()
        todo = deque(pending)
        outstanding: Set[str] = {task.key for task in pending}
        fingerprint = (
            self.journal.fingerprint if self.journal is not None else None
        )
        pool: List[_Worker] = []
        for index in range(count):
            shard = (
                str(shard_path(self.journal.path, index))
                if self.journal is not None
                else None
            )
            task_queue = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(index, task_queue, result_queue, shard, fingerprint),
                daemon=True,
            )
            process.start()
            pool.append(_Worker(process, task_queue))
        idle: List[int] = []
        failure: Optional[TaskFailed] = None

        def assign(index: int) -> None:
            task = todo.popleft()
            pool[index].assigned = task
            pool[index].task_queue.put((task.key, task.fn, task.payload))

        try:
            while outstanding:
                try:
                    kind, index, key, value = result_queue.get(
                        timeout=self.poll_interval_s
                    )
                except queue_module.Empty:
                    self._reap(pool, todo, idle)
                    while todo and idle:
                        assign(idle.pop())
                    if all(worker.dead for worker in pool) and outstanding:
                        # The whole pool is gone; finish the tail inline
                        # so the run still completes deterministically.
                        for task in pending:
                            if task.key in outstanding:
                                self._commit(
                                    task.key, task.fn(task.payload),
                                    results, on_result,
                                )
                                outstanding.discard(task.key)
                    continue
                if kind == "ready":
                    if todo:
                        assign(index)
                    else:
                        idle.append(index)
                elif kind == "done":
                    pool[index].assigned = None
                    if key in outstanding:
                        outstanding.discard(key)
                        self._commit(key, value, results, on_result)
                elif kind == "error":
                    pool[index].assigned = None
                    failure = TaskFailed(
                        f"trial task {key!r} failed in worker {index}:\n"
                        f"{value}"
                    )
                    break
        finally:
            self._shutdown(pool, result_queue, failure)
            if self.journal is not None:
                # Fold worker shards into the parent journal (digests
                # whose "done" message never arrived included), then
                # drop them -- the parent journal is authoritative.
                self.journal.merge_shards()
        if failure is not None:
            raise failure

    def _reap(
        self,
        pool: List[_Worker],
        todo,
        idle: List[int],
    ) -> None:
        """Detect dead workers; put their assigned cells back in the bag.

        The parent recorded the assignment before sending it, so a
        SIGKILLed worker can never take the identity of its in-flight
        cell to the grave -- the cell goes back to the front of the bag
        for the survivors.
        """
        for index, worker in enumerate(pool):
            if worker.dead or worker.process.is_alive():
                continue
            worker.dead = True
            if index in idle:
                idle.remove(index)
            task = worker.assigned
            worker.assigned = None
            if task is not None:
                todo.appendleft(task)

    def _shutdown(self, pool: List[_Worker], result_queue, failure) -> None:
        if failure is not None:
            # Fail fast: no point letting workers grind through the
            # rest of a grid whose run is already doomed.
            for worker in pool:
                if worker.process.is_alive():
                    worker.process.terminate()
        else:
            for worker in pool:
                worker.task_queue.put(None)
        for worker in pool:
            worker.process.join(timeout=self.join_timeout_s)
        for worker in pool:
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=self.join_timeout_s)
        for worker in pool:
            worker.task_queue.close()
            worker.task_queue.cancel_join_thread()
        result_queue.close()
        result_queue.cancel_join_thread()
