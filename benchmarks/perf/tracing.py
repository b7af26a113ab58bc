"""Span recording from outside the program.

The tracer never edits ``src/``: for the length of a traced run it
replaces public callables (class attributes and module globals) with
thin wrappers that record one span per call, and puts the originals
back afterwards.  Nothing here imports ``repro``; the table of which
callables form which layer lives in :mod:`benchmarks.perf.boundaries`.

Spans are kept as four parallel columns -- ``name_id, start, end,
parent`` -- in unboxed arrays: a tuple per span costs four times as
much in fresh-page faults and collector passes as the call it times.
``parent`` is the index of the enclosing span (``-1`` for a root), so a
parent always precedes its children.  Exported spans carry the six
fields ``name, layer, start, end, parent, trial``.

A span's *self time* is its duration minus the durations of its direct
children; summed over a tree that telescopes to the root's duration,
which is what lets per-layer self times add up to a trial's wall time.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Marks a wrapper so a callable is never wrapped twice.
_TRACED = "_perf_traced"


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> np.ndarray:
    """Self time of every span: duration minus direct children."""
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    covered = np.bincount(
        parents[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def entries(name_ids: Sequence[int], parents: Sequence[int]) -> np.ndarray:
    """Mask of the spans that enter their name from outside it: a call
    nested directly inside a span of the same name (``JoinStore.close``
    closing its two sides) is part of that call, not another one."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    return (parents < 0) | (name_ids[parents] != name_ids)


class _Columns:
    """The span table: four parallel unboxed columns."""

    def __init__(self) -> None:
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")

    def __len__(self) -> int:
        return len(self.name_ids)

    def move_out(self) -> "_Columns":
        """The rows so far as a new table; this one is left empty."""
        moved = _Columns()
        for name, column in vars(self).items():
            setattr(moved, name, column[:])
            del column[:]
        return moved

    def append_tree(self, tree: "_Columns") -> None:
        """Add a root's rows, re-basing their parent indices."""
        parents = np.asarray(tree.parents, dtype=np.intc)
        shifted = np.where(parents >= 0, parents + len(self), -1)
        self.name_ids.extend(tree.name_ids)
        self.starts.extend(tree.starts)
        self.ends.extend(tree.ends)
        self.parents.frombytes(shifted.astype(np.intc).tobytes())


class Tracer:
    """Records spans around patched callables and folds them per root.

    ``classify(owner_type, function_name)`` names the span for a
    simulator callback from the object that owns it, or returns
    ``None`` to leave the callback untimed (it then counts as self time
    of the event loop).
    """

    def __init__(
        self,
        classify: Callable[[type, str], Optional[Tuple[str, str]]],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._classify = classify
        self._clock = clock
        self.names: List[Tuple[str, str]] = []
        self._ids: Dict[str, int] = {}
        self._open = _Columns()
        self._stack: List[int] = [-1]
        self._closed: List[_Columns] = []
        self._callback_ids: Dict[Tuple[type, str], Optional[int]] = {}
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.enabled = False
        self.keep_raw = False
        """Keep the raw spans of folded roots (for the Chrome trace)."""
        self.raw = _Columns()
        self.counters: Dict[str, float] = defaultdict(float)
        """Counts the ``after`` hooks keep; cleared by :meth:`take`."""

    # -- names ------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append((name, layer))
        return found

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name_id: int,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """A stand-in for ``fn`` that runs it inside a span.

        ``after(result, args)`` runs once the span is closed, for counts
        that need the arguments or the result (its own cost lands in the
        caller's self time, so keep it to a few attribute reads).
        """
        traced = self._span(fn, name_id, after)
        functools.update_wrapper(traced, fn)
        setattr(traced, _TRACED, True)
        return traced

    def _span(
        self,
        fn: Callable[..., Any],
        name_id: int,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        columns = self._open
        name_ids, starts = columns.name_ids, columns.starts
        ends, parents = columns.ends, columns.parents
        add_name, add_start = name_ids.append, starts.append
        add_end, add_parent = ends.append, parents.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = self._clock
        close_root = self._close_root

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(name_ids)
            parent = stack[-1]
            add_name(name_id)
            add_parent(parent)
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()
                if parent < 0:
                    close_root()
            if after is not None:
                after(result, args)
            return result

        return traced

    def callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """The callback to hand the event loop in place of ``callback``:
        timed under its owner's layer, or unchanged."""
        function = getattr(callback, "__func__", None)
        if function is None:
            return callback  # not a bound Python method: no owner to name
        key = (type(callback.__self__), function.__name__)
        try:
            found = self._callback_ids[key]
        except KeyError:
            named = (
                None
                if getattr(function, _TRACED, False)
                else self._classify(*key)
            )
            found = self._callback_ids[key] = (
                None if named is None else self.name_id(*named)
            )
        if found is None:
            return callback
        return self._span(callback, found)

    # -- patching ---------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> None:
        """Time ``owner.attr`` (a class's own method or a module global)
        as span ``name``; takes effect on :meth:`enable`."""
        original = vars(owner)[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self.replace(
            owner, attr, self.wrap(original, self.name_id(name, layer), after)
        )

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Register an arbitrary stand-in for ``owner.attr``."""
        self._patches.append((owner, attr, vars(owner)[attr], replacement))
        if self.enabled:
            setattr(owner, attr, replacement)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attr, original)`` for every registered patch."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._patches]

    def enable(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self.enabled = True

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.enabled = False

    def __enter__(self) -> "Tracer":
        self.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.disable()

    # -- folding ----------------------------------------------------------

    def _close_root(self) -> None:
        """A root span just closed: set its tree aside.  The arithmetic
        waits for :meth:`take`, which callers run outside their own
        stopwatch."""
        self._closed.append(self._open.move_out())

    def take(self) -> Dict[str, Any]:
        """Self time and calls per span name, the hook counters, the
        span count and the summed root durations since the last call."""
        if len(self._stack) != 1 or len(self._open):
            raise RuntimeError("take() called inside an open span")
        self_s = np.zeros(len(self.names))
        calls = np.zeros(len(self.names), dtype=np.int64)
        span_count = 0
        root_s = 0.0
        for tree in self._closed:
            ids = np.asarray(tree.name_ids, dtype=np.int64)
            self_s += np.bincount(
                ids,
                weights=self_times(tree.starts, tree.ends, tree.parents),
                minlength=len(self.names),
            )
            calls += np.bincount(
                ids[entries(ids, tree.parents)], minlength=len(self.names)
            )
            span_count += len(tree)
            root_s += tree.ends[0] - tree.starts[0]
            if self.keep_raw:
                self.raw.append_tree(tree)
        taken = {
            "self_s": {
                name: float(self_s[i])
                for i, (name, _) in enumerate(self.names)
                if calls[i]
            },
            "calls": {
                name: int(calls[i])
                for i, (name, _) in enumerate(self.names)
                if calls[i]
            },
            "counters": dict(self.counters),
            "spans": span_count,
            "root_s": root_s,
        }
        self._closed = []
        self.counters.clear()
        return taken

    # -- export -----------------------------------------------------------

    def export(self) -> List[Dict[str, Any]]:
        """The kept raw spans with all six fields spelled out."""
        out: List[Dict[str, Any]] = []
        trial = -1
        trial_of: List[int] = []
        raw = self.raw
        for name_id, start, end, parent in zip(
            raw.name_ids, raw.starts, raw.ends, raw.parents
        ):
            if parent < 0:
                trial += 1
                trial_of.append(trial)
            else:
                trial_of.append(trial_of[parent])
            name, layer = self.names[name_id]
            out.append(
                {
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "trial": trial_of[-1],
                }
            )
        return out


def chrome_trace(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Exported spans as Chrome-trace / Perfetto JSON, one track per
    layer (spans of one layer nest or are disjoint, so each track is a
    valid flame row)."""
    layers = sorted({span["layer"] for span in spans})
    track = {layer: index + 1 for index, layer in enumerate(layers)}
    origin = min((span["start"] for span in spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tid,
            "args": {"name": layer},
        }
        for layer, tid in track.items()
    ]
    for index, span in enumerate(spans):
        events.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": span["layer"],
                "pid": 1,
                "tid": track[span["layer"]],
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {
                    "span": index,
                    "parent": span["parent"],
                    "trial": span["trial"],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
