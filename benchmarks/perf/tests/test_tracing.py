"""Span arithmetic and patch/restore, on hand-built spans and fakes."""

import types

import pytest

from benchmarks.perf.tracing import Tracer, chrome_trace, entries, self_times


def test_self_times_of_nested_and_sibling_spans_sum_to_the_root():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    selfs = self_times(starts, ends, parents)
    assert list(selfs) == [3.0, 2.0, 1.0, 4.0]
    assert selfs.sum() == ends[0] - starts[0]


def test_reentrant_span_counts_once_and_keeps_its_time():
    # close [0, 6] calls close [1, 3] and close [3, 5] on its two sides.
    name_ids = [7, 7, 7]
    starts, ends, parents = [0.0, 1.0, 3.0], [6.0, 3.0, 5.0], [-1, 0, 0]
    assert list(self_times(starts, ends, parents)) == [2.0, 2.0, 2.0]
    assert list(entries(name_ids, parents)) == [True, False, False]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_tracer():
    return Tracer(lambda owner, function: None, clock=FakeClock())


def test_tracer_folds_per_root_and_resets():
    tracer = make_tracer()
    inner = tracer.wrap(lambda: None, tracer.name_id("inner", "layer.a"))
    outer = tracer.wrap(
        lambda: (inner(), inner()), tracer.name_id("outer", "layer.b")
    )
    outer()
    taken = tracer.take()
    # Clock ticks: outer start 1, inner 2..3, inner 4..5, outer end 6.
    assert taken["self_s"] == {"inner": 2.0, "outer": 3.0}
    assert taken["calls"] == {"inner": 2, "outer": 1}
    assert taken["spans"] == 3
    assert taken["root_s"] == 5.0
    assert sum(taken["self_s"].values()) == taken["root_s"]
    assert tracer.take()["spans"] == 0


def test_span_closes_when_the_call_raises():
    tracer = make_tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, tracer.name_id("boom", "layer"))()
    assert tracer.take()["calls"] == {"boom": 1}


def test_after_hook_sees_result_and_arguments():
    tracer = make_tracer()
    seen = []
    wrapped = tracer.wrap(
        lambda a, b: a + b,
        tracer.name_id("add", "layer"),
        after=lambda result, args: seen.append((result, args)),
    )
    assert wrapped(1, 2) == 3
    assert seen == [(3, (1, 2))]


def test_patch_applies_only_while_enabled_and_restores_identity():
    class Store:
        def add(self, value):
            return value

    module = types.ModuleType("fake")
    module.helper = lambda: "h"
    original_add, original_helper = vars(Store)["add"], module.helper
    tracer = make_tracer()
    tracer.patch(Store, "add", "store.add", "layer")
    tracer.patch(module, "helper", "helper", "layer")
    assert vars(Store)["add"] is original_add
    with tracer:
        assert vars(Store)["add"] is not original_add
        assert Store().add(4) == 4 and module.helper() == "h"
    for owner, attr, original in tracer.patched():
        assert vars(owner)[attr] is original
    assert tracer.take()["calls"] == {"store.add": 1, "helper": 1}
    with pytest.raises(TypeError):
        tracer.patch(types.SimpleNamespace(x=staticmethod(len)), "x", "x", "l")


def test_callbacks_are_named_by_their_owner():
    class Engine:
        def tick(self):
            return "ticked"

    tracer = Tracer(
        lambda owner, function: (f"{owner.__name__}.{function}", "engines"),
        clock=FakeClock(),
    )
    bound = Engine().tick
    assert tracer.callback(len) is len  # no owner: left alone
    assert tracer.callback(bound)() == "ticked"
    assert tracer.take()["calls"] == {"Engine.tick": 1}


def test_chrome_trace_has_one_track_per_layer():
    tracer = make_tracer()
    inner = tracer.wrap(lambda: None, tracer.name_id("inner", "layer.a"))
    outer = tracer.wrap(lambda: inner(), tracer.name_id("outer", "layer.b"))
    tracer.keep_raw = True
    outer()
    outer()
    tracer.take()
    spans = tracer.export()
    assert [s["parent"] for s in spans] == [-1, 0, -1, 2]
    assert [s["trial"] for s in spans] == [0, 0, 1, 1]
    events = chrome_trace(spans)["traceEvents"]
    tracks = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
    assert set(tracks) == {"layer.a", "layer.b"}
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["tid"] for e in complete if e["cat"] == "layer.a"} == {
        tracks["layer.a"]
    }
    assert all(e["dur"] > 0 for e in complete)
