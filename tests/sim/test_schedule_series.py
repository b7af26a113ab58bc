"""``Simulator.schedule_series`` fires exactly like a loop of
``schedule_at``.

The reference is that loop (:func:`reference_series`).  Hypothesis draws
scenarios around one series -- events scheduled before and after it at
tied times (on both sides of its reserved sequence numbers), cancelled
events, callbacks that stop the loop, raise, cancel another event or
schedule one earlier than the next item, and drivers that mix
``run_until`` bounds falling inside the series with bare ``step`` and
``run`` calls -- and both implementations must log the same firings, the
same ``now`` at every firing, and the same ``now`` and ``pending`` after
every driver call.
"""

from typing import List, NamedTuple, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import SimulationError, Simulator


def reference_series(sim, times, callback, items) -> None:
    """One event per item: what ``schedule_series`` must behave as."""
    for time, item in zip(times, items):
        sim.schedule_at(time, callback, item)


class Boom(Exception):
    """Raised by a callback whose action is ``raise``."""


class Scenario(NamedTuple):
    start: float
    before: List[Tuple[float, tuple]]
    series: List[Tuple[float, tuple]]
    after: List[Tuple[float, tuple]]
    cancelled: List[int]
    drive: List[tuple]


#: Times on a quarter-second grid, so that ties are common.
offsets = st.integers(0, 12).map(lambda k: k / 4)
actions = st.one_of(
    st.just(("none",)),
    st.just(("none",)),
    st.just(("stop",)),
    st.just(("raise",)),
    st.tuples(st.just("cancel"), st.integers(0, 9)),
    st.tuples(st.just("child"), st.sampled_from([0.0, 0.25, 0.5])),
)
drivers = st.one_of(
    st.tuples(st.just("until"), offsets),
    st.just(("step",)),
    st.just(("run",)),
)


@st.composite
def scenarios(draw) -> Scenario:
    events = st.lists(st.tuples(offsets, actions), max_size=5)
    series = draw(st.lists(st.tuples(offsets, actions), max_size=8))
    series = sorted(series, key=lambda entry: entry[0])
    return Scenario(
        start=draw(offsets),
        before=draw(events),
        series=series,
        after=draw(events),
        cancelled=draw(st.lists(st.integers(0, 9), max_size=3)),
        drive=draw(st.lists(drivers, max_size=5)) + [("run",)],
    )


def execute(scenario: Scenario, schedule_series) -> list:
    """Run ``scenario`` with ``schedule_series``; the log of everything
    observable."""
    sim = Simulator()
    sim.run_until(scenario.start)
    log = []
    handles = []
    todo = {}

    def fire(tag) -> None:
        log.append((tag, sim.now))
        action = todo.get(tag, ("none",))
        if action[0] == "stop":
            sim.stop()
        elif action[0] == "raise":
            raise Boom(tag)
        elif action[0] == "cancel":
            if action[1] < len(handles):
                log.append(("cancelled", sim.cancel(handles[action[1]])))
        elif action[0] == "child":
            sim.schedule_at(sim.now + action[1], fire, ("child", tag))

    def schedule(side: str, entries) -> None:
        for i, (offset, action) in enumerate(entries):
            tag = (side, i)
            todo[tag] = action
            handles.append(
                sim.schedule_at(scenario.start + offset, fire, tag)
            )

    schedule("before", scenario.before)
    for i, (_, action) in enumerate(scenario.series):
        todo[("item", i)] = action
    schedule_series(
        sim,
        [scenario.start + offset for offset, _ in scenario.series],
        fire,
        [("item", i) for i in range(len(scenario.series))],
    )
    log.append(("pending", sim.pending))
    schedule("after", scenario.after)
    for index in scenario.cancelled:
        if index < len(handles):
            sim.cancel(handles[index])
    for driver in scenario.drive:
        try:
            if driver[0] == "until":
                sim.run_until(max(sim.now, scenario.start + driver[1]))
            elif driver[0] == "step":
                log.append(("stepped", sim.step()))
            else:
                sim.run()
        except Boom as boom:
            log.append(("raised", boom.args[0], sim.now))
        log.append((driver, sim.now, sim.pending))
    # Whatever a stop or a raise left behind fires on further runs.
    for _ in range(len(scenario.series) + 12):
        try:
            sim.run()
        except Boom as boom:
            log.append(("raised", boom.args[0], sim.now))
        else:
            break
    log.append(("end", sim.now, sim.pending))
    return log


@settings(max_examples=400, deadline=None)
@given(scenario=scenarios())
def test_series_fires_like_a_loop_of_schedule_at(scenario):
    assert execute(scenario, Simulator.schedule_series) == execute(
        scenario, reference_series
    )


@pytest.mark.parametrize("count", [0, 1])
def test_empty_and_single_item_series(count):
    scenario = Scenario(
        start=1.0,
        before=[(0.5, ("none",))],
        series=[(0.5, ("none",))] * count,
        after=[(0.5, ("none",))],
        cancelled=[],
        drive=[("step",), ("until", 0.5), ("run",)],
    )
    expected = execute(scenario, reference_series)
    assert execute(scenario, Simulator.schedule_series) == expected
    assert ("pending", 1 + count) in expected


def test_pending_counts_unfired_items():
    sim = Simulator()
    fired = []
    sim.schedule_series([1.0, 2.0, 3.0], fired.append, ["a", "b", "c"])
    assert sim.pending == 3
    sim.run_until(2.0)
    assert fired == ["a", "b"]
    assert sim.pending == 1
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.pending == 0


def test_later_events_keep_their_sequence_numbers():
    # The series reserves one number per item, so the first event after
    # it is numbered as after a loop of schedule_at.
    sim, ref = Simulator(), Simulator()
    sim.schedule_series([1.0, 1.0], print, [0, 1])
    reference_series(ref, [1.0, 1.0], print, [0, 1])
    assert sim.schedule_at(2.0, print) == ref.schedule_at(2.0, print)


def test_decreasing_times_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="decrease at item 2"):
        sim.schedule_series([1.0, 2.0, 1.5], print, [0, 1, 2])
    assert sim.pending == 0


def test_past_times_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError, match="cannot schedule"):
        sim.schedule_series([4.9, 6.0], print, [0, 1])
    assert sim.pending == 0


def test_items_must_match_times():
    with pytest.raises(SimulationError, match="2 items"):
        Simulator().schedule_series([1.0], print, [0, 1])
