"""The close path, columns against dicts: bit for bit, slot for slot.

Production keeps a window as columns from ``add_block`` to the sink;
the code it replaced -- one ``WindowAccumulator`` per key, walked key by
key at close -- lives in :mod:`tests.oracle.stores` /
:mod:`tests.oracle.kernels`.  Hypothesis drives both with the same
blocks and compares everything a close produces: the closed window
(keys in first-touch order, every float by ``float.hex``, the int ``0``
of an empty fold), the aggregation and join outputs (order, weights,
anchors, ``traces`` lists), the merger's absorb / pop_ready /
stored_weight, every ledger and every trace's marks.

Shapes covered: partial purchase/ads key overlap in different orders,
keys repeated across blocks, accumulators emptied by a state loss
(matched keys of zero weight), selectivity 0 / denormal / 1, traces on
matched and unmatched keys, never-opened windows, blocks and whole
partials arriving for windows that already closed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import RecordBlock
from repro.core.records import ADS, PURCHASES
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
    aggregation_outputs,
)
from repro.engines.operators.join import JoinWindowStore, join_window_outputs
from repro.obs.trace import EventTrace
from repro.workloads.queries import WindowSpec

from tests.oracle.kernels import (
    aggregation_outputs_by_key,
    join_window_outputs_by_key,
)
from tests.oracle.stores import (
    OracleBatchPartials,
    OracleJoinStore,
    OraclePartialMerger,
    materialize,
)

WINDOW = WindowSpec(8.0, 4.0)
KEYS = 16
EMIT_TIME = 99.5

weights = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(1e-320, 1e-300),  # shares that underflow a tiny output weight
)


@st.composite
def block_specs(draw, streams=(PURCHASES, ADS)):
    keys = draw(
        st.lists(st.integers(0, KEYS - 1), unique=True, min_size=1,
                 max_size=KEYS)
    )
    # Times below zero tell a max that started at 0 from one that
    # started at -inf; a zero's sign is not part of the contract.
    event_time = draw(st.floats(-6.0, 30.0).filter(bool))
    return dict(
        stream=draw(st.sampled_from(streams)),
        keys=keys,
        weights=draw(
            st.lists(weights, min_size=len(keys), max_size=len(keys))
        ),
        value=draw(st.floats(0.0, 100.0)),
        event_time=event_time,
        ingest_time=draw(
            st.one_of(st.none(), st.floats(0.0, 2.0).map(event_time.__add__))
        ),
        traced=sorted(draw(st.sets(st.integers(0, len(keys) - 1), max_size=3))),
    )


def twin_blocks(spec, all_traces):
    """The same block twice, each with its own copy of the traces."""
    pair = []
    for side in (0, 1):
        traces = []
        for at in spec["traced"]:
            trace = EventTrace(
                len(all_traces[side]), spec["keys"][at], spec["stream"],
                spec["weights"][at],
            )
            trace.mark("created", spec["event_time"])
            all_traces[side].append(trace)
            traces.append((at, trace))
        pair.append(
            RecordBlock(
                spec["keys"], spec["weights"], spec["value"],
                spec["event_time"], spec["stream"], spec["ingest_time"],
                traces=traces,
            )
        )
    return pair


def bits(number):
    """A number as (is it an int, bits): int ``0`` is not ``0.0``."""
    return isinstance(number, int), float(number).hex()


def window_bits(by_key, contents):
    return (
        contents.index,
        bits(contents.start_time),
        bits(contents.end_time),
        [
            (key, bits(acc.value), bits(acc.weight), bits(acc.max_event_time),
             bits(acc.max_processing_time))
            for key, acc in by_key.items()
        ],
        bits(contents.total_weight),
        bits(contents.max_event_time),
        bits(contents.max_processing_time),
        [trace.trace_id for trace in contents.traces],
    )


def assert_same_window(contents, reference):
    """``contents``: production's columns.  ``reference``: the oracle's
    dict, and -- what the oracle engines hand production's output
    builders -- that dict copied into columns."""
    expected = window_bits(reference.by_key, reference)
    assert window_bits(materialize(contents), contents) == expected
    copied = reference.columnar()
    assert window_bits(materialize(copied), copied) == expected


def output_bits(outputs):
    return [
        (
            out.key, bits(out.value), bits(out.event_time),
            bits(out.processing_time), bits(out.emit_time), bits(out.weight),
            bits(out.window_end),
            None if out.traces is None else [t.trace_id for t in out.traces],
        )
        for out in outputs
    ]


def trace_bits(traces):
    return [(t.trace_id, t.key, t.marks, t.dropped) for t in traces]


def assert_same_ledgers(production, reference, names):
    for name in names:
        assert bits(getattr(production, name)) == bits(
            getattr(reference, name)
        ), name
    # An empty store folds to int 0 in the dict walk, 0.0 in the chained
    # column fold: the same number, compared as one.
    assert (
        float(production.stored_weight()).hex()
        == float(reference.stored_weight()).hex()
    )


STORE_LEDGERS = (
    "admitted_weight", "dropped_weight", "closed_weight", "lost_weight",
    "updates",
)


@settings(max_examples=400, deadline=None)
@given(
    early=st.lists(block_specs(), min_size=1, max_size=8),
    late=st.lists(block_specs(), max_size=6),
    lose=st.sampled_from([None, None, 0.375, 1.0]),
    selectivity=st.sampled_from([0.0, 5e-324, 1e-300, 0.016, 1.0]),
)
def test_store_close_and_output_builders(early, late, lose, selectivity):
    production, reference = JoinWindowStore(WINDOW, KEYS), OracleJoinStore(WINDOW)
    traces = ([], [])

    def feed(specs):
        for spec in specs:
            block, twin = twin_blocks(spec, traces)
            records = twin.materialize()
            assert production.add_block(block) == sum(
                reference.add(record) for record in records
            )

    def close(index):
        closed = production.close(index, at_time=40.0)
        expected = reference.close_by_key(index, at_time=40.0)
        for side in ("purchases", "ads"):
            contents, ref_contents = getattr(closed, side), getattr(expected, side)
            assert_same_window(contents, ref_contents)
            assert output_bits(
                aggregation_outputs(contents, EMIT_TIME)
            ) == output_bits(aggregation_outputs_by_key(ref_contents, EMIT_TIME))
        assert output_bits(
            join_window_outputs(closed, selectivity, EMIT_TIME)
        ) == output_bits(
            join_window_outputs_by_key(expected, selectivity, EMIT_TIME)
        )

    def assert_same_state():
        for side in ("purchases", "ads"):
            assert_same_ledgers(
                getattr(production, side), getattr(reference, side),
                STORE_LEDGERS,
            )

    feed(early)
    if lose is not None:
        assert bits(production.lose_fraction(lose)) == bits(
            reference.lose_fraction(lose)
        )
    # Close the oldest window, then let blocks arrive that may be late
    # for it; the last index closed was never opened on either side.
    ready = reference.ready_indices(1e9)
    assert production.ready_indices(1e9) == ready
    close(ready[0])
    assert_same_state()
    feed(late)
    assert_same_state()
    ready = reference.ready_indices(1e9)
    assert production.ready_indices(1e9) == ready
    for index in ready + [ready[-1] + 3 if ready else 50]:
        close(index)
    assert_same_state()
    assert trace_bits(traces[0]) == trace_bits(traces[1])


MERGER_LEDGERS = (
    "dropped_weight", "absorbed_weight", "closed_weight", "open_window_count",
)


@settings(max_examples=400, deadline=None)
@given(
    batches=st.lists(
        st.tuples(
            st.lists(block_specs(streams=(PURCHASES,)), max_size=5),
            st.floats(0.0, 40.0),  # pop windows ending through here
        ),
        min_size=1,
        max_size=4,
    )
)
def test_merger_absorb_pop_ready_and_stored_weight(batches):
    partials, merger = (
        BatchPartialAggregator(WINDOW, KEYS), WindowedPartialMerger(WINDOW),
    )
    ref_partials, ref_merger = (
        OracleBatchPartials(WINDOW), OraclePartialMerger(WINDOW),
    )
    traces = ([], [])
    for specs, through in batches:
        for spec in specs:
            block, twin = twin_blocks(spec, traces)
            records = twin.materialize()
            assert partials.add_block(block) == sum(
                ref_partials.add(record) for record in records
            )
        assert bits(partials.batch_weight) == bits(ref_partials.batch_weight)
        merger.absorb(partials.drain(), traces=partials.drain_traces())
        ref_merger.absorb(
            ref_partials.drain(), traces=ref_partials.drain_traces()
        )
        assert_same_ledgers(merger, ref_merger, MERGER_LEDGERS)
        closed = merger.pop_ready(through, at_time=through)
        expected = ref_merger.pop_ready_by_key(through, at_time=through)
        assert len(closed) == len(expected)
        for contents, ref_contents in zip(closed, expected):
            assert_same_window(contents, ref_contents)
            assert output_bits(
                aggregation_outputs(contents, EMIT_TIME)
            ) == output_bits(aggregation_outputs_by_key(ref_contents, EMIT_TIME))
        assert_same_ledgers(merger, ref_merger, MERGER_LEDGERS)
    assert trace_bits(traces[0]) == trace_bits(traces[1])
