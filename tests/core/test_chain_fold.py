"""The chain fold and the owed ledger of ``repro.core.batch``.

``chain_add`` / ``chain_sub`` fold a list of arrays in one
``accumulate``, and an :class:`~repro.core.batch.OwedSum` folds what it
owes only when it is read.  Both must return, bit for bit, what one
eager ``fold_add`` / ``fold_sub`` per array would have, whatever the
arrays are (whole and read-only, views, writable, empty), whatever the
start (the two zeros included) and wherever the reads fall.  Only a
chain of whole read-only arrays may key the memo: the same chain from
the same start -- twin queues' push ledgers -- is then answered without
an ``accumulate``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.batch import OwedSum, chain_add, chain_sub

from tests.core.test_fold_count_pin import Counting


def eager(ufunc, start: float, arrays) -> float:
    """One fresh fold per array, in turn, with no memo: the scalar
    loop ``for a in arrays: for v in a: start op= v``."""
    for values in arrays:
        for value in values.tolist():
            start = start + value if ufunc is np.add else start - value
    return start


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(batch, "_memo", memo)
    return memo


@pytest.fixture
def accumulates(monkeypatch):
    """The ``accumulate`` calls every chain fold makes from now on."""
    calls = []
    fold = batch._fold
    monkeypatch.setattr(
        batch,
        "_fold",
        lambda op, ufunc, start, chain: fold(
            op, Counting(ufunc, calls), start, chain
        ),
    )
    return calls


def make(kind: str, values) -> np.ndarray:
    """An array of one of the four kinds the folds are handed."""
    if kind == "empty":
        empty = np.empty(0)
        empty.flags.writeable = False
        return empty
    array = np.array(values, dtype=np.float64)
    if kind == "writable":
        return array
    if kind == "view":
        # A read-only view of a read-only owner: still not admitted.
        owner = np.concatenate(([1.0], array))
        owner.flags.writeable = False
        return owner[1:]
    array.flags.writeable = False
    return array


weights = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0.0)
    | st.sampled_from([0.0, -0.0, 1e-9, 0.1]),
    min_size=1,
    max_size=6,
)
arrays = st.tuples(
    st.sampled_from(["whole", "view", "writable", "empty"]), weights
).map(lambda drawn: make(*drawn))
starts = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(arrays, max_size=6), starts)
def test_chain_folds_equal_the_eager_folds(chain, start):
    for _ in range(2):  # the second time may be a memo hit
        assert chain_add(start, chain).hex() == eager(np.add, start, chain).hex()
        assert (
            chain_sub(start, chain).hex()
            == eager(np.subtract, start, chain).hex()
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(arrays, max_size=12), starts, st.data())
def test_owed_ledgers_settle_to_the_eager_folds(owed, start, data):
    ledger = OwedSum(start)
    expected = start
    for values in owed:
        ledger.owe(values)
        expected = eager(np.add, expected, [values])
        if data.draw(st.booleans()):  # a read: a settle point
            assert ledger.settle().hex() == expected.hex()
    assert ledger.settle().hex() == expected.hex()
    assert ledger.settle().hex() == expected.hex()


def test_a_ledger_settles_by_itself_once_it_owes_the_limit(monkeypatch):
    monkeypatch.setattr(batch, "OWED_LIMIT", 4)
    ledger = OwedSum()
    ledger.owe(make("whole", [1.0, 2.0, 3.0]))
    assert ledger._owed
    ledger.owe(make("whole", [0.5]))
    assert not ledger._owed and ledger._value == 6.5
    ledger.owe(make("empty", []))
    assert not ledger._owed


def test_twin_ledgers_are_answered_without_an_accumulate(
    fresh_memo, accumulates
):
    column = make("whole", [0.25, 0.5, 1.5])
    other = make("whole", [2.0, 4.0])
    twins = OwedSum(10.0), OwedSum(10.0)
    for ledger in twins:
        for values in (column, other, column, column):
            ledger.owe(values)
    first = twins[0].settle()
    assert len(accumulates) == 1
    assert twins[1].settle().hex() == first.hex()
    assert len(accumulates) == 1
    assert first == eager(np.add, 10.0, [column, other, column, column])


@pytest.mark.parametrize("kind", ["writable", "view"])
def test_a_chain_with_a_writable_array_or_a_view_never_keys_the_memo(
    fresh_memo, kind
):
    whole = make("whole", [1.0, 2.0])
    odd = make(kind, [3.0, 4.0])
    for chain in ([odd], [whole, odd], [odd, whole], [whole, odd, whole]):
        chain_add(0.5, chain)
        chain_sub(0.5, chain)
        ledger = OwedSum(0.5)
        for values in chain:
            ledger.owe(values)
        ledger.settle()
    assert fresh_memo == {}
    if kind == "writable":
        before = chain_add(0.5, [whole, odd])
        odd[0] += 1.0
        assert chain_add(0.5, [whole, odd]) == before + 1.0


def test_the_two_zeros_key_apart(fresh_memo):
    chain = [make("whole", [-0.0]), make("whole", [-0.0])]
    for _ in range(2):
        assert chain_add(0.0, chain).hex() == "0x0.0p+0"
        assert chain_add(-0.0, chain).hex() == "-0x0.0p+0"
    assert len(fresh_memo) == 2
