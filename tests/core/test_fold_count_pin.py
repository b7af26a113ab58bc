"""The number of strict folds four trials run, pinned exactly.

A strict left fold over 4 096 weights costs about 20 us and cannot be
made faster, only rarer (DESIGN.md section 14, "the fold budget"), so
how many of them a trial runs is a figure of the program, like a
golden.  Counted where ``repro.core.batch._fold`` -- the chain fold
every strict fold and every owed ledger's settle goes through -- reaches
``accumulate``: what the fold memo, the window fold cache and the run
fold table did not answer, from empty tables, on fresh key
distributions.  A change that raises a count must update its pin and
say why.
"""

from __future__ import annotations

import pytest

from repro.core import batch
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.operators import window
from repro.workloads.keys import UniformKeys
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

WINDOW = WindowSpec(8.0, 4.0)

#: trial -> (engine, query factory, offered rate in ev/s, strict folds
#: in a 20 s trial).  Storm at 0.45 M ev/s is overloaded (Storm/2
#: sustains about 0.4 M): its queues run deep, so pulls and drains
#: split blocks every tick -- the split-piece path.
PINS = {
    "storm_agg_4096_keys": (
        "storm",
        lambda: WindowedAggregationQuery(window=WINDOW, keys=UniformKeys(4096)),
        0.3e6,
        1590,
    ),
    "flink_join_4096_keys": (
        "flink",
        lambda: WindowedJoinQuery(window=WINDOW, keys=UniformKeys(4096)),
        0.3e6,
        735,
    ),
    "flink_agg_64_keys": (
        "flink",
        lambda: WindowedAggregationQuery(window=WINDOW),
        0.3e6,
        364,
    ),
    "storm_agg_64_keys_overloaded": (
        "storm",
        lambda: WindowedAggregationQuery(window=WINDOW),
        0.45e6,
        1855,
    ),
}


class Counting:
    """A ufunc whose ``accumulate`` counts its calls."""

    def __init__(self, ufunc, calls):
        self.ufunc = ufunc
        self.calls = calls

    def accumulate(self, *args, **kwargs):
        self.calls.append(None)
        return self.ufunc.accumulate(*args, **kwargs)


@pytest.mark.parametrize("trial", sorted(PINS))
def test_strict_folds_per_trial(trial, monkeypatch):
    engine, query, rate, pinned = PINS[trial]
    calls = []
    fold = batch._fold
    monkeypatch.setattr(batch, "_memo", {})
    monkeypatch.setattr(window, "_run_folds", {})
    monkeypatch.setattr(
        batch,
        "_fold",
        lambda op, ufunc, start, values: fold(
            op, Counting(ufunc, calls), start, values
        ),
    )
    result = run_experiment(
        ExperimentSpec(
            engine=engine,
            query=query(),
            workers=2,
            profile=rate,
            duration_s=20.0,
            seed=17,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
        )
    )
    assert result.failure is None
    assert len(calls) == pinned
