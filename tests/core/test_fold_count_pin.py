"""The number of strict folds three trials run, pinned exactly.

A strict left fold over 4 096 weights costs about 20 us and cannot be
made faster, only rarer (DESIGN.md section 14, "the fold budget"), so
how many of them a trial runs is a figure of the program, like a
golden.  Counted where ``repro.core.batch._fold`` reaches
``accumulate`` -- what the fold memo, the window fold cache and the run
fold table did not answer -- from empty tables, on fresh key
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

#: trial -> (engine, query factory, strict folds in a 20 s trial).
PINS = {
    "storm_agg_4096_keys": (
        "storm",
        lambda: WindowedAggregationQuery(window=WINDOW, keys=UniformKeys(4096)),
        2191,
    ),
    "flink_join_4096_keys": (
        "flink",
        lambda: WindowedJoinQuery(window=WINDOW, keys=UniformKeys(4096)),
        1134,
    ),
    "flink_agg_64_keys": (
        "flink",
        lambda: WindowedAggregationQuery(window=WINDOW),
        1135,
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
    engine, query, pinned = PINS[trial]
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
            profile=0.3e6,
            duration_s=20.0,
            seed=17,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
        )
    )
    assert result.failure is None
    assert len(calls) == pinned
