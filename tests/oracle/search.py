"""The cold bisection that left ``src/``.

``find_sustainable_throughput``'s serial search (df0b8bb), verbatim less
its journal, pool and watchdog plumbing: probe ``high_rate``, then
bisect ``[low_rate, high_rate]`` from cold, every midpoint a live probe.
Production aims the same walk with the ceiling probe's ingest rate and
answers what it can by monotone inference; this is what it must still
return (``test_aimed_search.py`` over a fake runner,
``tests/integration/test_anytime_search.py`` over the Table I / III
cells).
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.criteria import SustainabilityCriteria
from repro.core.driver import TrialResult
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.sustainable import (
    SearchTrial,
    SustainabilityVerdict,
    SustainableSearchResult,
    _run_probe,
)


def cold_search(
    spec: ExperimentSpec,
    high_rate: float,
    low_rate: float = 0.0,
    rel_tol: float = 0.05,
    criteria: SustainabilityCriteria = SustainabilityCriteria(),
    max_trials: int = 12,
    run: Callable[[ExperimentSpec], TrialResult] = run_experiment,
) -> SustainableSearchResult:
    if high_rate <= low_rate:
        raise ValueError(
            f"need high_rate > low_rate, got ({low_rate}, {high_rate})"
        )
    trials: List[SearchTrial] = []

    def probe(rate: float) -> SustainabilityVerdict:
        trial = _run_probe(run, spec, rate, criteria)
        trials.append(trial)
        return trial.verdict

    if probe(high_rate).sustainable:
        return SustainableSearchResult(high_rate, spec.duration_s, trials)
    # Bisection: ``lo`` is the highest rate that has actually been probed
    # and sustained (no separate ``best`` bookkeeping -- ``lo`` only ever
    # advances on a sustained probe, so the two were always equal).
    lo, hi = low_rate, high_rate
    floor_sustained = False
    while len(trials) < max_trials and (hi - lo) > rel_tol * hi:
        mid = (lo + hi) / 2.0
        if probe(mid).sustainable:
            lo = mid
            floor_sustained = True
        else:
            hi = mid
    # If every probe failed, no sustainable rate was ever OBSERVED;
    # returning low_rate (a rate that was never run) would fabricate a
    # result.  NaN marks "not found" honestly.
    rate = lo if floor_sustained else float("nan")
    return SustainableSearchResult(rate, spec.duration_s, trials)
