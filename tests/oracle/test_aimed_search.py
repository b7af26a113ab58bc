"""The aimed search against the cold bisection it replaced.

A fake SUT sustains a rate iff it is at most ``capacity`` and, when it
fails, reports an ingest rate of the test's choosing: ``capacity * (1 +
err)`` on every failing probe (wrong by a known amount, mostly within
30 %, sometimes wildly), a different wrong number on each, or just under
whatever the probe was offered -- a SUT that fails on something other
than throughput.  The verdicts are monotone, and both searches run the
same probe body (``_run_probe`` -> ``assess``) over it.  What must hold
whatever the hints:

* at most ``max_trials`` probes run, the reported trials are exactly the
  probes that ran, in order, and the reported rate is one of them,
  judged sustained -- or NaN;
* never more than ``AIM_SLACK`` probes beyond what the cold search ran;
* where the cold search finished ``AIM_SLACK`` short of ``max_trials``,
  and wherever this one finished with a probe to spare, the cold
  search's rate bit for bit.  Nearer the budget, missed aims can use it
  up; the search then reports the best rate it saw, as the cold search
  does when *it* runs out (pinned by name below);
* a hint that cannot be used -- NaN, at or outside the bracket, what the
  probe was offered, a failed SUT -- gives the cold search's ladder,
  probe for probe;
* a hint within one terminal cell of the truth costs at most four probes.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import sustainable
from repro.core.experiment import ExperimentSpec
from repro.core.sustainable import (
    AIM_SLACK,
    aimed_cell,
    find_sustainable_throughput,
)
from repro.workloads.queries import WindowedAggregationQuery, WindowSpec

from tests.core.test_sustainable import synthetic_result
from tests.oracle.search import cold_search

HIGH = 1.6e6
SPEC = ExperimentSpec(
    engine="flink",
    query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
    duration_s=20.0,
)
SUSTAINED = synthetic_result()
OVERLOADED = synthetic_result(backlog_growth=100.0)


class FakeSut:
    """Sustains ``rate <= capacity``; a failing probe reports ``hint``,
    or ``hint(rate, nth failing probe)`` where that is a function."""

    def __init__(self, capacity, hint, failure=None):
        self.capacity, self.hint, self.failure = capacity, hint, failure
        self.ran = []
        self.failed = 0

    def __call__(self, spec):
        rate = spec.rate_profile().rate_at(0.0)
        self.ran.append(rate)
        if rate <= self.capacity:
            return replace(SUSTAINED, mean_ingest_rate=rate)
        hint = self.hint
        if callable(hint):
            hint = hint(rate, self.failed)
        self.failed += 1
        return replace(
            OVERLOADED, mean_ingest_rate=hint, failure=self.failure
        )


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def both(capacity, hint, failure=None, **search):
    aimed_sut = FakeSut(capacity, hint, failure)
    cold_sut = FakeSut(capacity, hint, failure)
    aimed = find_sustainable_throughput(
        SPEC, high_rate=HIGH, run=aimed_sut, **search
    )
    cold = cold_search(SPEC, high_rate=HIGH, run=cold_sut, **search)
    # Whatever else holds, the report is honest about what ran ...
    assert [trial.rate for trial in aimed.trials] == aimed_sut.ran
    assert len(aimed_sut.ran) == len(set(aimed_sut.ran))
    assert all(trial.result is not None for trial in aimed.trials)
    rate = aimed.sustainable_rate
    if aimed.found:
        best = aimed.best_trial()
        assert best.rate == rate and best.verdict.sustainable
        assert rate <= capacity
    else:
        assert aimed.best_trial() is None
    # ... and aiming is on bounded credit.
    max_trials = search.get("max_trials", 12)
    ladders = [t.rate for t in aimed.trials], [t.rate for t in cold.trials]
    assert aimed.trial_count <= max_trials
    assert aimed.trial_count <= cold.trial_count + AIM_SLACK, ladders
    if (
        cold.trial_count <= max_trials - AIM_SLACK
        or aimed.trial_count < max_trials
    ):
        assert same_float(rate, cold.sustainable_rate), ladders
    return aimed, cold


@st.composite
def capacities(draw):
    """On, just above and just below the grid bisection walks, and off it."""
    depth = draw(st.integers(1, 12))
    point = HIGH * draw(st.integers(1, 2**depth)) / 2**depth
    nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-3, -1e-3]))
    return draw(st.sampled_from([point * (1.0 + nudge), point * 0.77]))


searches = dict(
    capacity=capacities(),
    rel_tol=st.floats(0.01, 0.2),
    max_trials=st.integers(1, 12),
    low_rate=st.sampled_from([0.0, 0.0, 1e5]),
)


@settings(max_examples=600, deadline=None)
@given(
    err=st.one_of(st.floats(-0.3, 0.3), st.floats(-0.95, 4.0)), **searches
)
@example(capacity=390_000.0, err=0.05, rel_tol=0.05, max_trials=12, low_rate=0.0)
@example(capacity=HIGH / 4, err=0.0, rel_tol=0.05, max_trials=12, low_rate=0.0)
@example(capacity=487_500.0, err=-0.04, rel_tol=0.05, max_trials=12, low_rate=0.0)
def test_an_aimed_search_returns_what_cold_bisection_returns(
    capacity, err, rel_tol, max_trials, low_rate
):
    hint = capacity * (1.0 + err)
    aimed, cold = both(
        capacity, hint, rel_tol=rel_tol, max_trials=max_trials,
        low_rate=low_rate,
    )
    # One terminal cell of the cold search: the bracket it ended in.
    sustained = [t.rate for t in cold.trials if t.verdict.sustainable]
    failing = [t.rate for t in cold.trials if not t.verdict.sustainable]
    cell = min(failing, default=HIGH) - max(sustained, default=low_rate)
    usable = low_rate < hint < HIGH * (1.0 - rel_tol)
    if usable and abs(hint - capacity) <= cell:
        assert aimed.trial_count <= 4, [t.rate for t in aimed.trials]


@settings(max_examples=300, deadline=None)
@given(
    errs=st.lists(st.floats(-0.95, 4.0), min_size=12, max_size=12), **searches
)
def test_every_failing_probe_may_hint_at_something_else(
    capacity, errs, rel_tol, max_trials, low_rate
):
    both(
        capacity, lambda rate, nth: capacity * (1.0 + errs[nth]),
        rel_tol=rel_tol, max_trials=max_trials, low_rate=low_rate,
    )


@settings(max_examples=300, deadline=None)
@given(excess=st.floats(0.0, 4.0), shy=st.floats(0.0, 0.04), **searches)
@example(
    capacity=250_000.0, excess=0.6, shy=0.01, rel_tol=0.05, max_trials=12,
    low_rate=0.0,
)
def test_a_sut_that_fails_on_something_other_than_throughput(
    capacity, excess, shy, rel_tol, max_trials, low_rate
):
    # A recovery bound, lost events, a latency trend: above ``capacity``
    # the SUT fails while ingesting nearly all it is offered, up to a
    # throughput limit that says nothing about where it starts failing.
    limit = capacity * (1.0 + excess)
    both(
        capacity, lambda rate, nth: min(rate * (1.0 - shy), limit),
        rel_tol=rel_tol, max_trials=max_trials, low_rate=low_rate,
    )


@settings(max_examples=200, deadline=None)
@given(
    hint=st.sampled_from(
        [float("nan"), 0.0, -1.0, 1e5, "offered", HIGH, 2 * HIGH, float("inf")]
    ),
    **searches,
)
def test_an_unusable_hint_gives_the_cold_ladder(
    capacity, hint, rel_tol, max_trials, low_rate
):
    if hint == "offered":
        hint = lambda rate, nth: rate * (1.0 - 0.9 * rel_tol)  # noqa: E731
    elif low_rate < hint < HIGH:
        hint = low_rate
    aimed, cold = both(
        capacity, hint, rel_tol=rel_tol, max_trials=max_trials,
        low_rate=low_rate,
    )
    assert [t.rate for t in aimed.trials] == [t.rate for t in cold.trials]
    assert same_float(aimed.sustainable_rate, cold.sustainable_rate)


@settings(max_examples=100, deadline=None)
@given(err=st.floats(-0.3, 0.3), **searches)
def test_a_failed_sut_is_no_hint(capacity, err, rel_tol, max_trials, low_rate):
    aimed, cold = both(
        capacity, capacity * (1.0 + err), failure="queue connection dropped",
        rel_tol=rel_tol, max_trials=max_trials, low_rate=low_rate,
    )
    assert [t.rate for t in aimed.trials] == [t.rate for t in cold.trials]


class TestLadders:
    """The shapes the property speaks of, once each by name."""

    def ladder(self, capacity, hint):
        aimed, cold = both(capacity, hint)
        assert aimed.trial_count <= cold.trial_count
        assert same_float(aimed.sustainable_rate, cold.sustainable_rate)
        return [trial.rate for trial in aimed.trials]

    def test_a_hit_costs_three_probes(self):
        # 0.39 M sustained, the ceiling ingested 0.395 M: the cold walk
        # towards 0.395 M ends in (0.3875, 0.4000].
        assert self.ladder(390_000.0, 395_000.0) == [
            1.6e6, 400_000.0, 387_500.0,
        ]

    def test_a_hint_on_a_grid_point_is_sustained_there(self):
        # "Sustains exactly the hint": the threshold cell starts at it.
        assert self.ladder(400_000.0, 400_000.0) == [
            1.6e6, 412_500.0, 400_000.0,
        ]

    def test_a_miss_by_one_cell_costs_four(self):
        # Storm's shape: the ceiling ingested 0.409 M, both edges of
        # (0.4000, 0.4125] fail, the hint is refuted and reflected about
        # the 0.4 M probe that refuted it.
        assert self.ladder(390_000.0, 409_000.0) == [
            1.6e6, 412_500.0, 400_000.0, 387_500.0,
        ]

    def test_a_hint_that_is_too_low_is_doubled_away_from(self):
        # Spark's shape: the overloaded ceiling ingests a tenth less
        # than the SUT sustains.  One cell up, another, two more; that
        # is three probes the walk from the top knows nothing of, so
        # the walk goes on -- and the sustained probes answer all of it
        # below 0.4 M.
        assert self.ladder(390_000.0, 349_000.0) == [
            1.6e6, 350_000.0, 362_500.0, 387_500.0, 800_000.0, 400_000.0,
        ]

    def test_probes_stay_on_the_bisection_tree(self):
        # Cells are 12.5 k wide under 0.5 M and 25 k wide above it.  A
        # search aimed from below the seam never probes 487.5 k, which
        # the cold walk has no bracket edge at: what it reports was
        # probed, not inferred from a finer grid.
        assert self.ladder(510_000.0, 470_000.0) == [
            1.6e6, 475_000.0, 500_000.0, 550_000.0, 525_000.0,
        ]

    def test_missed_aims_are_on_limited_credit(self):
        # Sustains 0.25 M and fails above it on a recovery bound, say,
        # ingesting 99 % of whatever it is offered up to 0.4 M.  The
        # ceiling's 0.4 M is the only hint there is.  Both edges of its
        # cell fail, it is reflected down, and after AIM_SLACK probes
        # below 0.4 M, which the walk from the top learns nothing from,
        # the walk takes over and finds what the cold search finds.
        # (With every failing probe's own ingest rate a hint and no
        # limit, the aim followed the probes down a cell at a time:
        # twelve failing probes, NaN.)
        def ingested(rate, nth):
            return min(0.99 * rate, 400_000.0)

        aimed, cold = both(250_000.0, ingested)
        assert [trial.rate for trial in aimed.trials] == [
            1.6e6, 412_500.0, 400_000.0, 387_500.0, 375_000.0, 362_500.0,
            200_000.0, 300_000.0, 250_000.0, 275_000.0, 262_500.0,
        ]
        assert aimed.sustainable_rate == cold.sustainable_rate == 250_000.0
        assert aimed.trial_count == cold.trial_count + AIM_SLACK

    def test_a_probe_that_ingested_what_it_was_offered_is_no_hint(self):
        # The same kind of SUT, sustaining 0.3 M under a 0.36 M limit.
        # Each miss doubles the distance from the refuted 0.36 M, and
        # the threshold is bracketed a probe sooner than the cold search
        # gets there; following each failing probe's own 99 % down a
        # cell at a time takes a probe more than that.
        def ingested(rate, nth):
            return min(0.99 * rate, 360_000.0)

        assert self.ladder(300_000.0, ingested) == [
            1.6e6, 362_500.0, 350_000.0, 337_500.0, 325_000.0, 300_000.0,
            312_500.0,
        ]

    def test_running_out_reports_the_best_rate_seen(self):
        # Five steps reach 0.1 M-wide cells; a hint 2.6 times too high
        # spends every probe above the truth.
        aimed, cold = both(250_000.0, 650_000.0, max_trials=5)
        assert [trial.rate for trial in aimed.trials] == [
            1.6e6, 700_000.0, 600_000.0, 500_000.0, 400_000.0,
        ]
        assert not aimed.found and aimed.best_trial() is None
        assert cold.sustainable_rate == 200_000.0


class TestAimedCell:
    """What a report says about where the ladder comes from."""

    def test_names_the_ingest_rate_and_the_cell_of_the_second_probe(self):
        aimed, _ = both(390_000.0, 395_000.0)
        assert aimed_cell(aimed, HIGH) == (395_000.0, 387_500.0, 400_000.0)
        assert [t.rate for t in aimed.trials[1:]] == [400_000.0, 387_500.0]

    def test_takes_the_arguments_of_the_search(self):
        search = dict(low_rate=1e5, rel_tol=0.1, max_trials=6)
        aimed, _ = both(390_000.0, 395_000.0, **search)
        ingested, lo, hi = aimed_cell(aimed, HIGH, **search)
        assert (ingested, aimed.trials[1].rate) == (395_000.0, hi)
        assert lo < 395_000.0 <= hi
        assert (lo, hi) != aimed_cell(aimed, HIGH)[1:]

    def test_says_nothing_of_a_search_that_did_not_aim(self):
        sustained, _ = both(2 * HIGH, 0.0)
        assert sustained.trial_count == 1
        assert aimed_cell(sustained, HIGH) is None
        for no_hint in (float("nan"), 0.0, 0.99 * HIGH):
            cold, _ = both(390_000.0, no_hint)
            assert aimed_cell(cold, HIGH) is None
        crashed, _ = both(390_000.0, 395_000.0, failure="stalled")
        assert aimed_cell(crashed, HIGH) is None


class TestMutants:
    """Five ways to get the aim subtly wrong, each caught by name."""

    def killed(self) -> bool:
        ladders = TestLadders()
        try:
            ladders.test_a_hit_costs_three_probes()
            ladders.test_a_hint_on_a_grid_point_is_sustained_there()
            ladders.test_a_miss_by_one_cell_costs_four()
            ladders.test_a_hint_that_is_too_low_is_doubled_away_from()
            ladders.test_missed_aims_are_on_limited_credit()
            ladders.test_a_probe_that_ingested_what_it_was_offered_is_no_hint()
        except AssertionError:
            return True
        return False

    def test_the_search_itself_is_not_killed(self):
        assert not self.killed()

    def test_strict_comparison_against_the_guess(self, monkeypatch):
        bisect = sustainable._bisect

        def strict(known, *bracket, guess=None):
            # ``mid <= guess`` -> ``mid < guess``, exactly.
            if guess is not None:
                guess = math.nextafter(guess, -math.inf)
            return bisect(known, *bracket, guess=guess)

        monkeypatch.setattr(sustainable, "_bisect", strict)
        assert self.killed()

    def test_inference_directions_swapped(self, monkeypatch):
        def swapped(known, rate):
            verdict = known.get(rate)
            if verdict is not None:
                return verdict
            if any(not ok and probed >= rate for probed, ok in known.items()):
                return False
            if any(ok and probed <= rate for probed, ok in known.items()):
                return True
            return None

        monkeypatch.setattr(sustainable, "_judged", swapped)
        assert self.killed()

    def test_whatever_a_failing_probe_ingested_is_a_hint(self, monkeypatch):
        aim = sustainable._aim

        def credulous(ladder, high_rate, low_rate, rel_tol):
            return aim(ladder, high_rate, low_rate, 0.0)

        monkeypatch.setattr(sustainable, "_aim", credulous)
        assert self.killed()

    def test_unlimited_credit(self, monkeypatch):
        monkeypatch.setattr(sustainable, "AIM_SLACK", 12)
        assert self.killed()

    def test_a_re_aim_that_does_not_move(self, monkeypatch):
        def stuck(ladder, high_rate, low_rate, rel_tol):
            return ladder[0][1]["mean_ingest_rate"]

        monkeypatch.setattr(sustainable, "_aim", stuck)
        assert self.killed()
