"""Anytime Definition 5, checked from outside: an early stop never
changes what a search finds, and is never installed where it could.

Nothing here reads how the rule works.  The full-length side of every
comparison is the same code with ``ExperimentSpec.judged_by`` cleared
*by the test* -- there is no switch in ``src/`` to turn the rule off.
"""

import json
from dataclasses import replace

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.analysis import paper
from repro.autoscale.policy import AutoscaleSpec
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    AIM_SLACK,
    SearchTrial,
    SustainabilityCriteria,
    anytime_spec,
    assess,
    find_sustainable_throughput,
)
from repro.faults import FaultSchedule, NodeCrash
from repro.workloads.profiles import StepRate
from repro.workloads.queries import (
    PAPER_DEFAULT_WINDOW,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

from tests.oracle.search import cold_search

CRITERIA = SustainabilityCriteria()
QUERIES = {
    "aggregation": WindowedAggregationQuery(window=PAPER_DEFAULT_WINDOW),
    "join": WindowedJoinQuery(window=PAPER_DEFAULT_WINDOW),
}


def cell(engine, kind, workers=2, **overrides) -> ExperimentSpec:
    fields = dict(
        engine=engine,
        query=QUERIES[kind],
        workers=workers,
        duration_s=120.0,
        seed=17,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def run_full_length(spec: ExperimentSpec):
    """``run_experiment`` with the anytime rule taken off the spec."""
    return run_experiment(replace(spec, judged_by=None))


def entry_of(result, rate) -> dict:
    """The export entry a search would write for this trial."""
    verdict = assess(result, CRITERIA)
    return SearchTrial(rate, result, verdict).export_entry()


# -- (ii) one full and one stopping trial around every cell's boundary ------

#: Found by ``find_sustainable_throughput(high_rate=1.6e6, max_trials=9)``
#: on 60-simulated-second probes at seed 5.
FOUND_RATE = {
    ("storm", "aggregation"): 375_000.0,
    ("storm", "join"): 131_250.0,
    ("spark", "aggregation"): 325_000.0,
    ("spark", "join"): 262_500.0,
    ("flink", "aggregation"): 1_200_000.0,
    ("flink", "join"): 825_000.0,
    ("samza", "aggregation"): 725_000.0,
    ("samza", "join"): 550_000.0,
    ("heron", "aggregation"): 600_000.0,
    ("heron", "join"): 212_500.0,
}
FACTORS = (0.9, 1.0, 1.1, 1.5, 4.0)


@pytest.mark.parametrize("engine,kind", sorted(FOUND_RATE))
def test_a_stop_never_contradicts_the_full_length_verdict(engine, kind):
    base = cell(engine, kind, duration_s=60.0, seed=5)
    stopped = []
    for factor in FACTORS:
        spec = base.with_rate(FOUND_RATE[engine, kind] * factor)
        full = run_experiment(spec)
        anytime = run_experiment(anytime_spec(spec, CRITERIA))
        assert full.stopped_at_s is None
        if assess(full, CRITERIA).sustainable:
            assert anytime.stopped_at_s is None, (factor, anytime.stopped_at_s)
        if anytime.stopped_at_s is None:
            # Not stopped: the very same trial, to the last bit.
            assert entry_of(anytime, factor) == entry_of(full, factor)
        else:
            stopped.append(factor)
            assert anytime.stopped_at_s < anytime.duration_s
            assert anytime.failure is None
            assert anytime.diagnostics["driver.stopped_at_s"] == (
                anytime.stopped_at_s
            )
            verdict = assess(anytime, CRITERIA)
            assert not verdict.sustainable
            assert any("backlog grows" in r for r in verdict.reasons), factor
    # The comparison is vacuous unless the rule fires somewhere: four
    # times the sustainable rate is settled on every cell.
    assert 4.0 in stopped, stopped


# -- the places it must stay off --------------------------------------------

#: Export entries of the three trials below, generated at the parent
#: commit (1700b09, before the rule existed): the must-stay-off trials
#: are byte-identical to a build that could not stop anything.
PARENT_ENTRIES = {
    "crash": {
        "rate": 300_000.0,
        "sustainable": True,
        "reasons": [],
        "mean_ingest_rate": 299668.5082873897,
        "event_latency": {
            "count": 2880, "weight": 2880.0,
            "mean": 5.040027690592823, "min": 0.19398079969994342,
            "max": 27.185241003719725, "p90": 19.67524182895211,
            "p95": 22.465053898411696, "p99": 26.59232306459171,
            "std": 7.534775924300535,
        },
    },
    "burst": {
        "rate": None,
        "sustainable": True,
        "reasons": [],
        "mean_ingest_rate": 877142.8571432104,
        "event_latency": {
            "count": 1408, "weight": 1408.0,
            "mean": 5.106226828857266, "min": 0.06737844510362834,
            "max": 16.89641525956622, "p90": 14.550650537300449,
            "p95": 16.043779040396622, "p99": 16.89641525956622,
            "std": 5.8844413824142245,
        },
    },
    "autoscale": {
        "rate": 500_000.0,
        "sustainable": True,
        "reasons": [],
        "mean_ingest_rate": 535250.0000003492,
        "event_latency": {
            "count": 3100, "weight": 3100.0,
            "mean": 5.64308800585199, "min": 0.25030704695538475,
            "max": 22.025794945303296, "p90": 14.569615414038097,
            "p95": 17.412460710999866, "p99": 20.986425518671474,
            "std": 5.926277057463128,
        },
    },
}


def as_bytes(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True)


class TestStaysOff:
    """Trials that recover look like overload while they do.  Each case
    first shows the counter-example -- with the criteria forced onto the
    spec the driver stops the trial and flips a sustainable verdict --
    then that the search's helper withholds them."""

    def forced_verdict(self, spec, criteria=CRITERIA):
        forced = run_experiment(replace(spec, judged_by=criteria))
        return forced.stopped_at_s, assess(forced, criteria).sustainable

    def test_fault_recovery_is_never_cut(self):
        # Storm, 4 workers + 1 standby, a node crash at 80 s: backlog
        # and queue age both rise through the recovery pause.
        spec = cell(
            "storm", "aggregation", workers=4, standby=1, duration_s=240.0,
            faults=FaultSchedule([NodeCrash(at_s=80.0)]),
        )
        criteria = SustainabilityCriteria(max_recovery_time_s=120.0)
        assert self.forced_verdict(spec.with_rate(0.3e6), criteria) == (
            95.0, False,
        )
        search = find_sustainable_throughput(
            spec, high_rate=0.3e6, criteria=criteria
        )
        (trial,) = search.trials
        assert trial.stopped_at_s is None
        assert trial.result.stopped_at_s is None
        assert trial.verdict.sustainable
        assert as_bytes(trial.export_entry()) == as_bytes(
            PARENT_ENTRIES["crash"]
        )
        assert search.simulated_s == search.planned_s == 240.0

    def test_a_burst_profile_is_never_cut(self):
        spec = cell(
            "flink", "aggregation",
            profile=StepRate([(0.0, 0.5e6), (32.0, 2.4e6), (50.0, 0.5e6)]),
        )
        assert self.forced_verdict(spec) == (52.0, False)
        probe = anytime_spec(spec, CRITERIA)
        assert probe.judged_by is None
        result = run_experiment(probe)
        assert result.stopped_at_s is None
        assert as_bytes(entry_of(result, None)) == as_bytes(
            PARENT_ENTRIES["burst"]
        )

    def test_an_autoscaled_trial_is_never_cut(self):
        # Storm at 0.5 M/s outgrows 2 workers, scales out, catches up.
        spec = cell(
            "storm", "aggregation", duration_s=240.0, profile=0.5e6,
            autoscale=AutoscaleSpec(
                policy="threshold", max_workers=8, cooldown_s=10.0
            ),
        )
        assert self.forced_verdict(spec) == (74.0, False)
        probe = anytime_spec(spec, CRITERIA)
        assert probe.judged_by is None
        result = run_experiment(probe)
        assert result.stopped_at_s is None
        assert as_bytes(entry_of(result, 0.5e6)) == as_bytes(
            PARENT_ENTRIES["autoscale"]
        )

    @pytest.mark.parametrize(
        "field",
        ["detector", "degradation", "checkpoint", "broker", "clock_skew"],
    )
    def test_every_other_backlog_mover_withholds_the_criteria(self, field):
        # Any non-None value: the helper looks at presence only.
        spec = replace(cell("flink", "aggregation"), **{field: object()})
        assert anytime_spec(spec, CRITERIA).judged_by is None

    @pytest.mark.parametrize(
        "bound", [{"max_recovery_time_s": 60.0}, {"max_lost_weight": 0.0}]
    )
    def test_recovery_and_loss_bounds_withhold_the_criteria(self, bound):
        criteria = SustainabilityCriteria(**bound)
        assert anytime_spec(cell("flink", "join"), criteria).judged_by is None

    def test_the_plain_probe_carries_the_criteria_it_is_judged_by(self):
        strict = SustainabilityCriteria(max_queue_delay_s=2.0)
        stale = replace(cell("flink", "join"), judged_by=CRITERIA)
        assert anytime_spec(stale, strict).judged_by is strict


# -- (iii) the Table I / III sweep, full-length vs anytime ------------------

#: Every Table I / III cell ``repro paper`` sweeps, as it declares them.
TABLE_CELLS = [
    pytest.param(
        search,
        id=f"{search.spec.engine}-{search.spec.query.kind}-"
        f"{search.spec.workers}",
    )
    for artifact in (paper.TABLE1, paper.TABLE3)
    for search in artifact.cells.values()
    if isinstance(search, paper.Search)
    and search.high_rate == paper.TABLE_SEARCH["high_rate"]
]


def verdicts_by_rate(*searches) -> dict:
    """rate -> set of verdicts the given searches reached there."""
    seen = {}
    for search in searches:
        for trial in search.trials:
            seen.setdefault(trial.rate, set()).add(trial.verdict.sustainable)
    return seen


@pytest.mark.slow
@pytest.mark.parametrize("seed", [17, 31])
@pytest.mark.parametrize("search", TABLE_CELLS)
def test_table_cells_find_the_same_rates_with_and_without_stops(search, seed):
    """Every Table I / III cell as ``repro paper`` searches it: the
    anytime search reaches the same found rate as the
    full-length search and the same verdict at every rate both probed,
    and every such probe it did not stop is byte-identical.  The two
    ladders need not be the same rates: a ceiling probe that ran its
    full length measured another ``mean_ingest_rate`` than one that was
    stopped, and may aim the search at the neighbouring cell."""
    spec = search.spec.with_seed(seed)
    settings = paper.TABLE_SEARCH
    anytime = find_sustainable_throughput(spec, **settings)
    full = find_sustainable_throughput(spec, run=run_full_length, **settings)
    assert as_bytes({"r": anytime.sustainable_rate}) == as_bytes(
        {"r": full.sustainable_rate}
    )
    assert all(t.stopped_at_s is None for t in full.trials)
    assert full.simulated_s == full.planned_s
    assert anytime.trials[0].rate == full.trials[0].rate == 1.6e6
    assert all(
        len(verdicts) == 1
        for verdicts in verdicts_by_rate(anytime, full).values()
    )
    slow_by_rate = {trial.rate: trial for trial in full.trials}
    for fast in anytime.trials:
        if fast.stopped_at_s is not None:
            assert not fast.verdict.sustainable
            assert not assess(fast.result, CRITERIA).sustainable
        elif fast.rate in slow_by_rate:
            assert as_bytes(fast.export_entry()) == as_bytes(
                slow_by_rate[fast.rate].export_entry()
            )
    if [t.rate for t in anytime.trials] == [t.rate for t in full.trials]:
        assert anytime.simulated_s <= full.simulated_s


# -- (iv) the same sweep, aimed vs the cold bisection it replaced -----------

@pytest.mark.slow
@pytest.mark.parametrize("seed", [17, 31])
@pytest.mark.parametrize("search", TABLE_CELLS)
def test_table_cells_find_what_cold_bisection_finds(search, seed):
    """A probe's outcome does not depend on the ladder it sits in, so
    wherever both searches probed they agree to the byte; the verdicts
    of both ladders together are monotone in the rate, and the aimed
    search finds the cold bisection's rate."""
    spec = search.spec.with_seed(seed)
    settings = paper.TABLE_SEARCH
    aimed = find_sustainable_throughput(spec, **settings)
    cold = cold_search(spec, **settings)
    cold_by_rate = {trial.rate: trial for trial in cold.trials}
    for trial in aimed.trials:
        if trial.rate in cold_by_rate:
            assert as_bytes(trial.export_entry()) == as_bytes(
                cold_by_rate[trial.rate].export_entry()
            )
    assert aimed.trial_count <= 9
    assert aimed.best_trial().rate == aimed.sustainable_rate
    verdicts = verdicts_by_rate(aimed, cold)
    sustained = [rate for rate, seen in verdicts.items() if True in seen]
    failing = [rate for rate, seen in verdicts.items() if False in seen]
    assert max(sustained) < min(failing)
    assert cold.sustainable_rate == aimed.sustainable_rate


# -- (v) a search whose probes fail on something other than throughput ------

#: Storm, 4 workers + 1 standby, a node crash a third into the trial,
#: as (duration, crash, recovery bound) -> (cold, aimed) found rates and
#: probe counts.  Between what the search finds and the 0.48 M the
#: overloaded ceiling ingests, every probe ingests what it is offered and
#: fails on the recovery bound alone: its ingest rate is no hint, and
#: the ceiling's is one only in that nothing above it can hold.
FAULT_SEARCHES = {
    # The default bound: the threshold is 0.4 M, two cells under the hint.
    (120.0, 40.0, 60.0): ((400_000.0, 8), (400_000.0, 8)),
    # A bound the SUT only meets at 56 k: eleven cold probes of twelve.
    # (Taking every failing probe's ingest rate for a hint walked down a
    # cell at a time from 0.5 M: twelve failing probes, NaN.)
    (120.0, 40.0, 30.0): ((56_250.0, 11), (56_250.0, 12)),
    # The same on a shorter trial, where the last step of the cold walk
    # sustains: the aimed search has spent AIM_SLACK probes under the
    # hint, runs out one step short and reports the cell above.
    (80.0, 20.0, 30.0): ((39_062.5, 11), (37_500.0, 12)),
}


#: The one that runs with tier 1 (12 s): the search that found nothing.
QUICK = (120.0, 40.0, 30.0)


@pytest.mark.parametrize(
    "trial",
    [
        pytest.param(trial, marks=() if trial == QUICK else pytest.mark.slow)
        for trial in FAULT_SEARCHES
    ],
    ids=lambda trial: "-".join(f"{part:g}" for part in trial),
)
def test_a_faults_search_finds_what_cold_bisection_finds(trial):
    duration_s, crash_at_s, bound_s = trial
    spec = cell(
        "storm", "aggregation", workers=4, standby=1, duration_s=duration_s,
        faults=FaultSchedule([NodeCrash(at_s=crash_at_s)]),
    )
    criteria = SustainabilityCriteria(max_recovery_time_s=bound_s)
    aimed = find_sustainable_throughput(
        spec, high_rate=1.6e6, criteria=criteria
    )
    cold = cold_search(spec, high_rate=1.6e6, criteria=criteria)
    assert (
        (cold.sustainable_rate, cold.trial_count),
        (aimed.sustainable_rate, aimed.trial_count),
    ) == FAULT_SEARCHES[trial]
    assert aimed.trial_count <= cold.trial_count + AIM_SLACK
    assert aimed.best_trial().rate == aimed.sustainable_rate
    cold_by_rate = {t.rate: t for t in cold.trials}
    shared = [t for t in aimed.trials if t.rate in cold_by_rate]
    assert len(shared) >= 5
    for probe in shared:
        assert probe.stopped_at_s is None
        assert as_bytes(probe.export_entry()) == as_bytes(
            cold_by_rate[probe.rate].export_entry()
        )
    verdicts = verdicts_by_rate(aimed, cold)
    assert max(r for r, seen in verdicts.items() if True in seen) < min(
        r for r, seen in verdicts.items() if False in seen
    )
