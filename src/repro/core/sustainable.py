"""Sustainable throughput (Definition 5) and the search that finds it.

"Sustainable throughput is the highest load of event traffic that a
system can handle without exhibiting prolonged backpressure, i.e.,
without a continuously increasing event-time latency."  Operationally
(Section IV-B): "we run each of the systems with a very high generation
rate and we decrease it until the system can sustain that data
generation rate.  We allow for some fluctuation, i.e., we allow a
maximum number of events to be queued, as soon as the queue does not
continuously increase."

A trial is judged sustainable (:func:`assess`) from three driver-side
signals, plus the hard failure rules:

1. no SUT failure (dropped queue connection, stall, OOM);
2. the queue backlog does not continuously increase (occupancy trend
   bounded relative to the offered rate), and the end-of-run queueing
   delay stays bounded (the "maximum number of events queued" tolerance);
3. the event-time latency trend over the measurement period stays flat.

The search itself returns what bisection between ``low_rate`` and the
probe ceiling returns -- the paper's decrease-until-sustained procedure
with logarithmically fewer trials -- but does not walk there from cold.
The ceiling probe already measured what the overloaded SUT ingested at
the driver queues, which is the answer to within a few percent, so the
search aims: it runs the bisection on paper against "the SUT sustains
exactly that", and probes the two edges of the cell that walk ends in.
If the upper edge fails and the lower one holds, every midpoint on the
way is settled by monotonicity (sustained at ``r``: sustained below it;
unsustainable at ``r``: unsustainable above it -- what bisection assumes
whenever it discards half a bracket) and the search is over in three
probes; if not, it re-aims from what the probes so far say
(:func:`_aim`) -- on credit: it never runs more than :data:`AIM_SLACK`
probes beyond what the cold bisection would have -- and whatever the
aim, the bisection loop has the last word (:func:`_next_probe`).

The procedure needs only the *verdict* of a failing probe, never its
tail, so a probe may stop early (anytime Definition 5): the search
hands each probe its criteria (:func:`anytime_spec`), and the driver
halts the trial at the first throughput sample where signal 2 has
already failed for good -- the oldest queued event too old and not
getting younger, the backlog still rising -- by the rule of
:meth:`~repro.core.throughput.ThroughputMonitor.verdict_settled`.
:func:`assess` still judges every probe exactly once, on whatever the
trial measured; a sustained probe is never cut, and a probe is only
ever cut on a fault-free, fixed-size, constant-rate trial, where
nothing but the offered rate moves the backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.criteria import SustainabilityCriteria
from repro.core.driver import TrialResult
from repro.core.experiment import ExperimentSpec, run_experiment, runner_for
from repro.metrology.journal import MISSING, TrialJournal
from repro.metrology.watchdog import WatchdogSpec
from repro.sched.pool import TrialScheduler, TrialTask
from repro.workloads.profiles import ConstantRate


SUT_FAILURE = "SUT failure"
"""How :func:`assess` opens the reason of a failed trial; a probe that
carries it measured a crash, not a throughput."""


@dataclass(frozen=True)
class SustainabilityVerdict:
    sustainable: bool
    reasons: List[str]

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.sustainable


def assess(
    result: TrialResult,
    criteria: SustainabilityCriteria = SustainabilityCriteria(),
) -> SustainabilityVerdict:
    """Judge one trial against Definition 5."""
    reasons: List[str] = []
    if result.failed:
        reasons.append(f"{SUT_FAILURE}: {result.failure}")
    start = result.measurement_start
    offered = result.throughput.offered_series.window(start).mean()
    if offered and offered > 0:
        slope = result.throughput.occupancy_slope(start)
        if slope > criteria.max_occupancy_slope_frac * offered:
            reasons.append(
                f"queue backlog grows at {slope:.0f} events/s "
                f"(> {criteria.max_occupancy_slope_frac:.1%} of offered "
                f"{offered:.0f}/s)"
            )
    queue_delay = result.throughput.queue_delay_at_end()
    if queue_delay > criteria.max_queue_delay_s:
        reasons.append(
            f"oldest queued event is {queue_delay:.1f}s old at end "
            f"(> {criteria.max_queue_delay_s:.1f}s)"
        )
    latency_slope = result.collector.trend_slope(start_time=start)
    if latency_slope > criteria.max_latency_slope:
        reasons.append(
            f"event-time latency increases at {latency_slope:.3f} s/s "
            f"(> {criteria.max_latency_slope} s/s)"
        )
    if len(result.collector) < criteria.min_outputs:
        reasons.append("SUT produced no output tuples")
    if criteria.max_recovery_time_s is not None and result.recovery:
        for fault in result.recovery:
            if not fault.recovered:
                reasons.append(
                    f"{fault.kind}@{fault.fault_time_s:g}s never recovered "
                    "to the pre-fault latency band"
                )
            elif fault.recovery_time_s > criteria.max_recovery_time_s:
                reasons.append(
                    f"{fault.kind}@{fault.fault_time_s:g}s took "
                    f"{fault.recovery_time_s:.1f}s to recover "
                    f"(> {criteria.max_recovery_time_s:.1f}s)"
                )
    if criteria.max_lost_weight is not None:
        lost = result.diagnostics.get("lost_weight", 0.0)
        if lost > criteria.max_lost_weight:
            reasons.append(
                f"lost {lost:.0f} events across faults "
                f"(> {criteria.max_lost_weight:.0f})"
            )
    return SustainabilityVerdict(sustainable=not reasons, reasons=reasons)


def probe_key(rate: float) -> str:
    """Journal key of one rate probe.  Keyed by rate, not by position,
    so a search reads only the rates its ladder asks for and ignores
    any other entries in the journal."""
    return f"rate={rate!r}"


def anytime_spec(
    spec: ExperimentSpec, criteria: SustainabilityCriteria
) -> ExperimentSpec:
    """``spec`` as one search probe runs it: carrying ``criteria`` so the
    driver stops the trial once its verdict is settled -- wherever that
    is sound, and at full length everywhere else.

    The anytime rule reads a rising backlog under an ageing queue as
    overload, which holds only while nothing but the offered rate can
    move the backlog.  A recovery pause looks exactly like overload for
    as long as it lasts (Storm, ``NodeCrash`` at 80 s with a standby:
    the full trial recovers and is sustainable, the rule would fire at
    95 s), so the criteria are withheld from any trial with faults,
    rescaling, a detector, load shedding, checkpoint pauses, a broker
    stage or skewed clocks, any non-constant load, and any judgement
    that includes recovery or loss bounds.
    """
    moves_backlog = (
        spec.faults, spec.autoscale, spec.detector, spec.degradation,
        spec.checkpoint, spec.clock_skew,
        criteria.max_recovery_time_s, criteria.max_lost_weight,
    )
    sound = (
        not spec.broker
        and all(part is None for part in moves_backlog)
        and isinstance(spec.rate_profile(), ConstantRate)
    )
    return replace(spec, judged_by=criteria if sound else None)


def _run_probe(
    run: Callable[[ExperimentSpec], TrialResult],
    spec: ExperimentSpec,
    rate: float,
    criteria: SustainabilityCriteria,
) -> "SearchTrial":
    """Run and judge one rate probe -- the one body behind every live
    probe, sweep cells included (each runs the search in full).
    :func:`assess` is called exactly once, on what the trial measured;
    a probe the driver stopped says so in a leading reason."""
    result = run(anytime_spec(spec.with_rate(rate), criteria))
    verdict = assess(result, criteria)
    if result.stopped_at_s is not None:
        stopped = (
            f"stopped at {result.stopped_at_s:.1f}s of "
            f"{result.duration_s:.1f}s: verdict settled"
        )
        verdict = replace(verdict, reasons=[stopped, *verdict.reasons])
    return SearchTrial(rate=rate, result=result, verdict=verdict)


def _trial_from_entry(rate: float, entry: dict) -> "SearchTrial":
    """Rebuild a :class:`SearchTrial` from a journaled entry."""
    return SearchTrial(
        rate=rate,
        result=None,
        verdict=SustainabilityVerdict(
            sustainable=bool(entry["sustainable"]),
            reasons=list(entry["reasons"]),
        ),
        cached=entry,
    )


@dataclass
class SearchTrial:
    rate: float
    result: Optional[TrialResult]
    """``None`` when the trial was replayed from a resume journal (the
    exported outcome lives in :attr:`cached` instead)."""
    verdict: SustainabilityVerdict
    cached: Optional[dict] = None
    """The journaled export entry this trial replayed, if any."""

    def export_entry(self) -> dict:
        """The JSON-safe per-trial dict the search report serialises.
        Journaled trials return their stored entry verbatim; live
        trials build it from the result.  JSON round-trips floats
        exactly, so every route to a report is byte-identical for the
        same trial.  ``stopped_at_s`` appears only on a probe the
        driver stopped (the summaries then cover
        ``[warmup_s, stopped_at_s]``)."""
        if self.cached is not None:
            return self.cached
        result = self.result
        assert result is not None
        entry = {
            "rate": self.rate,
            "sustainable": self.verdict.sustainable,
            "reasons": list(self.verdict.reasons),
            "mean_ingest_rate": result.mean_ingest_rate,
            "event_latency": result.event_latency.to_dict(),
        }
        if result.stopped_at_s is not None:
            entry["stopped_at_s"] = result.stopped_at_s
        return entry

    @property
    def stopped_at_s(self) -> Optional[float]:
        """Where the driver stopped this probe (``None``: full length)."""
        return self.export_entry().get("stopped_at_s")


@dataclass
class SustainableSearchResult:
    """Outcome of a sustainable-throughput search.

    ``sustainable_rate`` is NaN when *no probed rate* was sustainable:
    reporting an unprobed floor (e.g. the default 0.0) as "sustainable"
    would fabricate a measurement that was never run.
    """

    sustainable_rate: float
    probe_duration_s: float
    """Planned simulated length of every probe (``spec.duration_s``)."""
    trials: List[SearchTrial] = field(default_factory=list)

    @property
    def trial_count(self) -> int:
        return len(self.trials)

    @property
    def planned_s(self) -> float:
        """Simulated seconds the ladder would cost at full length."""
        return self.trial_count * self.probe_duration_s

    @property
    def simulated_s(self) -> float:
        """:attr:`planned_s` less what stopping settled probes saved."""
        return sum(
            self.probe_duration_s
            if trial.stopped_at_s is None
            else trial.stopped_at_s
            for trial in self.trials
        )

    @property
    def found(self) -> bool:
        """Whether any probed rate was judged sustainable."""
        return self.sustainable_rate == self.sustainable_rate

    def best_trial(self) -> Optional[SearchTrial]:
        """The sustainable trial at the highest rate (None if none)."""
        good = [t for t in self.trials if t.verdict.sustainable]
        if not good:
            return None
        return max(good, key=lambda t: t.rate)


def search_fingerprint(
    spec: ExperimentSpec,
    high_rate: float,
    low_rate: float = 0.0,
    rel_tol: float = 0.05,
    criteria: SustainabilityCriteria = SustainabilityCriteria(),
    max_trials: int = 12,
) -> str:
    """Identity of one search for the resume journal: everything that
    shapes which rates get probed, what a probe runs and how it is
    judged.  Same defaults as :func:`find_sustainable_throughput`
    (pinned by a test), so a caller passes both the same arguments.

    The experiment is identified by the full ``repr`` of the ceiling
    probe's spec -- every field, the anytime criteria included -- and
    not by a summary of it: a journal written for 20-second probes must
    refuse to replay into a search of 60-second ones.
    """
    ceiling = anytime_spec(spec.with_rate(high_rate), criteria)
    return (
        f"search|v3|{ceiling!r}|low={low_rate!r}|tol={rel_tol!r}"
        f"|max_trials={max_trials}|criteria={criteria!r}"
    )


def find_sustainable_throughput(
    spec: ExperimentSpec,
    high_rate: float,
    low_rate: float = 0.0,
    rel_tol: float = 0.05,
    criteria: SustainabilityCriteria = SustainabilityCriteria(),
    max_trials: int = 12,
    run: Callable[[ExperimentSpec], TrialResult] = run_experiment,
    journal: Optional[TrialJournal] = None,
) -> SustainableSearchResult:
    """Find the highest sustainable constant rate for ``spec``.

    ``spec``'s profile is overridden with constant rates.  The probe
    starts at ``high_rate`` ("a very high generation rate"); if the SUT
    sustains it, that rate is returned (the ceiling -- e.g. Flink's
    network bound).  Otherwise the search returns what bisecting
    ``[low_rate, high_rate]`` down to ``rel_tol`` in at most
    ``max_trials`` steps returns, and gets there by aiming (see the
    module docstring and :func:`_next_probe`): at most ``max_trials``
    probes run, ``trials`` holds exactly those, in the order they ran,
    and ``sustainable_rate`` is one of them, judged sustained -- or NaN
    if none was.

    With a ``journal``, each completed probe's exported outcome is
    checkpointed immediately; a later run with the same journal (and
    fingerprint) replays journaled probes instead of re-running them --
    the next rate is a function of the probes so far, so an interrupted
    search resumes exactly where it died and its final report is
    byte-identical to an uninterrupted run.

    Callers that want a trial watchdog pass ``run=runner_for(watchdog)``.
    """
    if high_rate <= low_rate:
        raise ValueError(
            f"need high_rate > low_rate, got ({low_rate}, {high_rate})"
        )
    bracket = (high_rate, low_rate, rel_tol, max_trials)
    ladder: List[Tuple[float, dict]] = []
    trials: List[SearchTrial] = []
    while (rate := _next_probe(ladder, *bracket)) is not None:
        entry = MISSING
        if journal is not None:
            entry = journal.get(probe_key(rate), MISSING)
        if entry is MISSING:
            trial = _run_probe(run, spec, rate, criteria)
            entry = trial.export_entry()
            if journal is not None:
                journal.record(probe_key(rate), entry)
        else:
            trial = _trial_from_entry(rate, entry)
        ladder.append((rate, entry))
        trials.append(trial)
    # Every probe is a midpoint of the one bisection tree and the walk
    # ended in a leaf of it, so no sustained probe lies above the leaf's
    # lower edge: what bisection found is the highest rate that was
    # probed and sustained.  If every probe failed, no sustainable rate
    # was ever OBSERVED; returning low_rate (a rate that was never run)
    # would fabricate a result.  NaN marks "not found" honestly.
    found = max(
        (trial.rate for trial in trials if trial.verdict.sustainable),
        default=float("nan"),
    )
    return SustainableSearchResult(found, spec.duration_s, trials)


# -- which rate to probe next -----------------------------------------------


def _judged(known: Dict[float, bool], rate: float) -> Optional[bool]:
    """The verdict at ``rate`` as far as the probes so far settle it:
    probed there, else inferred by monotonicity -- unsustainable at ``r``
    means unsustainable above ``r``, sustained at ``r`` means sustained
    below it -- else ``None``.  This is the assumption bisection makes
    whenever it discards half a bracket, written down once.

    A rate is only ever probed where this returns ``None``, so the
    probes never contradict each other and the two rules never both
    apply."""
    verdict = known.get(rate)
    if verdict is not None:
        return verdict
    if any(not ok and probed <= rate for probed, ok in known.items()):
        return False
    if any(ok and probed >= rate for probed, ok in known.items()):
        return True
    return None


def _bisect(
    known: Dict[float, bool],
    high_rate: float,
    low_rate: float,
    rel_tol: float,
    max_trials: int,
    guess: Optional[float] = None,
) -> Tuple[float, float, Optional[float], int]:
    """The search's one bisection loop: ``(lo, hi, unsettled, steps)``.

    The ceiling probe counts as step one and every midpoint as one
    more, whoever answers it, so where a walk ends -- bracket within
    ``rel_tol``, or ``max_trials`` steps -- depends on the bracket alone:
    every walk ends in a leaf of the same tree, and every rate the
    search probes is a midpoint of that tree.

    A midpoint is answered by :func:`_judged` where the probes so far
    settle it.  Where they do not, the walk stops there and returns it
    as ``unsettled`` (``guess=None``: the live search), or supposes the
    SUT sustains exactly ``guess`` and walks on to the cell ``(lo, hi]``
    that puts the threshold in (aiming).  ``steps`` is how far the walk
    got -- the probes a cold bisection has run when it stands there.
    """
    lo, hi = low_rate, high_rate
    steps = 1
    while steps < max_trials and (hi - lo) > rel_tol * hi:
        mid = (lo + hi) / 2.0
        verdict = _judged(known, mid)
        if verdict is None:
            if guess is None:
                return lo, hi, mid, steps
            verdict = mid <= guess
        steps += 1
        if verdict:
            lo = mid
        else:
            hi = mid
    return lo, hi, None, steps


AIM_SLACK = 3
"""How many probes aiming may put a search behind the cold bisection
(:func:`_next_probe`)."""


def _aim(
    ladder: List[Tuple[float, dict]],
    high_rate: float,
    low_rate: float,
    rel_tol: float,
) -> float:
    """The rate to aim at, NaN if the probes so far give none.

    A failing probe measured a throughput at the driver queues, and
    where that lies clearly below what the probe was offered -- by more
    than ``rel_tol``, a terminal cell -- the SUT was overloaded and the
    number is a hint at what it sustains.  A probe that ingested what it
    was offered measured no capacity: it failed on something else (a
    recovery bound, lost events, a latency trend) or stands right at the
    threshold, and its verdict is all it knows.  Nor is a number at or
    below ``low_rate`` a hint, or one from a failed SUT (it measured a
    crash).

    A hint stands while it lies strictly inside the bracket the probes
    leave open (above the highest sustained rate, below the lowest
    failing one); the aim is the first standing hint, in the order the
    probes ran, so a cell is kept until both its edges failed and only
    then gives way to a later hint.

    With every hint refuted, the nearest one is reflected about the
    probe that refuted it: a probe sustained above it, so the aim moves
    as far above that probe again; or a probe failed below it, and the
    aim moves as far below.  Each further miss doubles the distance,
    until the aim would cross the middle of the open bracket -- from
    there on bisecting is the better move.
    """
    sustained = [rate for rate, entry in ladder if entry["sustainable"]]
    floor = max(sustained, default=low_rate)
    ceiling = min(rate for rate, entry in ladder if not entry["sustainable"])
    hints = [
        entry["mean_ingest_rate"]
        for rate, entry in ladder
        if not entry["sustainable"]
        and low_rate < entry["mean_ingest_rate"] < rate * (1.0 - rel_tol)
        and not any(r.startswith(SUT_FAILURE) for r in entry["reasons"])
    ]
    for hint in hints:
        if floor < hint < ceiling:
            return hint
    middle = (floor + ceiling) / 2.0
    too_low = [hint for hint in hints if hint <= floor]
    if too_low and 2.0 * floor - max(too_low) < middle:
        return 2.0 * floor - max(too_low)
    too_high = [hint for hint in hints if hint >= ceiling]
    if too_high and 2.0 * ceiling - min(too_high) > middle:
        return 2.0 * ceiling - min(too_high)
    return float("nan")


def _cell(
    ladder: List[Tuple[float, dict]],
    high_rate: float,
    low_rate: float,
    rel_tol: float,
    max_trials: int,
) -> Optional[Tuple[float, float, float]]:
    """``(aim, lo, hi)``: where the probes so far aim the search, and
    the cell ``(lo, hi]`` the bisection ends in if the SUT sustains
    exactly that -- ``None`` with nothing to aim at."""
    aim = _aim(ladder, high_rate, low_rate, rel_tol)
    if aim != aim:
        return None
    known = {rate: bool(entry["sustainable"]) for rate, entry in ladder}
    lo, hi, _, _ = _bisect(
        known, high_rate, low_rate, rel_tol, max_trials, guess=aim
    )
    return aim, lo, hi


def _next_probe(
    ladder: List[Tuple[float, dict]],
    high_rate: float,
    low_rate: float,
    rel_tol: float,
    max_trials: int,
) -> Optional[float]:
    """The rate to probe after the probes in ``ladder`` -- ``(rate,
    export entry)`` pairs in the order they ran -- or ``None`` once they
    finish the search.  A pure function of the ladder, which is what
    lets a journal replay it.

    The search is done when :func:`_bisect` runs to its end over the
    probes so far, so what it found is by construction what bisection
    finds over their verdicts; until then the walk's first unsettled
    midpoint is always a probe worth running.  Aiming only gets ahead
    of it: the edges of the aimed :func:`_cell` -- upper edge first --
    are probed where nothing settles them yet.  Two edges that hold
    settle every midpoint on the way there by inference.  With nothing
    to aim at, the search is the cold bisection, probe for probe.

    Aiming is on credit.  The walk has got ``steps`` far, which a cold
    bisection does in ``steps`` probes; this search has run
    ``len(ladder)``.  Probing the walk's own midpoint never widens the
    gap between the two, an aimed probe that settles nothing on the
    walk widens it by one, and once it is :data:`AIM_SLACK` the search
    walks until inference has paid some of it back.  So whatever the
    hints say, a search runs at most ``AIM_SLACK`` probes more than the
    cold bisection over the same monotone SUT, and one the cold
    bisection finishes in ``max_trials - AIM_SLACK`` probes finishes
    here too, on the same rate.  Nearer the budget than that, missed
    aims can use it up: a search that runs out stops where it is.
    """
    bracket = (high_rate, low_rate, rel_tol, max_trials)
    if not ladder:
        return high_rate
    known = {rate: bool(entry["sustainable"]) for rate, entry in ladder}
    _, _, unsettled, steps = _bisect(known, *bracket)
    if known[high_rate] or unsettled is None or len(ladder) >= max_trials:
        return None
    if len(ladder) - steps < AIM_SLACK:
        cell = _cell(ladder, *bracket)
        if cell is not None:
            _, lo, hi = cell
            for edge in (hi, lo):
                if edge != low_rate and _judged(known, edge) is None:
                    return edge
    return unsettled


def aimed_cell(
    search: SustainableSearchResult,
    high_rate: float,
    low_rate: float = 0.0,
    rel_tol: float = 0.05,
    max_trials: int = 12,
) -> Optional[Tuple[float, float, float]]:
    """``(ingested, lo, hi)``: what ``search``'s ceiling probe ingested
    and the cell ``(lo, hi]`` that aimed its second probe at, for a
    report to say where the ladder comes from -- ``None`` where the
    ceiling sustained or gave no usable hint (a cold bisection).  Takes
    the search's own arguments, with its defaults (pinned by a test),
    like :func:`search_fingerprint`."""
    ceiling = search.trials[0]
    if ceiling.verdict.sustainable:
        return None
    return _cell(
        [(high_rate, ceiling.export_entry())],
        high_rate, low_rate, rel_tol, max_trials,
    )


def _sweep_cell_task(payload) -> dict:
    """Scheduler worker body: one full (serial) search for one cell."""
    spec, high_rate, rel_tol, criteria, max_trials, watchdog = payload
    search = find_sustainable_throughput(
        spec,
        high_rate=high_rate,
        rel_tol=rel_tol,
        criteria=criteria,
        max_trials=max_trials,
        run=runner_for(watchdog),
    )
    rate = search.sustainable_rate
    return {
        "sustainable_rate": None if rate != rate else float(rate),
        "trial_count": search.trial_count,
        "simulated_s": search.simulated_s,
    }


def sweep_sustainable_rates(
    cells,
    high_rate: float,
    rel_tol: float = 0.05,
    criteria: SustainabilityCriteria = SustainabilityCriteria(),
    max_trials: int = 12,
    workers: int = 1,
    watchdog: Optional[WatchdogSpec] = None,
) -> "dict[str, dict]":
    """Sustainable-throughput searches for many independent cells.

    ``cells`` is a sequence of ``(key, spec)`` pairs (e.g. one per
    (engine, cluster-size) corner of a Table-I sweep).  Each cell runs
    one full search; with ``workers > 1`` whole cells fan out over the
    scheduler pool.  This is the one place search parallelism lives: a
    search's probes are sequential (each rate follows from the verdicts
    before it), whole cells are independent.  Each worker builds its
    trial runner from the picklable ``watchdog``.  Results map ``key ->
    {"sustainable_rate", "trial_count", "simulated_s"}`` (the rate NaN
    when a cell found none) in the order ``cells`` was given,
    regardless of completion order.
    """
    tasks = [
        TrialTask(
            key=key,
            fn=_sweep_cell_task,
            payload=(
                spec, high_rate, rel_tol, criteria, max_trials, watchdog
            ),
        )
        for key, spec in cells
    ]
    results = TrialScheduler(workers=workers).run(tasks)
    out = {}
    for key, _spec in cells:
        cell = dict(results[key])
        rate = cell["sustainable_rate"]
        cell["sustainable_rate"] = float("nan") if rate is None else float(rate)
        out[key] = cell
    return out
