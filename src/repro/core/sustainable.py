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

The search itself refines the rate by bisection between a known-good
floor and the probe ceiling, which is the paper's decrease-until-
sustained procedure with logarithmically fewer trials.

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
from typing import Callable, List, Optional, Tuple

from repro.core.criteria import SustainabilityCriteria
from repro.core.driver import TrialResult
from repro.core.experiment import ExperimentSpec, run_experiment, runner_for
from repro.core.latency import EVENT_TIME
from repro.metrology.journal import MISSING, TrialJournal
from repro.metrology.watchdog import WatchdogSpec
from repro.obs.context import ObsSpec
from repro.recovery.aimd import AimdConfig, AimdController, AimdDecision
from repro.sched.pool import TrialScheduler, TrialTask
from repro.workloads.profiles import AdaptiveRate, ConstantRate


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
        reasons.append(f"SUT failure: {result.failure}")
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
    latency_slope = result.collector.trend_slope(EVENT_TIME, start_time=start)
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
    """Journal key of one rate probe (shared by serial and parallel)."""
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
        spec.checkpoint, spec.broker, spec.clock_skew,
        criteria.max_recovery_time_s, criteria.max_lost_weight,
    )
    sound = all(part is None for part in moves_backlog) and isinstance(
        spec.rate_profile(), ConstantRate
    )
    return replace(spec, judged_by=criteria if sound else None)


def _run_probe(
    run: Callable[[ExperimentSpec], TrialResult],
    spec: ExperimentSpec,
    rate: float,
    criteria: SustainabilityCriteria,
) -> "SearchTrial":
    """Run and judge one rate probe -- the one body behind the serial
    search, scheduler workers and (through the serial search) sweep
    cells.  :func:`assess` is called exactly once, on what the trial
    measured; a probe the driver stopped says so in a leading reason."""
    result = run(anytime_spec(spec.with_rate(rate), criteria))
    verdict = assess(result, criteria)
    if result.stopped_at_s is not None:
        stopped = (
            f"stopped at {result.stopped_at_s:.1f}s of "
            f"{result.duration_s:.1f}s: verdict settled"
        )
        verdict = replace(verdict, reasons=[stopped, *verdict.reasons])
    return SearchTrial(rate=rate, result=result, verdict=verdict)


def _probe_task(payload) -> dict:
    """Scheduler worker body: run one rate probe, return its entry."""
    spec, rate, criteria, watchdog = payload
    trial = _run_probe(runner_for(watchdog), spec, rate, criteria)
    return trial.export_entry()


def _trial_from_entry(rate: float, entry: dict) -> "SearchTrial":
    """Rebuild a :class:`SearchTrial` from a journaled/worker entry."""
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
    """``None`` when the trial was replayed from a resume journal or
    probed by a scheduler worker (the exported outcome lives in
    :attr:`cached` instead)."""
    verdict: SustainabilityVerdict
    cached: Optional[dict] = None
    """The journaled export entry this trial replayed, if any."""

    def export_entry(self) -> dict:
        """The JSON-safe per-trial dict the search report serialises.
        Journaled and worker-probed trials return their stored entry
        verbatim; live trials build it from the result.  JSON
        round-trips floats exactly, so every route to a report is
        byte-identical for the same trial.  ``stopped_at_s`` appears
        only on a probe the driver stopped (the summaries then cover
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
        f"search|v2|{ceiling!r}|low={low_rate!r}|tol={rel_tol!r}"
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
    workers: int = 1,
    watchdog: Optional[WatchdogSpec] = None,
) -> SustainableSearchResult:
    """Find the highest sustainable constant rate for ``spec``.

    ``spec``'s profile is overridden with constant rates.  The probe
    starts at ``high_rate`` ("a very high generation rate"); if the SUT
    sustains it, that rate is returned (the ceiling -- e.g. Flink's
    network bound).  Otherwise the rate is refined by bisection until
    the bracket is within ``rel_tol`` of itself.  If no probed rate is
    sustainable within ``max_trials``, ``sustainable_rate`` is NaN.

    With a ``journal``, each completed probe's exported outcome is
    checkpointed immediately; a later run with the same journal (and
    fingerprint) replays journaled probes instead of re-running them --
    the bisection re-derives the same rates in the same order, so an
    interrupted search resumes exactly where it died and its final
    report is byte-identical to an uninterrupted run.

    With ``workers > 1`` the search evaluates bisection probes
    *speculatively* in parallel (see :func:`_speculative_rates`): each
    wave runs the rate the serial walk needs next plus the rates it
    could need after it, over a :class:`~repro.sched.TrialScheduler`
    process pool.  Speculation only changes which probes run and when;
    the reported trial ladder, probed rates, and final report are
    byte-identical to the serial search.  The parallel path requires
    the default runner (pass ``watchdog=`` instead of wrapping ``run``).
    """
    if high_rate <= low_rate:
        raise ValueError(
            f"need high_rate > low_rate, got ({low_rate}, {high_rate})"
        )
    if watchdog is not None:
        if run is not run_experiment:
            raise ValueError(
                "pass either a custom run callable or watchdog=, not both"
            )
        if workers <= 1:
            run = runner_for(watchdog)
    if workers > 1:
        if run is not run_experiment:
            raise ValueError(
                "workers > 1 requires the default run_experiment runner "
                "(trial bodies must be picklable); pass watchdog= for "
                "retry behaviour"
            )
        return _parallel_search(
            spec, high_rate, low_rate, rel_tol, criteria, max_trials,
            journal, workers, watchdog,
        )
    trials: List[SearchTrial] = []

    def probe(rate: float) -> SustainabilityVerdict:
        if journal is not None:
            entry = journal.get(probe_key(rate), MISSING)
            if entry is not MISSING:
                trial = _trial_from_entry(rate, entry)
                trials.append(trial)
                return trial.verdict
        trial = _run_probe(run, spec, rate, criteria)
        trials.append(trial)
        if journal is not None:
            journal.record(probe_key(rate), trial.export_entry())
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


# -- parallel (speculative) bisection ---------------------------------------


@dataclass
class _Walk:
    """One replay of the serial bisection over a cache of entries."""

    trials: List[Tuple[float, dict]]
    done: bool
    rate: float = float("nan")
    bracket: Optional[Tuple[float, float]] = None
    """Bracket whose midpoint needs a live probe (``None``: the root
    ``high_rate`` probe itself is missing)."""


def _replay_walk(
    cache: dict,
    high_rate: float,
    low_rate: float,
    rel_tol: float,
    max_trials: int,
) -> _Walk:
    """Re-run the exact serial bisection against cached entries.

    Stops at the first probe the cache cannot answer.  Because this is
    the verbatim serial control flow, the trials it assembles -- rates,
    order, and count -- are exactly the serial search's.
    """
    trials: List[Tuple[float, dict]] = []
    entry = cache.get(probe_key(high_rate))
    if entry is None:
        return _Walk(trials=trials, done=False, bracket=None)
    trials.append((high_rate, entry))
    if entry["sustainable"]:
        return _Walk(trials=trials, done=True, rate=high_rate)
    lo, hi = low_rate, high_rate
    floor_sustained = False
    while len(trials) < max_trials and (hi - lo) > rel_tol * hi:
        mid = (lo + hi) / 2.0
        entry = cache.get(probe_key(mid))
        if entry is None:
            return _Walk(trials=trials, done=False, bracket=(lo, hi))
        trials.append((mid, entry))
        if entry["sustainable"]:
            lo = mid
            floor_sustained = True
        else:
            hi = mid
    return _Walk(
        trials=trials,
        done=True,
        rate=lo if floor_sustained else float("nan"),
    )


def _speculative_rates(
    lo: float,
    hi: float,
    trial_count: int,
    rel_tol: float,
    max_trials: int,
    budget: int,
) -> List[float]:
    """Breadth-first frontier of the bisection tree under ``(lo, hi)``.

    The serial walk's next probe is the bracket midpoint; depending on
    its verdict the walk recurses into ``(mid, hi)`` (sustained) or
    ``(lo, mid)`` (not).  Enumerating that binary tree breadth-first
    yields every rate the serial search *could* probe next, nearest
    first -- evaluating the first ``budget`` of them keeps a worker
    pool busy while guaranteeing the true path is always among them.
    Branches that would terminate the serial loop (bracket within
    ``rel_tol``, trial budget exhausted) are pruned exactly as the
    serial loop would.
    """
    out: List[float] = []
    frontier = [(lo, hi, trial_count)]
    while frontier and len(out) < budget:
        lo_, hi_, count = frontier.pop(0)
        if count >= max_trials or (hi_ - lo_) <= rel_tol * hi_:
            continue
        mid = (lo_ + hi_) / 2.0
        out.append(mid)
        frontier.append((mid, hi_, count + 1))
        frontier.append((lo_, mid, count + 1))
    return out


def _parallel_search(
    spec: ExperimentSpec,
    high_rate: float,
    low_rate: float,
    rel_tol: float,
    criteria: SustainabilityCriteria,
    max_trials: int,
    journal: Optional[TrialJournal],
    workers: int,
    watchdog: Optional[WatchdogSpec],
) -> SustainableSearchResult:
    """Speculative bisection over a scheduler pool (see caller)."""
    scheduler = TrialScheduler(workers=workers, journal=journal)
    cache: dict = {}
    while True:
        walk = _replay_walk(cache, high_rate, low_rate, rel_tol, max_trials)
        if walk.done:
            break
        if walk.bracket is None:
            # Root wave: the ceiling probe plus, speculatively, the
            # bisection frontier it opens if it proves unsustainable.
            rates = [high_rate] + _speculative_rates(
                low_rate, high_rate, 1, rel_tol, max_trials, workers - 1
            )
        else:
            lo, hi = walk.bracket
            rates = _speculative_rates(
                lo, hi, len(walk.trials), rel_tol, max_trials, workers
            )
        batch = [
            TrialTask(
                key=probe_key(rate),
                fn=_probe_task,
                payload=(spec, rate, criteria, watchdog),
            )
            for rate in rates
            if probe_key(rate) not in cache
        ]
        # The walk stopped on an uncached probe, and that probe leads
        # every frontier, so each wave strictly extends the cache along
        # the true path -- the loop always terminates.
        cache.update(scheduler.run(batch))
    return SustainableSearchResult(
        walk.rate,
        spec.duration_s,
        [_trial_from_entry(rate, entry) for rate, entry in walk.trials],
    )


def _sweep_cell_task(payload) -> dict:
    """Scheduler worker body: one full (serial) search for one cell."""
    spec, high_rate, low_rate, rel_tol, criteria, max_trials, watchdog = payload
    search = find_sustainable_throughput(
        spec,
        high_rate=high_rate,
        low_rate=low_rate,
        rel_tol=rel_tol,
        criteria=criteria,
        max_trials=max_trials,
        watchdog=watchdog,
    )
    rate = search.sustainable_rate
    return {
        "sustainable_rate": None if rate != rate else float(rate),
        "trial_count": search.trial_count,
    }


def sweep_sustainable_rates(
    cells,
    high_rate: float,
    low_rate: float = 0.0,
    rel_tol: float = 0.05,
    criteria: SustainabilityCriteria = SustainabilityCriteria(),
    max_trials: int = 12,
    workers: int = 1,
    watchdog: Optional[WatchdogSpec] = None,
) -> "dict[str, float]":
    """Sustainable-throughput searches for many independent cells.

    ``cells`` is a sequence of ``(key, spec)`` pairs (e.g. one per
    (engine, cluster-size) corner of a Table-I sweep).  Each cell runs
    one full bisection search; with ``workers > 1`` whole cells fan out
    over the scheduler pool -- coarser-grained than per-probe
    speculation and perfectly parallel, which is why the benchmark
    suite and ``repro sweep`` parallelise at this level.  Results map
    ``key -> sustainable rate`` (NaN when a cell found none) in the
    order ``cells`` was given, regardless of completion order.
    """
    tasks = [
        TrialTask(
            key=key,
            fn=_sweep_cell_task,
            payload=(
                spec, high_rate, low_rate, rel_tol, criteria, max_trials,
                watchdog,
            ),
        )
        for key, spec in cells
    ]
    results = TrialScheduler(workers=workers).run(tasks)
    out = {}
    for key, _spec in cells:
        rate = results[key]["sustainable_rate"]
        out[key] = float("nan") if rate is None else float(rate)
    return out


@dataclass
class OnlineSearchResult:
    """Outcome of the single-trial AIMD probe.

    ``sustainable_rate`` follows the same contract as the offline
    search: NaN when no rate was ever observed sustainable.
    """

    sustainable_rate: float
    result: TrialResult
    decisions: List[AimdDecision]
    trajectory: List[Tuple[float, float]]
    """Applied ``(time, rate)`` control trajectory."""

    @property
    def found(self) -> bool:
        return self.sustainable_rate == self.sustainable_rate

    @property
    def decision_count(self) -> int:
        return len(self.decisions)


def find_sustainable_throughput_online(
    spec: ExperimentSpec,
    high_rate: float,
    config: Optional[AimdConfig] = None,
    run=run_experiment,
) -> OnlineSearchResult:
    """Probe the sustainable rate in a **single trial** (AIMD).

    Where :func:`find_sustainable_throughput` runs one full trial per
    probed rate, this starts one trial at ``high_rate`` and lets an
    additive-increase / multiplicative-decrease controller steer the
    offered load against live backpressure signals from the obs
    registry (see :mod:`repro.recovery.aimd`).  The estimate converges
    to within a probe-step of the offline bisection at a fraction of
    the cost -- the cross-validation test pins the two against each
    other.

    Observability is required (the controller reads registry gauges);
    a metrics-only :class:`ObsSpec` is injected when ``spec`` has none.
    """
    if high_rate <= 0:
        raise ValueError(f"high_rate must be positive, got {high_rate}")
    profile = AdaptiveRate(initial=high_rate, ceiling=high_rate)
    obs = spec.observability or ObsSpec(metrics_interval_s=0.5)
    trial_spec = replace(spec, profile=profile, observability=obs)
    controllers: List[AimdController] = []

    def install(driver) -> None:
        controller = AimdController(
            profile, driver.obs.registry, config=config
        )
        controller.install(driver.sim)
        controllers.append(controller)

    result = run(trial_spec, driver_hook=install)
    assert controllers, "driver_hook never ran"
    controller = controllers[0]
    controller.stop()
    return OnlineSearchResult(
        sustainable_rate=controller.estimate,
        result=result,
        decisions=controller.decisions,
        trajectory=controller.trajectory(),
    )


def find_sustainable_throughput_under_faults(
    spec: ExperimentSpec,
    high_rate: float,
    low_rate: float = 0.0,
    rel_tol: float = 0.05,
    criteria: Optional[SustainabilityCriteria] = None,
    max_recovery_time_s: float = 60.0,
    max_trials: int = 12,
    run: Callable[[ExperimentSpec], TrialResult] = run_experiment,
    workers: int = 1,
    watchdog: Optional[WatchdogSpec] = None,
) -> SustainableSearchResult:
    """Sustainable throughput *while surviving the fault schedule*.

    The Vogel et al. robustness question: not "what rate can the engine
    sustain" but "what rate can it sustain and still recover from every
    injected fault within ``max_recovery_time_s``".  ``spec`` must carry
    a fault schedule; the plain
    Definition 5 criteria are extended with the recovery bound, so an
    engine that survives the faults but never catches up is judged
    unsustainable at that rate.
    """
    if spec.faults is None:
        raise ValueError(
            "spec has no fault schedule; use find_sustainable_throughput "
            "for fault-free search"
        )
    base = criteria or SustainabilityCriteria()
    if base.max_recovery_time_s is None:
        base = replace(base, max_recovery_time_s=max_recovery_time_s)
    return find_sustainable_throughput(
        spec,
        high_rate,
        low_rate=low_rate,
        rel_tol=rel_tol,
        criteria=base,
        max_trials=max_trials,
        run=run,
        workers=workers,
        watchdog=watchdog,
    )
