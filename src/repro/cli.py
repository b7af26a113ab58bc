"""Command-line interface: ``python -m repro <command>``.

- ``run``     -- one trial: engine, query, workers, offered rate and
  duration, plus any faults, self-healing, measurement-plane,
  observability and autoscaling flags.
- ``search``  -- the sustainable throughput of one deployment
  (Definition 5): an aimed bisection of one trial per probed rate.
  With ``--fault`` a rate must also recover from every fault within
  ``--max-recovery`` seconds.
- ``sweep``   -- a Table-I style grid of searches over engines x cluster
  sizes, judged like ``search``; ``--jobs N`` fans whole cells over N
  worker processes.
- ``paper``   -- the paper's evaluation (Tables I-IV, Figures 4-11,
  Experiments 3-4, the ablations and extensions) from its one
  declaration in :mod:`repro.analysis.paper`, every shape check judged;
  exits 1 if any check fails.
- ``engines`` -- list registered engines and their cost models.
- ``chaos``   -- seeded chaos soak: randomized fault schedules over
  engines x recovery policies with invariant checks and a scorecard.
- ``recover`` -- recovery-efficiency scorecard: one deterministic fault
  per (engine x reschedule policy x fault kind) cell, plus the
  checkpoint-interval sensitivity frontier per engine.
- ``autoscale`` -- elasticity scorecard: engines x scaling policies x
  diurnal/flash-crowd workloads.

Each flag is declared once, and every default and choice list the
library owns is read from the object that owns it (the search's
signature, the grid configs, :class:`AutoscaleSpec`,
:class:`WatchdogSpec`, :class:`CheckpointSpec`, ...); only defaults
that belong to the command line itself are written here.  ``search``
and the three grid commands checkpoint to ``--journal PATH`` and replay
it with ``--resume``; parallel runs are byte-identical to serial ones.

Every command prints paper-style output and can export JSON via
``--output``.  Bad argument *values* (not just syntax) exit 2 with a
one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
from dataclasses import replace
from typing import Callable, Iterator, List, Optional

import repro.engines.ext  # noqa: F401  (registers heron/samza in ENGINES)
from repro import recoverybench
from repro.analysis import paper
from repro.analysis.export import (
    search_to_dict,
    trial_to_dict,
    write_json,
)
from repro.autoscale.policy import POLICY_NAMES, AutoscaleSpec
from repro.autoscale.scorecard import (
    ElasticityConfig,
    elasticity_fingerprint,
    run_elasticity,
)
from repro.core.driver import WARMUP_FRACTION
from repro.core.experiment import ExperimentSpec, runner_for
from repro.core.generator import GeneratorConfig
from repro.core.report import throughput_table
from repro.core.sustainable import (
    SearchTrial,
    aimed_cell,
    find_sustainable_throughput,
    search_fingerprint,
    sweep_sustainable_rates,
)
from repro.detect.plane import DETECTOR_KINDS
from repro.engines import ENGINES, engine_class
from repro.engines.calibration import registered_models
from repro.faults import (
    AsymmetricPartition,
    CheckpointSpec,
    DegradingNode,
    DeliveryGuarantee,
    DriverNodeSlow,
    DriverQueueLoss,
    FaultSchedule,
    FlappingNode,
    GeneratorCrash,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.grid import run_grid
from repro.metrology import TrialJournal, WatchdogSpec
from repro.obs.context import ObsSpec
from repro.recovery.chaos import ChaosConfig, chaos_fingerprint, run_chaos
from repro.recovery.degradation import (
    SHED_NEWEST,
    SHED_NONE,
    SHED_OLDEST,
    DegradationPolicy,
)
from repro.recovery.reschedule import RESCHEDULE_MODES
from repro.recoverybench import (
    RecoverConfig,
    recover_fingerprint,
    run_recovery_bench,
)
from repro.sim.cluster import PAPER_CLUSTER_SIZES
from repro.sim.clock import ClockSkewSpec
from repro.workloads.events import DEFAULT_GEM_PACK_COUNT
from repro.workloads.keys import NormalKeys, SingleKey, UniformKeys, ZipfKeys
from repro.workloads.queries import (
    PAPER_DEFAULT_WINDOW,
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

KEY_DISTRIBUTIONS = {
    "normal": lambda n: NormalKeys(n),
    "uniform": lambda n: UniformKeys(n),
    "single": lambda n: SingleKey(num_keys=n),
    "zipf": lambda n: ZipfKeys(n),
}


def library_default(function: Callable, name: str):
    """The default of ``function``'s parameter ``name``."""
    return inspect.signature(function).parameters[name].default


FAULT_KINDS = {
    "crash": lambda at, dur: NodeCrash(at_s=at),
    "restart": lambda at, dur: ProcessRestart(at_s=at),
    "slow": lambda at, dur: SlowNode(at_s=at, duration_s=dur or 30.0),
    "partition": lambda at, dur: NetworkPartition(at_s=at, duration_s=dur or 10.0),
    "disconnect": lambda at, dur: QueueDisconnect(at_s=at, duration_s=dur or 10.0),
    # Gray failures: node 0 by default; target other nodes by
    # constructing the event in Python (see examples/gray_failure.py).
    "flap": lambda at, dur: FlappingNode(at_s=at, duration_s=dur or 20.0),
    "degrade": lambda at, dur: DegradingNode(at_s=at, duration_s=dur or 20.0),
    "asympart": lambda at, dur: AsymmetricPartition(at_s=at, duration_s=dur or 10.0),
}

DRIVER_FAULT_KINDS = {
    "gencrash": lambda at, dur: GeneratorCrash(at_s=at),
    "queueloss": lambda at, dur: DriverQueueLoss(at_s=at),
    "driverslow": lambda at, dur: DriverNodeSlow(at_s=at, duration_s=dur or 10.0),
}


def parse_timed_fault(text: str, kinds: dict, what: str, examples: str):
    """Parse ``KIND@T`` or ``KIND@T:DURATION`` into the event ``kinds``
    builds for ``KIND``."""
    try:
        kind, _, when = text.partition("@")
        if not when:
            raise ValueError("missing '@TIME'")
        when, _, duration = when.partition(":")
        builder = kinds.get(kind)
        if builder is None:
            raise ValueError(
                f"unknown kind {kind!r} (choose from "
                f"{', '.join(sorted(kinds))})"
            )
        return builder(float(when), float(duration) if duration else None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r}: {exc} (examples: {examples})"
        ) from None


def parse_fault(text: str):
    """Parse one ``--fault`` value."""
    return parse_timed_fault(
        text, FAULT_KINDS, "fault",
        "crash@60, slow@30:20, partition@100:10, "
        "flap@40:20, degrade@40:20, asympart@40:10",
    )


def parse_driver_fault(text: str):
    """Parse one ``--driver-fault`` value."""
    return parse_timed_fault(
        text, DRIVER_FAULT_KINDS, "driver fault",
        "gencrash@60, queueloss@70, driverslow@30:20",
    )


#: ``--clock-skew``'s fields in order, each with the divisor from its
#: command-line unit to the :class:`ClockSkewSpec` field's.
CLOCK_SKEW_FIELDS = (
    ("offset_s", 1e3),
    ("drift_ppm", 1.0),
    ("ntp_residual_s", 1e3),
    ("ntp_interval_s", 1.0),
)


def parse_clock_skew(text: str) -> ClockSkewSpec:
    """Parse ``--clock-skew``: ``OFFSET_MS[:DRIFT_PPM[:RESID_MS[:INT_S]]]``;
    a field left out keeps :class:`ClockSkewSpec`'s default."""
    try:
        parts = text.split(":")
        if len(parts) > len(CLOCK_SKEW_FIELDS):
            raise ValueError("too many fields")
        return ClockSkewSpec(
            **{
                name: float(part) / divisor
                for (name, divisor), part in zip(CLOCK_SKEW_FIELDS, parts)
            }
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid clock skew {text!r}: {exc} "
            "(format: OFFSET_MS[:DRIFT_PPM[:RESIDUAL_MS[:INTERVAL_S]]], "
            "example: 5:20:0.5:30)"
        ) from None


def build_faults(args: argparse.Namespace) -> Optional[FaultSchedule]:
    events = [*(args.fault or ()), *(args.driver_fault or ())]
    if not events:
        return None
    return FaultSchedule(events=tuple(events))


def build_clock_skew(args: argparse.Namespace) -> Optional[ClockSkewSpec]:
    if args.clock_skew is None:
        if args.uncorrected_clocks:
            raise ValueError(
                "--uncorrected-clocks requires --clock-skew "
                "(there is no clock model to leave uncorrected)"
            )
        return None
    if args.uncorrected_clocks:
        return replace(args.clock_skew, corrected=False)
    return args.clock_skew


def build_watchdog(args: argparse.Namespace) -> Optional[WatchdogSpec]:
    if args.trial_timeout is None and args.trial_stall is None:
        return None
    return WatchdogSpec(
        timeout_s=args.trial_timeout,
        stall_s=args.trial_stall,
        max_attempts=1 + args.retries,
        backoff_base_s=args.retry_backoff,
    )


def build_runner(args: argparse.Namespace):
    """The trial runner ``run`` and ``search`` use: plain, or
    watchdog-wrapped."""
    return runner_for(build_watchdog(args))


def build_checkpoint(args: argparse.Namespace) -> Optional[CheckpointSpec]:
    if args.checkpoint_interval is None and args.guarantee is None:
        return None
    kwargs = {}
    if args.checkpoint_interval is not None:
        kwargs["interval_s"] = args.checkpoint_interval
    if args.guarantee is not None:
        kwargs["guarantee"] = DeliveryGuarantee.parse(args.guarantee)
    return CheckpointSpec(**kwargs)


def build_observability(args: argparse.Namespace) -> Optional[ObsSpec]:
    if (
        args.trace_sample_rate == ObsSpec.trace_sample_rate
        and args.metrics_interval is None
    ):
        return None
    kwargs = {"trace_sample_rate": args.trace_sample_rate}
    if args.metrics_interval is not None:
        kwargs["metrics_interval_s"] = args.metrics_interval
    return ObsSpec(**kwargs)


def build_query(args: argparse.Namespace):
    window = WindowSpec(args.window_size, args.window_slide)
    keys = KEY_DISTRIBUTIONS[args.keys](args.num_keys)
    if args.query == "aggregation":
        return WindowedAggregationQuery(window=window, keys=keys)
    return WindowedJoinQuery(window=window, keys=keys)


def build_degradation(args: argparse.Namespace, engine: str):
    if args.shed in (None, SHED_NONE):
        return None  # engine default: inert policy (no shedding)
    if args.shed == "recommended":
        return engine_class(engine).recommended_degradation
    return DegradationPolicy(shed=args.shed)


#: ``(flag, dest, AutoscaleSpec / ElasticityConfig field, type, metavar,
#: what it bounds)`` for the autoscaler's bounds.
AUTOSCALE_BOUNDS = (
    ("--min-nodes", "min_nodes", "min_workers", int, "N", "scale-in floor"),
    ("--max-nodes", "max_nodes", "max_workers", int, "N", "scale-out ceiling"),
    (
        "--cooldown", "cooldown", "cooldown_s", float, "SECONDS",
        "minimum simulated time between scaling decisions",
    ),
)


def autoscale_bounds(args: argparse.Namespace) -> dict:
    """The bounds given on the command line, as ``{field: value}`` --
    a bound left out keeps the library default."""
    given = vars(args)
    return {
        field: given[dest]
        for _, dest, field, *_ in AUTOSCALE_BOUNDS
        if given[dest] is not None
    }


def build_autoscale(args: argparse.Namespace) -> Optional[AutoscaleSpec]:
    bounds = autoscale_bounds(args)
    if args.autoscale is None:
        for flag, _, field, *_ in AUTOSCALE_BOUNDS:
            if field in bounds:
                raise ValueError(f"{flag} requires --autoscale POLICY")
        return None
    return AutoscaleSpec(policy=args.autoscale, **bounds)


def build_criteria(args: argparse.Namespace):
    """Definition 5's criteria; with faults, every fault must also
    recover within ``--max-recovery`` seconds."""
    criteria = library_default(find_sustainable_throughput, "criteria")
    if build_faults(args) is None:
        return criteria
    return replace(criteria, max_recovery_time_s=args.max_recovery)


def build_spec(
    args: argparse.Namespace,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    rate: Optional[float] = None,
) -> ExperimentSpec:
    """The trial ``args`` declare; ``engine`` / ``workers`` / ``rate``
    override the flags of the same name (one sweep cell, one probe)."""
    engine = args.engine if engine is None else engine
    return ExperimentSpec(
        engine=engine,
        query=build_query(args),
        workers=args.workers if workers is None else workers,
        profile=args.rate if rate is None else rate,
        duration_s=args.duration,
        seed=args.seed,
        generator=GeneratorConfig(instances=args.generators),
        monitor_resources=not args.no_resources,
        faults=build_faults(args),
        checkpoint=build_checkpoint(args),
        observability=build_observability(args),
        standby=args.standby,
        reschedule=args.reschedule,
        degradation=build_degradation(args, engine),
        clock_skew=build_clock_skew(args),
        autoscale=build_autoscale(args),
        detector=args.detector,
    )


def add_trial_arguments(
    parser: argparse.ArgumentParser,
    seed: int,
    duration: Optional[float] = None,
    rate: Optional[float] = None,
) -> None:
    """``--seed``, ``--output`` and (unless ``duration`` / ``rate`` is
    ``None``) ``--duration`` / ``--rate``, with the command's
    defaults."""
    parser.add_argument("--seed", type=int, default=seed)
    if duration is not None:
        parser.add_argument(
            "--duration", type=float, default=duration,
            help=(
                f"simulated seconds per trial, "
                f"{WARMUP_FRACTION:.0%}% warmup "
                f"(default: {duration:g})"
            ),
        )
    if rate is not None:
        parser.add_argument(
            "--rate", type=float, default=rate,
            help=f"offered load per trial in events/s (default: {rate:g})",
        )
    parser.add_argument(
        "--output", type=str, default=None,
        help="write the result as JSON to this path",
    )


def add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int,
        default=library_default(sweep_sustainable_rates, "workers"),
        help=(
            "fan independent searches and trials over N worker processes "
            "(results stay byte-identical to --jobs 1)"
        ),
    )


def add_engines_argument(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument(
        "--engines", nargs="+", choices=sorted(ENGINES), default=list(default),
        help=f"engines to compare (default: {' '.join(default)})",
    )


def add_autoscale_bounds(
    parser: argparse.ArgumentParser, defaults, scope: str = ""
) -> None:
    """``--min-nodes`` / ``--max-nodes`` / ``--cooldown``; the help
    quotes ``defaults``' fields (an :class:`AutoscaleSpec` or an
    :class:`ElasticityConfig`).  Unset, each parses to ``None`` and the
    library default applies."""
    for flag, _, field, type_, metavar, what in AUTOSCALE_BOUNDS:
        parser.add_argument(
            flag, type=type_, default=None, metavar=metavar,
            help=f"{scope}{what} (default: {getattr(defaults, field):g})",
        )


def add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """The search settings ``search`` and ``sweep`` share."""
    parser.add_argument(
        "--high-rate", type=float, default=1.6e6,
        help="probe ceiling in events/s (default: 1.6e6)",
    )
    tolerance = library_default(find_sustainable_throughput, "rel_tol")
    parser.add_argument(
        "--tolerance", type=float, default=tolerance,
        help=f"relative width the bisection stops at (default: {tolerance:g})",
    )
    # The library's criteria carry no recovery bound (plain
    # Definition 5); this one belongs to the command line.
    parser.add_argument(
        "--max-recovery", type=float, default=60.0,
        help=(
            "with --fault: seconds within which every fault must recover "
            "for a rate to count as sustainable (default: 60)"
        ),
    )


def add_journal_arguments(parser: argparse.ArgumentParser, unit: str) -> None:
    """``--journal`` / ``--resume``; ``unit`` is what one journal entry
    records (a probe, a trial)."""
    parser.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help=f"checkpoint each completed {unit} to this JSON journal",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            f"replay completed {unit}s from --journal instead of "
            "re-running them (byte-identical final report)"
        ),
    )


@contextlib.contextmanager
def opened_journal(
    args: argparse.Namespace, fingerprint: Callable[[], str], indent: str = ""
) -> Iterator[Optional[TrialJournal]]:
    """The ``--journal`` / ``--resume`` pair, opened for the body of the
    ``with`` and reported after it.  Check every other flag *before*
    entering: a fresh :class:`TrialJournal` clears stale worker shards,
    which a usage error must never do."""
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal PATH")
    journal = None
    if args.journal:
        journal = TrialJournal(
            args.journal, fingerprint=fingerprint(), resume=args.resume
        )
    yield journal
    if journal is not None:
        print(
            f"{indent}journal: {journal.hits} replayed, "
            f"{journal.misses} run live"
        )


def add_common_arguments(
    parser: argparse.ArgumentParser, rate: Optional[float] = None
) -> None:
    """The flags of the commands that build :class:`ExperimentSpec`\\ s
    from their arguments (``run``, ``search``, ``sweep``)."""
    parser.add_argument(
        "--engine", choices=sorted(ENGINES), default=ExperimentSpec.engine,
        help=f"system under test (default: {ExperimentSpec.engine})",
    )
    parser.add_argument(
        "--query", choices=["aggregation", "join"], default="aggregation",
        help="paper query template (default: aggregation)",
    )
    parser.add_argument(
        "--workers", type=int, default=ExperimentSpec.workers,
        help=(
            "worker-node count; the paper sweeps 2/4/8 "
            f"(default: {ExperimentSpec.workers})"
        ),
    )
    parser.add_argument(
        "--window-size", type=float, default=PAPER_DEFAULT_WINDOW.size_s,
        help=(
            "window size in seconds "
            f"(default: {PAPER_DEFAULT_WINDOW.size_s:g})"
        ),
    )
    parser.add_argument(
        "--window-slide", type=float, default=PAPER_DEFAULT_WINDOW.slide_s,
        help=(
            "window slide in seconds "
            f"(default: {PAPER_DEFAULT_WINDOW.slide_s:g})"
        ),
    )
    parser.add_argument(
        "--keys", choices=sorted(KEY_DISTRIBUTIONS), default="normal",
        help="key distribution (default: normal, as in the paper)",
    )
    parser.add_argument(
        "--num-keys", type=int, default=DEFAULT_GEM_PACK_COUNT,
        help=f"key-space size (default: {DEFAULT_GEM_PACK_COUNT})",
    )
    add_trial_arguments(
        parser, seed=ExperimentSpec.seed, duration=160.0, rate=rate
    )
    parser.add_argument(
        "--generators", type=int, default=2,
        help="parallel generator instances (default: 2)",
    )
    parser.add_argument(
        "--no-resources", action="store_true",
        help="skip CPU/network sampling (slightly faster)",
    )
    for flag, parse, what in (
        (
            "--fault", parse_fault,
            "inject a fault at T seconds (repeatable): crash@60, "
            "restart@90, slow@30:20, partition@100:10, disconnect@50:10",
        ),
        (
            "--driver-fault", parse_driver_fault,
            "inject a fault into the benchmark harness itself "
            "(repeatable): gencrash@60, queueloss@70, driverslow@30:20",
        ),
    ):
        parser.add_argument(
            flag, action="append", type=parse, default=None,
            metavar="KIND@T[:DUR]", help=what,
        )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=None,
        help=(
            "checkpoint interval in seconds "
            f"(default: model default {CheckpointSpec.interval_s:g})"
        ),
    )
    parser.add_argument(
        "--guarantee", default=None,
        choices=[g.value for g in DeliveryGuarantee],
        help="override the engine's delivery guarantee",
    )
    parser.add_argument(
        "--trace-sample-rate", type=int, default=ObsSpec.trace_sample_rate,
        metavar="N",
        help=(
            "trace every N-th generated cohort through the pipeline "
            f"({ObsSpec.trace_sample_rate} disables tracing; try 1000)"
        ),
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=None, metavar="SECONDS",
        help=(
            "sample the metrics registry every this many simulated "
            "seconds (enables the registry; default when enabled: "
            f"{ObsSpec.metrics_interval_s:g})"
        ),
    )
    parser.add_argument(
        "--standby", type=int, default=ExperimentSpec.standby, metavar="N",
        help=(
            "hot standby nodes: a crash promotes a standby (paying the "
            "state-migration cost) instead of losing capacity "
            f"(default: {ExperimentSpec.standby})"
        ),
    )
    parser.add_argument(
        "--reschedule", choices=list(RESCHEDULE_MODES), default=None,
        help=(
            "policy for a dead operator slot: none = capacity lost (legacy), "
            "spread = migrate over survivors, standby = promote from the "
            "pool (default: standby when --standby > 0, else none)"
        ),
    )
    parser.add_argument(
        "--shed", choices=[SHED_NONE, "recommended", SHED_OLDEST, SHED_NEWEST],
        default=None,
        help=(
            "load shedding at the sources: recommended = engine-tuned "
            "policy, oldest/newest = generic bounded-latency shedding "
            "(default: none)"
        ),
    )
    add_detector_argument(parser)
    parser.add_argument(
        "--clock-skew", type=parse_clock_skew, default=None,
        metavar="OFF_MS[:PPM[:RES_MS[:INT_S]]]",
        help=(
            "model per-node clock error on the measurement plane: max "
            "offset in ms, drift in ppm, NTP residual in ms, NTP sync "
            "interval in s (example: 5:20:0.5:30); the exported "
            "diagnostics carry the correction error bound"
        ),
    )
    parser.add_argument(
        "--uncorrected-clocks", action="store_true",
        help=(
            "with --clock-skew: read raw (undisciplined) clocks instead "
            "of NTP-corrected ones -- demonstrates the skew error the "
            "correction layer removes"
        ),
    )
    parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock budget per trial; the watchdog aborts and "
            "retries a trial that exceeds it (default: off)"
        ),
    )
    parser.add_argument(
        "--trial-stall", type=float, default=None, metavar="SECONDS",
        help=(
            "simulated seconds without driver progress before the "
            "watchdog declares the trial stalled (default: off)"
        ),
    )
    retries = WatchdogSpec.max_attempts - 1
    parser.add_argument(
        "--retries", type=int, default=retries, metavar="N",
        help=(
            "extra attempts after a watchdog-aborted trial, with capped "
            f"exponential backoff (default: {retries})"
        ),
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=WatchdogSpec.backoff_base_s,
        metavar="SECONDS",
        help=(
            "base backoff before the first retry; 0 retries at once "
            f"(default: {WatchdogSpec.backoff_base_s:g})"
        ),
    )
    parser.add_argument(
        "--autoscale", choices=list(POLICY_NAMES), default=None,
        metavar="POLICY",
        help=(
            "scale the cluster out/in mid-trial with this policy "
            "(threshold or target), driven by obs-registry signals; "
            "enables metrics sampling automatically"
        ),
    )
    add_autoscale_bounds(parser, AutoscaleSpec, scope="with --autoscale: ")


def add_detector_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--detector", choices=list(DETECTOR_KINDS), default=None,
        help=(
            "drive suspect migrations from a heartbeat failure detector: "
            "timeout = today's fixed-timeout semantics made explicit, "
            "phi = Hayashibara accrual, quorum = k-of-n observers "
            "(default: off; recovery behaviour then matches builds "
            "without the detection plane byte for byte)"
        ),
    )


def add_grid_arguments(parser: argparse.ArgumentParser, config) -> None:
    """The flags ``chaos`` / ``recover`` / ``autoscale`` share, with the
    defaults of the command's ``config`` class (its ``rate``, if it has
    one, declares ``--rate``)."""
    add_trial_arguments(
        parser,
        seed=config.seed,
        duration=config.duration_s,
        rate=getattr(config, "rate", None),
    )
    add_engines_argument(parser, config.engines)
    parser.add_argument(
        "--sut-workers", type=int, default=config.workers,
        help=(
            "simulated cluster size each trial starts with "
            f"(default: {config.workers})"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=library_default(run_grid, "workers"),
        help=(
            "scheduler parallelism: fan trials over N worker processes "
            "(report stays byte-identical to --workers 1)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print a status line per trial",
    )
    add_journal_arguments(parser, "trial")


def cmd_run(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    result = build_runner(args)(spec)
    print(result.describe())
    if result.attempts is not None and len(result.attempts) > 1:
        print(f"  watchdog attempts    : {len(result.attempts)}")
        for record in result.attempts:
            print(f"    attempt {record.attempt}: {record.outcome}")
    skew_bound = result.diagnostics.get("metrology.skew_bound_s")
    if skew_bound is not None:
        print(
            f"  clock-skew bound     : {skew_bound * 1e3:.3f} ms "
            f"(max observed error "
            f"{result.diagnostics['metrology.skew_max_error_s'] * 1e3:.3f} ms)"
        )
    print(f"  event-time latency   : {result.event_latency.row()}")
    print(f"  processing-time lat. : {result.processing_latency.row()}")
    print(f"  mean ingest rate     : {result.mean_ingest_rate / 1e6:.3f} M/s")
    if result.recovery:
        print("  fault recovery:")
        for fault in result.recovery:
            print(f"    {fault.describe()}")
    if result.detection is not None:
        det = result.detection
        lat = det.detection_latency_mean_s
        lat_text = f"{lat:.2f}s mean" if lat == lat else "n/a"
        print(
            f"  detection ({det.detector}): {det.true_positives} TP, "
            f"{det.false_positives} FP, {det.false_negatives} FN over "
            f"{det.episodes} episode(s); latency {lat_text}; "
            f"{det.actions} suspect migration(s), "
            f"{det.spurious_migration_node_s:.1f} spurious node-s, "
            f"cascade depth {det.cascade_depth_max}"
            + (", METASTABLE" if det.metastable else "")
        )
    if result.autoscale:
        cost = result.diagnostics.get("autoscale.cost_node_seconds", 0.0)
        print(f"  autoscale ({cost:.0f} node-seconds billed):")
        for event in result.autoscale:
            print(f"    {event.describe()}")
    if result.observability is not None:
        from repro.analysis.ascii_plots import render_obs_dashboard

        print(render_obs_dashboard(result.observability))
    if args.output:
        path = write_json(trial_to_dict(result), args.output)
        print(f"  wrote {path}")
    return 1 if result.failed else 0


def describe_probe(trial: SearchTrial) -> str:
    """One ladder line: rate, verdict and -- for a failing probe -- why
    (where the driver stopped it, and its first measured reason)."""
    line = f"{trial.rate / 1e6:8.3f} M/s  "
    if trial.verdict.sustainable:
        return line + "sustainable"
    reasons = trial.verdict.reasons
    if trial.stopped_at_s is None:
        return line + f"UNSUSTAINABLE  ({reasons[0]})"
    # A stopped probe's leading reason only restates the stop time.
    return line + (
        f"UNSUSTAINABLE  (stopped at {trial.stopped_at_s:g} s: {reasons[1]})"
    )


def cmd_search(args: argparse.Namespace) -> int:
    spec = build_spec(args, rate=args.high_rate)
    # One set of search arguments for the search, the journal's identity
    # and the aim line; everything else is those functions' defaults.
    bracket = dict(high_rate=args.high_rate, rel_tol=args.tolerance)
    criteria = build_criteria(args)
    with opened_journal(
        args,
        lambda: search_fingerprint(spec, criteria=criteria, **bracket),
        indent="  ",
    ) as journal:
        search = find_sustainable_throughput(
            spec,
            criteria=criteria,
            run=build_runner(args),
            journal=journal,
            **bracket,
        )
    aim = aimed_cell(search, **bracket)
    if aim is not None:
        ingested, lo, hi = aim
        print(
            f"  ceiling ingested {ingested / 1e6:.3f} M/s -> "
            f"aiming at ({lo / 1e6:.4f}, {hi / 1e6:.4f}] M/s"
        )
    for trial in search.trials:
        print(f"  {describe_probe(trial)}")
    print(
        f"sustainable throughput: {search.sustainable_rate / 1e6:.3f} M/s "
        f"({search.trial_count} trials, simulated "
        f"{search.simulated_s:g} of {search.planned_s:g} s)"
    )
    if args.output:
        path = write_json(search_to_dict(search), args.output)
        print(f"wrote {path}")
    return 0


def check_jobs(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")


def cmd_sweep(args: argparse.Namespace) -> int:
    check_jobs(args)
    cells = [
        (
            (engine, workers),
            build_spec(args, engine=engine, workers=workers, rate=args.high_rate),
        )
        for engine in args.engines
        for workers in args.worker_counts
    ]
    searches = sweep_sustainable_rates(
        cells,
        high_rate=args.high_rate,
        rel_tol=args.tolerance,
        criteria=build_criteria(args),
        workers=args.jobs,
        watchdog=build_watchdog(args),
    )
    measured = {key: s["sustainable_rate"] for key, s in searches.items()}
    for (engine, workers), rate in measured.items():
        print(f"  {engine}/{workers}w: {rate / 1e6:.3f} M/s")
    print()
    print(
        throughput_table(
            f"Sustainable throughput, {args.query} "
            f"({args.window_size:g}s, {args.window_slide:g}s)",
            measured=measured,
            workers=tuple(args.worker_counts),
        )
    )
    if args.output:
        payload = {
            f"{engine}/{workers}": rate
            for (engine, workers), rate in measured.items()
        }
        path = write_json(payload, args.output)
        print(f"wrote {path}")
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    check_jobs(args)
    report = paper.run_paper(seed=args.seed, jobs=args.jobs)
    print(paper.render_paper(report))
    if args.output:
        path = write_json(report, args.output)
        print(f"wrote {path}")
    return 1 if report["failed_checks"] else 0


def run_grid_command(
    args: argparse.Namespace, config, fingerprint, run
) -> int:
    """The body ``chaos`` / ``recover`` / ``autoscale`` share: validate
    the shared flags, open the journal, run the grid, print the
    report."""
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    with opened_journal(args, lambda: fingerprint(config)) as journal:
        report = run(
            config,
            progress=print if args.verbose else None,
            journal=journal,
            workers=args.workers,
        )
    print(report.render())
    if args.output:
        path = write_json(report.to_dict(), args.output)
        print(f"wrote {path}")
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    config = ChaosConfig(
        seed=args.seed,
        rounds=args.rounds,
        engines=tuple(args.engines),
        duration_s=args.duration,
        rate=args.rate,
        workers=args.sut_workers,
        driver_faults=not args.no_driver_faults,
        detector=args.detector,
        gray_faults=args.gray,
    )
    return run_grid_command(args, config, chaos_fingerprint, run_chaos)


def cmd_recover(args: argparse.Namespace) -> int:
    config = RecoverConfig(
        seed=args.seed,
        engines=tuple(args.engines),
        policies=tuple(args.policies),
        kinds=tuple(args.kinds),
        intervals=() if args.no_frontier else tuple(args.intervals),
        duration_s=args.duration,
        rate=args.rate,
        workers=args.sut_workers,
        detector=args.detector,
    )
    return run_grid_command(
        args, config, recover_fingerprint, run_recovery_bench
    )


def cmd_autoscale(args: argparse.Namespace) -> int:
    config = ElasticityConfig(
        seed=args.seed,
        engines=tuple(args.engines),
        policies=tuple(args.policies),
        duration_s=args.duration,
        workers=args.sut_workers,
        **autoscale_bounds(args),
    )
    return run_grid_command(
        args, config, elasticity_fingerprint, run_elasticity
    )


def cmd_engines(args: argparse.Namespace) -> int:
    print("registered engines:")
    for name in sorted(ENGINES):
        print(f"  {name:<8} {ENGINES[name].__name__}")
    print()
    print("calibrated cost models (engine, query): pipeline+keyed us/event")
    for (engine, kind), model in sorted(registered_models().items()):
        print(
            f"  {engine:<8} {kind:<12} "
            f"{model.pipeline_cost_us:6.1f} + {model.keyed_cost_us:5.2f} us, "
            f"eff={dict(model.scaling_efficiency)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Benchmark simulated stream processing engines with the "
            "ICDE'18 driver/SUT-separated methodology."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one benchmark trial")
    add_common_arguments(run_parser, rate=0.3e6)
    run_parser.set_defaults(func=cmd_run)

    search_parser = sub.add_parser(
        "search", help="find the sustainable throughput (Definition 5)"
    )
    add_common_arguments(search_parser)
    add_search_arguments(search_parser)
    add_journal_arguments(search_parser, "probe")
    search_parser.set_defaults(func=cmd_search)

    sweep_parser = sub.add_parser(
        "sweep", help="Table-I style sweep over engines and cluster sizes"
    )
    add_common_arguments(sweep_parser)
    add_search_arguments(sweep_parser)
    add_engines_argument(sweep_parser, sorted(ENGINES))
    sweep_parser.add_argument(
        "--worker-counts", nargs="+", type=int,
        default=list(PAPER_CLUSTER_SIZES),
    )
    add_jobs_argument(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    paper_parser = sub.add_parser(
        "paper",
        help=(
            "regenerate the paper's tables, figures, experiments and "
            "ablations and judge their checks (exit 1 on any failed check)"
        ),
    )
    add_trial_arguments(paper_parser, seed=paper.SEED)
    add_jobs_argument(paper_parser)
    paper_parser.set_defaults(func=cmd_paper)

    engines_parser = sub.add_parser(
        "engines", help="list engines and calibrated cost models"
    )
    engines_parser.set_defaults(func=cmd_engines)

    chaos_parser = sub.add_parser(
        "chaos",
        help=(
            "seeded chaos soak: randomized faults over engines x recovery "
            "policies with invariant checks (exit 1 on any violation)"
        ),
    )
    add_grid_arguments(chaos_parser, ChaosConfig)
    add_detector_argument(chaos_parser)
    chaos_parser.add_argument(
        "--rounds", type=int, default=ChaosConfig.rounds,
        help=(
            "fault schedules per (engine, policy) cell "
            f"(default: {ChaosConfig.rounds})"
        ),
    )
    chaos_parser.add_argument(
        "--no-driver-faults", action="store_true",
        help=(
            "draw only SUT-side faults instead of also injecting "
            "generator crashes, driver queue loss and slow driver nodes"
        ),
    )
    chaos_parser.add_argument(
        "--gray", action="store_true",
        help=(
            "mix gray failures (flapping node, fail-slow ramp, "
            "asymmetric partition) into the random schedules"
        ),
    )
    chaos_parser.set_defaults(func=cmd_chaos)

    recover_parser = sub.add_parser(
        "recover",
        help=(
            "recovery-efficiency scorecard: one deterministic fault per "
            "(engine x reschedule policy x kind) cell plus the "
            "checkpoint-interval sensitivity frontier per engine (exit 1 "
            "on any invariant violation)"
        ),
    )
    add_grid_arguments(recover_parser, RecoverConfig)
    add_detector_argument(recover_parser)
    recover_parser.add_argument(
        "--policies", nargs="+",
        choices=list(recoverybench.POLICY_NAMES),
        default=list(RecoverConfig.policies),
        help="reschedule policies to compare (default: all)",
    )
    recover_parser.add_argument(
        "--kinds", nargs="+",
        choices=list(recoverybench.FAULT_KINDS),
        default=list(RecoverConfig.kinds),
        help="SUT fault kinds to benchmark (default: all)",
    )
    intervals = RecoverConfig.intervals
    recover_parser.add_argument(
        "--intervals", nargs="+", type=float,
        default=list(intervals), metavar="SECONDS",
        help=(
            "checkpoint intervals swept per engine for the "
            "recovery-time vs. overhead frontier (default: log grid "
            f"{intervals[0]:g}..{intervals[-1]:g})"
        ),
    )
    recover_parser.add_argument(
        "--no-frontier", action="store_true",
        help="skip the checkpoint-interval sweep (grid cells only)",
    )
    recover_parser.set_defaults(func=cmd_recover)

    autoscale_parser = sub.add_parser(
        "autoscale",
        help=(
            "cross-engine elasticity scorecard: engines x scaling "
            "policies x diurnal/flash-crowd workloads (exit 1 on any "
            "invariant violation)"
        ),
    )
    add_grid_arguments(autoscale_parser, ElasticityConfig)
    autoscale_parser.add_argument(
        "--policies", nargs="+", choices=list(POLICY_NAMES),
        default=list(ElasticityConfig.policies),
        help="scaling policies to compare (default: all)",
    )
    add_autoscale_bounds(autoscale_parser, ElasticityConfig)
    autoscale_parser.set_defaults(func=cmd_autoscale)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Bad argument *values* (spec validation, journal fingerprint
        # mismatch, flag combinations) are usage errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
