"""Command-line interface: ``python -m repro <command>``.

Commands mirror the framework's workflow:

- ``run``     -- one trial: engine, query, workers, rate, duration.
- ``search``  -- sustainable-throughput search for a deployment.
- ``sweep``   -- a Table-I style sweep over engines and cluster sizes.
- ``engines`` -- list registered engines and their cost models.
- ``chaos``   -- seeded chaos soak: randomized fault schedules over
  engines x recovery policies with invariant checks and a scorecard.
- ``autoscale`` -- cross-engine elasticity scorecard: engines x scaling
  policies x diurnal/flash-crowd workloads, with time-to-resustain
  metrology and node-second cost accounting.
- ``recover`` -- recovery-efficiency scorecard: one deterministic fault
  per (engine x reschedule policy x fault kind) cell with detection /
  restore / catch-up decomposition and node-second recovery cost, plus
  the checkpoint-interval sensitivity frontier per engine.

Elastic autoscaling (PR 7) rides on ``run`` via ``--autoscale POLICY``
(with ``--min-nodes`` / ``--max-nodes`` / ``--cooldown``): a policy
watches the obs-registry signals and scales the simulated cluster
out/in mid-trial, paying each engine's rescale semantics.

Fault benchmarking rides on ``run`` and ``search`` via repeatable
``--fault KIND@T[:DURATION]`` options (e.g. ``--fault crash@60
--fault partition@100:10``) plus ``--checkpoint-interval`` and
``--guarantee``; with faults, ``search`` switches to the
sustainable-under-faults mode (recovery within ``--max-recovery``).

Self-healing knobs (PR 4) ride on every trial-running command:
``--standby N`` provisions hot standby nodes, ``--reschedule`` picks
the migration policy for dead operator slots, ``--shed`` enables
bounded-latency load shedding at the sources.  ``search --online``
switches to the single-trial AIMD probe.

Measurement-plane hardening (PR 5): ``--clock-skew`` models per-node
clock error on the measurement plane, ``--driver-fault`` injects
faults into the benchmark harness itself, ``--trial-timeout`` /
``--trial-stall`` arm the trial watchdog (with ``--retries`` and
``--retry-backoff``), and ``--journal PATH`` / ``--resume`` checkpoint
``search`` and ``chaos`` sweeps for byte-identical resume.

Parallel trial scheduling: ``sweep --jobs N`` fans whole sweep cells
(one full search each) over N worker processes, and ``chaos
--workers N`` parallelises the chaos grid (``--sut-workers`` carries
the simulated cluster size).  A single ``search`` runs its probes one
after another: each rate follows from the verdicts before it.
Parallel runs are byte-identical to serial ones; with ``--journal``
each worker checkpoints to its own shard, merged on completion or on
``--resume``.

Every command prints paper-style output and can export JSON via
``--output``.  Bad argument *values* (not just syntax) exit 2 with a
one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import repro.engines.ext  # noqa: F401  (registers heron/samza in ENGINES)
from repro.analysis.export import (
    online_search_to_dict,
    search_to_dict,
    trial_to_dict,
    write_json,
)
from repro.autoscale.policy import POLICY_NAMES, AutoscaleSpec
from repro.core.experiment import ExperimentSpec, runner_for
from repro.core.generator import GeneratorConfig
from repro.core.report import throughput_table
from repro.core.sustainable import (
    SearchTrial,
    aimed_cell,
    find_sustainable_throughput,
    find_sustainable_throughput_online,
    find_sustainable_throughput_under_faults,
    search_fingerprint,
    sweep_sustainable_rates,
)
from repro.engines import ENGINES, engine_class
from repro.detect.plane import DETECTOR_KINDS, detector_spec
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
from repro.metrology import TrialJournal, WatchdogSpec
from repro.sim.clock import ClockSkewSpec
from repro.engines.calibration import registered_models
from repro.obs.context import ObsSpec
from repro.recovery.degradation import (
    SHED_NEWEST,
    SHED_OLDEST,
    DegradationPolicy,
)
from repro.recovery.reschedule import (
    MODE_NONE,
    MODE_SPREAD,
    MODE_STANDBY,
    ReschedulePolicy,
)
from repro.workloads.keys import NormalKeys, SingleKey, UniformKeys, ZipfKeys
from repro.workloads.queries import (
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


FAULT_KINDS = {
    "crash": lambda at, dur: NodeCrash(at_s=at),
    "restart": lambda at, dur: ProcessRestart(at_s=at),
    "slow": lambda at, dur: SlowNode(at_s=at, duration_s=dur or 30.0),
    "partition": lambda at, dur: NetworkPartition(at_s=at, duration_s=dur or 10.0),
    "disconnect": lambda at, dur: QueueDisconnect(at_s=at, duration_s=dur or 10.0),
    # Gray failures (PR 10): node 0 by default; target other nodes by
    # constructing the event in Python (see examples/gray_failure.py).
    "flap": lambda at, dur: FlappingNode(at_s=at, duration_s=dur or 20.0),
    "degrade": lambda at, dur: DegradingNode(at_s=at, duration_s=dur or 20.0),
    "asympart": lambda at, dur: AsymmetricPartition(at_s=at, duration_s=dur or 10.0),
}


def parse_fault(text: str):
    """Parse one ``--fault`` value: ``KIND@T`` or ``KIND@T:DURATION``."""
    try:
        kind, _, when = text.partition("@")
        if not when:
            raise ValueError("missing '@TIME'")
        when, _, duration = when.partition(":")
        builder = FAULT_KINDS.get(kind)
        if builder is None:
            raise ValueError(
                f"unknown kind {kind!r} (choose from "
                f"{', '.join(sorted(FAULT_KINDS))})"
            )
        return builder(float(when), float(duration) if duration else None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid fault {text!r}: {exc} "
            "(examples: crash@60, slow@30:20, partition@100:10, "
            "flap@40:20, degrade@40:20, asympart@40:10)"
        ) from None


DRIVER_FAULT_KINDS = {
    "gencrash": lambda at, dur: GeneratorCrash(at_s=at),
    "queueloss": lambda at, dur: DriverQueueLoss(at_s=at),
    "driverslow": lambda at, dur: DriverNodeSlow(at_s=at, duration_s=dur or 10.0),
}


def parse_driver_fault(text: str):
    """Parse one ``--driver-fault`` value: ``KIND@T[:DURATION]``."""
    try:
        kind, _, when = text.partition("@")
        if not when:
            raise ValueError("missing '@TIME'")
        when, _, duration = when.partition(":")
        builder = DRIVER_FAULT_KINDS.get(kind)
        if builder is None:
            raise ValueError(
                f"unknown kind {kind!r} (choose from "
                f"{', '.join(sorted(DRIVER_FAULT_KINDS))})"
            )
        return builder(float(when), float(duration) if duration else None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid driver fault {text!r}: {exc} "
            "(examples: gencrash@60, queueloss@70, driverslow@30:20)"
        ) from None


def parse_clock_skew(text: str) -> ClockSkewSpec:
    """Parse ``--clock-skew``: ``OFFSET_MS[:DRIFT_PPM[:RESID_MS[:INT_S]]]``."""
    try:
        parts = text.split(":")
        if len(parts) > 4:
            raise ValueError("too many fields")
        offset_ms = float(parts[0])
        drift_ppm = float(parts[1]) if len(parts) > 1 else 20.0
        residual_ms = float(parts[2]) if len(parts) > 2 else 0.5
        interval_s = float(parts[3]) if len(parts) > 3 else 30.0
        return ClockSkewSpec(
            offset_s=offset_ms / 1e3,
            drift_ppm=drift_ppm,
            ntp_residual_s=residual_ms / 1e3,
            ntp_interval_s=interval_s,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid clock skew {text!r}: {exc} "
            "(format: OFFSET_MS[:DRIFT_PPM[:RESIDUAL_MS[:INTERVAL_S]]], "
            "example: 5:20:0.5:30)"
        ) from None


def build_faults(args: argparse.Namespace):
    events = list(getattr(args, "fault", None) or [])
    events.extend(getattr(args, "driver_fault", None) or [])
    if not events:
        return None
    return FaultSchedule(events=tuple(events))


def build_clock_skew(args: argparse.Namespace):
    skew = getattr(args, "clock_skew", None)
    if skew is None:
        if getattr(args, "uncorrected_clocks", False):
            raise ValueError(
                "--uncorrected-clocks requires --clock-skew "
                "(there is no clock model to leave uncorrected)"
            )
        return None
    if getattr(args, "uncorrected_clocks", False):
        return ClockSkewSpec(
            offset_s=skew.offset_s,
            drift_ppm=skew.drift_ppm,
            ntp_residual_s=skew.ntp_residual_s,
            ntp_interval_s=skew.ntp_interval_s,
            corrected=False,
        )
    return skew


def build_watchdog(args: argparse.Namespace) -> Optional[WatchdogSpec]:
    timeout = getattr(args, "trial_timeout", None)
    stall = getattr(args, "trial_stall", None)
    if timeout is None and stall is None:
        return None
    return WatchdogSpec(
        timeout_s=timeout,
        stall_s=stall,
        max_attempts=1 + (getattr(args, "retries", None) or 0),
        backoff_base_s=getattr(args, "retry_backoff", None) or 0.1,
    )


def build_runner(args: argparse.Namespace):
    """The trial runner ``run`` and ``search`` use: plain, or
    watchdog-wrapped."""
    return runner_for(build_watchdog(args))


def build_checkpoint(args: argparse.Namespace):
    interval = getattr(args, "checkpoint_interval", None)
    guarantee = getattr(args, "guarantee", None)
    if interval is None and guarantee is None:
        return None
    kwargs = {}
    if interval is not None:
        kwargs["interval_s"] = interval
    if guarantee is not None:
        kwargs["guarantee"] = DeliveryGuarantee.parse(guarantee)
    return CheckpointSpec(**kwargs)


def build_observability(args: argparse.Namespace):
    sample_rate = getattr(args, "trace_sample_rate", 0) or 0
    interval = getattr(args, "metrics_interval", None)
    if sample_rate <= 0 and interval is None:
        return None
    kwargs = {"trace_sample_rate": int(sample_rate)}
    if interval is not None:
        kwargs["metrics_interval_s"] = interval
    return ObsSpec(**kwargs)


def build_query(args: argparse.Namespace):
    window = WindowSpec(args.window_size, args.window_slide)
    keys = KEY_DISTRIBUTIONS[args.keys](args.num_keys)
    if args.query == "aggregation":
        return WindowedAggregationQuery(window=window, keys=keys)
    return WindowedJoinQuery(window=window, keys=keys)


def build_reschedule(args: argparse.Namespace):
    mode = getattr(args, "reschedule", None)
    standby = getattr(args, "standby", 0) or 0
    if mode is None:
        return None  # engine default: standby mode iff standbys exist
    return ReschedulePolicy(
        standby_nodes=standby,
        mode={"none": MODE_NONE, "spread": MODE_SPREAD, "standby": MODE_STANDBY}[
            mode
        ],
    )


def build_degradation(args: argparse.Namespace):
    shed = getattr(args, "shed", None)
    if shed in (None, "none"):
        return None  # engine default: inert policy (no shedding)
    if shed == "recommended":
        return engine_class(args.engine).recommended_degradation
    return DegradationPolicy(
        shed=SHED_OLDEST if shed == "oldest" else SHED_NEWEST
    )


def build_autoscale(args: argparse.Namespace) -> Optional[AutoscaleSpec]:
    policy = getattr(args, "autoscale", None)
    if policy is None:
        for flag in ("min_nodes", "max_nodes", "cooldown"):
            if getattr(args, flag, None) is not None:
                raise ValueError(
                    f"--{flag.replace('_', '-')} requires --autoscale POLICY"
                )
        return None
    kwargs = {"policy": policy}
    if getattr(args, "min_nodes", None) is not None:
        kwargs["min_workers"] = args.min_nodes
    if getattr(args, "max_nodes", None) is not None:
        kwargs["max_workers"] = args.max_nodes
    if getattr(args, "cooldown", None) is not None:
        kwargs["cooldown_s"] = args.cooldown
    return AutoscaleSpec(**kwargs)


def build_spec(args: argparse.Namespace, rate: Optional[float] = None):
    return ExperimentSpec(
        engine=args.engine,
        query=build_query(args),
        workers=args.workers,
        profile=rate if rate is not None else args.rate,
        duration_s=args.duration,
        seed=args.seed,
        generator=GeneratorConfig(instances=args.generators),
        monitor_resources=not args.no_resources,
        faults=build_faults(args),
        checkpoint=build_checkpoint(args),
        observability=build_observability(args),
        standby=getattr(args, "standby", 0) or 0,
        reschedule=build_reschedule(args),
        degradation=build_degradation(args),
        clock_skew=build_clock_skew(args),
        autoscale=build_autoscale(args),
        detector=detector_spec(getattr(args, "detector", None)),
    )


def add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=sorted(ENGINES), default="flink",
        help="system under test (default: flink)",
    )
    parser.add_argument(
        "--query", choices=["aggregation", "join"], default="aggregation",
        help="paper query template (default: aggregation)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker-node count; the paper sweeps 2/4/8 (default: 2)",
    )
    parser.add_argument(
        "--window-size", type=float, default=8.0,
        help="window size in seconds (default: 8)",
    )
    parser.add_argument(
        "--window-slide", type=float, default=4.0,
        help="window slide in seconds (default: 4)",
    )
    parser.add_argument(
        "--keys", choices=sorted(KEY_DISTRIBUTIONS), default="normal",
        help="key distribution (default: normal, as in the paper)",
    )
    parser.add_argument(
        "--num-keys", type=int, default=64,
        help="key-space size (default: 64)",
    )
    parser.add_argument(
        "--duration", type=float, default=160.0,
        help="simulated seconds per trial, 25%% warmup (default: 160)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--generators", type=int, default=2,
        help="parallel generator instances (default: 2)",
    )
    parser.add_argument(
        "--no-resources", action="store_true",
        help="skip CPU/network sampling (slightly faster)",
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="write the result as JSON to this path",
    )
    parser.add_argument(
        "--fault", action="append", type=parse_fault, default=None,
        metavar="KIND@T[:DUR]",
        help=(
            "inject a fault at T seconds (repeatable): crash@60, "
            "restart@90, slow@30:20, partition@100:10, disconnect@50:10"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=None,
        help="checkpoint interval in seconds (default: model default 10)",
    )
    parser.add_argument(
        "--guarantee", default=None,
        choices=[g.value for g in DeliveryGuarantee],
        help="override the engine's delivery guarantee",
    )
    parser.add_argument(
        "--trace-sample-rate", type=int, default=0, metavar="N",
        help=(
            "trace every N-th generated cohort through the pipeline "
            "(0 disables tracing; try 1000)"
        ),
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=None, metavar="SECONDS",
        help=(
            "sample the metrics registry every this many simulated "
            "seconds (enables the registry; default when enabled: 1.0)"
        ),
    )
    parser.add_argument(
        "--standby", type=int, default=0, metavar="N",
        help=(
            "hot standby nodes: a crash promotes a standby (paying the "
            "state-migration cost) instead of losing capacity (default: 0)"
        ),
    )
    parser.add_argument(
        "--reschedule", choices=["none", "spread", "standby"], default=None,
        help=(
            "policy for a dead operator slot: none = capacity lost (legacy), "
            "spread = migrate over survivors, standby = promote from the "
            "pool (default: standby when --standby > 0, else none)"
        ),
    )
    parser.add_argument(
        "--shed", choices=["none", "recommended", "oldest", "newest"],
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
        "--driver-fault", action="append", type=parse_driver_fault,
        default=None, metavar="KIND@T[:DUR]",
        help=(
            "inject a fault into the benchmark harness itself "
            "(repeatable): gencrash@60, queueloss@70, driverslow@30:20"
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
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help=(
            "extra attempts after a watchdog-aborted trial, with capped "
            "exponential backoff (default: 2)"
        ),
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.1, metavar="SECONDS",
        help="base backoff before the first retry (default: 0.1)",
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
    parser.add_argument(
        "--min-nodes", type=int, default=None, metavar="N",
        help="with --autoscale: scale-in floor (default: 1)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="with --autoscale: scale-out ceiling (default: 16)",
    )
    parser.add_argument(
        "--cooldown", type=float, default=None, metavar="SECONDS",
        help=(
            "with --autoscale: minimum simulated time between scaling "
            "decisions (default: 20)"
        ),
    )


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


def add_grid_arguments(
    parser: argparse.ArgumentParser,
    duration: float,
    sut_workers: int,
    rate: Optional[float] = None,
) -> None:
    """The flags ``chaos`` / ``recover`` / ``autoscale`` share, declared
    once; the arguments are the per-command defaults (``rate=None``:
    the command takes no ``--rate``)."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engines", nargs="+", choices=sorted(ENGINES),
        default=sorted(ENGINES),
    )
    parser.add_argument(
        "--duration", type=float, default=duration,
        help=f"simulated seconds per trial (default: {duration:g})",
    )
    if rate is not None:
        parser.add_argument(
            "--rate", type=float, default=rate,
            help=f"offered load per trial in events/s (default: {rate:g})",
        )
    parser.add_argument(
        "--sut-workers", type=int, default=sut_workers,
        help=(
            "simulated cluster size each trial starts with "
            f"(default: {sut_workers})"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help=(
            "scheduler parallelism: fan trials over N worker processes "
            "(report stays byte-identical to --workers 1)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print a status line per trial",
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="write the report as JSON to this path",
    )
    parser.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="checkpoint each completed trial digest to this JSON journal",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "replay completed trials from --journal instead of "
            "re-running them (byte-identical final report)"
        ),
    )


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
        path = write_json(trial_to_dict(result, include_series=True), args.output)
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
    run = build_runner(args)
    if args.journal and (args.online or spec.faults is not None):
        raise ValueError(
            "--journal is only supported for the bisection search "
            "(not --online or --fault searches)"
        )
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal PATH")
    if args.online:
        online = find_sustainable_throughput_online(
            spec, high_rate=args.high_rate
        )
        for decision in online.decisions:
            print(
                f"  t={decision.at_s:6.1f}s rate={decision.rate / 1e6:7.3f} "
                f"M/s wait={decision.oldest_wait_s:5.2f}s "
                f"{decision.action}"
            )
        rate = online.sustainable_rate
        shown = f"{rate / 1e6:.3f} M/s" if rate == rate else "not found"
        print(
            f"sustainable throughput (online AIMD): {shown} "
            f"({online.decision_count} control decisions, 1 trial)"
        )
        if args.output:
            path = write_json(online_search_to_dict(online), args.output)
            print(f"wrote {path}")
        return 0
    # One set of search arguments for the search, the journal's identity
    # and the aim line; everything else is those functions' defaults.
    settings = dict(high_rate=args.high_rate, rel_tol=args.tolerance)
    if spec.faults is not None:
        search = find_sustainable_throughput_under_faults(
            spec,
            **settings,
            max_recovery_time_s=args.max_recovery,
            run=run,
        )
    else:
        journal = None
        if args.journal:
            journal = TrialJournal(
                args.journal,
                fingerprint=search_fingerprint(spec, **settings),
                resume=args.resume,
            )
        search = find_sustainable_throughput(
            spec,
            **settings,
            run=run,
            journal=journal,
        )
        if journal is not None:
            print(
                f"  journal: {journal.hits} replayed, "
                f"{journal.misses} run live"
            )
    aim = aimed_cell(search, **settings)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cells = []
    for engine in args.engines:
        for workers in args.worker_counts:
            sweep_args = argparse.Namespace(**vars(args))
            sweep_args.engine = engine
            sweep_args.workers = workers
            spec = build_spec(sweep_args, rate=args.high_rate)
            cells.append(((engine, workers), spec))
    rates = sweep_sustainable_rates(
        cells,
        high_rate=args.high_rate,
        rel_tol=args.tolerance,
        workers=args.jobs,
        watchdog=build_watchdog(args),
    )
    measured = {}
    for (engine, workers), _spec in cells:
        measured[(engine, workers)] = rates[(engine, workers)]
        print(
            f"  {engine}/{workers}w: "
            f"{rates[(engine, workers)] / 1e6:.3f} M/s"
        )
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


def run_grid_command(
    args: argparse.Namespace, config, fingerprint, run
) -> int:
    """The body ``chaos`` / ``recover`` / ``autoscale`` share: validate
    the shared flags, open the journal, run the grid, print the report.
    Every flag is checked *before* the journal is opened -- a fresh
    :class:`TrialJournal` clears stale worker shards, which a usage
    error must never do."""
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal PATH")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    journal = None
    if args.journal:
        journal = TrialJournal(
            args.journal, fingerprint=fingerprint(config), resume=args.resume
        )
    report = run(
        config,
        progress=print if args.verbose else None,
        journal=journal,
        workers=args.workers,
    )
    if journal is not None:
        print(
            f"journal: {journal.hits} replayed, {journal.misses} run live"
        )
    print(report.render())
    if args.output:
        path = write_json(report.to_dict(), args.output)
        print(f"wrote {path}")
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.recovery.chaos import ChaosConfig, chaos_fingerprint, run_chaos

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
    from repro.recoverybench import (
        RecoverConfig,
        recover_fingerprint,
        run_recovery_bench,
    )

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
    from repro.autoscale.scorecard import (
        ElasticityConfig,
        elasticity_fingerprint,
        run_elasticity,
    )

    config = ElasticityConfig(
        seed=args.seed,
        engines=tuple(args.engines),
        policies=tuple(args.policies),
        duration_s=args.duration,
        workers=args.sut_workers,
        min_workers=args.min_nodes if args.min_nodes is not None else 1,
        max_workers=args.max_nodes if args.max_nodes is not None else 6,
        cooldown_s=args.cooldown if args.cooldown is not None else 12.0,
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
    add_common_arguments(run_parser)
    run_parser.add_argument(
        "--rate", type=float, default=0.3e6,
        help="offered load in events/s (default: 300000)",
    )
    run_parser.set_defaults(func=cmd_run)

    search_parser = sub.add_parser(
        "search", help="find the sustainable throughput (Definition 5)"
    )
    add_common_arguments(search_parser)
    search_parser.add_argument(
        "--high-rate", type=float, default=1.6e6,
        help="probe ceiling in events/s (default: 1.6e6)",
    )
    search_parser.add_argument("--tolerance", type=float, default=0.05)
    search_parser.add_argument(
        "--max-recovery", type=float, default=60.0,
        help=(
            "with --fault: seconds within which every fault must recover "
            "for a rate to count as sustainable (default: 60)"
        ),
    )
    search_parser.add_argument(
        "--online", action="store_true",
        help=(
            "probe in a single trial with the AIMD rate controller "
            "instead of one trial per bisection step"
        ),
    )
    search_parser.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help=(
            "checkpoint each completed probe to this JSON journal "
            "(bisection search only)"
        ),
    )
    search_parser.add_argument(
        "--resume", action="store_true",
        help=(
            "replay completed probes from --journal instead of "
            "re-running them (byte-identical final report)"
        ),
    )
    search_parser.set_defaults(func=cmd_search)

    sweep_parser = sub.add_parser(
        "sweep", help="Table-I style sweep over engines and cluster sizes"
    )
    add_common_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--engines", nargs="+", choices=sorted(ENGINES),
        default=sorted(ENGINES),
    )
    sweep_parser.add_argument(
        "--worker-counts", nargs="+", type=int, default=[2, 4, 8]
    )
    sweep_parser.add_argument("--high-rate", type=float, default=1.6e6)
    sweep_parser.add_argument("--tolerance", type=float, default=0.05)
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "fan sweep cells over N worker processes (results stay "
            "byte-identical to --jobs 1)"
        ),
    )
    sweep_parser.set_defaults(func=cmd_sweep)

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
    add_grid_arguments(
        chaos_parser, duration=60.0, sut_workers=2, rate=30_000.0
    )
    add_detector_argument(chaos_parser)
    chaos_parser.add_argument(
        "--rounds", type=int, default=3,
        help="fault schedules per (engine, policy) cell (default: 3)",
    )
    chaos_parser.add_argument(
        "--no-driver-faults", action="store_true",
        help=(
            "draw only SUT-side faults (legacy PR 4 mix) instead of "
            "also injecting generator crashes, driver queue loss and "
            "slow driver nodes"
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
    add_grid_arguments(
        recover_parser, duration=60.0, sut_workers=2, rate=30_000.0
    )
    add_detector_argument(recover_parser)
    recover_parser.add_argument(
        "--policies", nargs="+",
        choices=[MODE_NONE, MODE_SPREAD, MODE_STANDBY],
        default=[MODE_NONE, MODE_SPREAD, MODE_STANDBY],
        help="reschedule policies to compare (default: all three)",
    )
    recover_parser.add_argument(
        "--kinds", nargs="+",
        choices=["crash", "restart", "slow", "partition", "disconnect"],
        default=["crash", "restart", "slow", "partition", "disconnect"],
        help="SUT fault kinds to benchmark (default: all five)",
    )
    recover_parser.add_argument(
        "--intervals", nargs="+", type=float,
        default=[2.5, 5.0, 10.0, 20.0, 40.0], metavar="SECONDS",
        help=(
            "checkpoint intervals swept per engine for the "
            "recovery-time vs. overhead frontier (default: log grid "
            "2.5..40)"
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
    add_grid_arguments(autoscale_parser, duration=120.0, sut_workers=1)
    autoscale_parser.add_argument(
        "--policies", nargs="+", choices=list(POLICY_NAMES),
        default=list(POLICY_NAMES),
        help="scaling policies to compare (default: both)",
    )
    autoscale_parser.add_argument(
        "--min-nodes", type=int, default=None, metavar="N",
        help="scale-in floor (default: 1)",
    )
    autoscale_parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="scale-out ceiling (default: 6)",
    )
    autoscale_parser.add_argument(
        "--cooldown", type=float, default=None, metavar="SECONDS",
        help="minimum simulated time between decisions (default: 12)",
    )
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
