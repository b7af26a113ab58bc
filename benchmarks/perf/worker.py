"""One workload in one fresh interpreter.

``python3 -m benchmarks.perf`` starts this module as a subprocess (never
run it by hand: it expects the pinned environment the parent sets).  It
imports the program, builds the workload, runs the warm-up, and then
either stops (``--setup-only``: the parent is timing set-up), runs the
timed closed loop (``--trace 0``), or runs the traced loop
(``--trace 1``).  The last line of its standard output is one JSON
object for the parent.

Closed loop, one client: the next operation starts when the previous
one returns.  Operations run round-robin until ``--seconds`` have
passed and every operation has at least ``MIN_SAMPLES`` samples.

Times are reported best-of-samples, like ``timeit`` and this
repository's ``bench_engine_hotpath.py``: the program is deterministic,
so a slower sample is the shared machine's doing, not the program's.
Ten single samples of one operation on the 2-core sandbox spread
6-14 % around their median while their minima agree within 1 %.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy
import repro.cli  # noqa: F401  (what every CLI command pays for)

from benchmarks.perf import boundaries, workloads
from benchmarks.perf.tracing import Tracer, chrome_trace

MIN_SAMPLES = 2
RECONCILE_REL_TOL = 0.01
UNATTRIBUTED_LIMIT = 0.10


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has
    waited for (the scheduler joins its pool before returning)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Ledger:
    """Attempted / failed operations and digest agreement for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.paper_rel_errs: Dict[str, float] = {}

    def absorb(self, label: str, outcome: workloads.Outcome, how: str) -> None:
        digest = workloads.digest(outcome.stats)
        self.attempted += outcome.attempted
        self.failures.extend(f"{label}: {text}" for text in outcome.failures)
        first = self.digests.setdefault(label, digest)
        if digest != first:
            self.failures.append(
                f"{label}: sim_digest of a repeated {how} operation differs "
                f"({digest[:12]} != {first[:12]})"
            )
        if outcome.paper_rel_err is not None:
            self.paper_rel_errs[label] = outcome.paper_rel_err

    def paper_rel_err(self) -> Optional[float]:
        errs = self.paper_rel_errs.values()
        return statistics.fmean(errs) if errs else None

    def fields(self, workload: workloads.Workload) -> Dict[str, Any]:
        """The run's verdict for the result, after the last check: where
        the workload says so (the grid passes), every operation must
        have produced the same bytes."""
        if workload.identical and len(set(self.digests.values())) > 1:
            self.failures.append(
                f"{workload.name}: operations that must agree byte for byte "
                f"differ: { {k: v[:12] for k, v in self.digests.items()} }"
            )
        text = json.dumps(self.digests, sort_keys=True)
        return {
            "attempted": self.attempted,
            "failed": min(len(self.failures), self.attempted),
            "failures": self.failures,
            "sim_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "operation_digests": self.digests,
            "paper_rel_err": self.paper_rel_err(),
        }


def measure(run: Callable[[], Any]) -> Tuple[float, float, Any]:
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    outcome = run()
    wall = time.perf_counter() - start
    return wall, cpu_seconds() - cpu_start, outcome


def round_robin(operations, seconds: float, counts: Callable[[str], int]):
    """Yield operations in turn until the time is up and each has
    ``MIN_SAMPLES`` samples (``counts(label)`` says how many so far)."""
    deadline = time.perf_counter() + seconds
    while True:
        for operation in operations:
            yield operation
            if time.perf_counter() >= deadline and all(
                counts(op.label) >= MIN_SAMPLES for op in operations
            ):
                return


def best_iteration(samples: Dict[str, List[float]]) -> float:
    """One iteration at the machine's best: each operation's fastest
    sample, summed."""
    return sum(min(values) for values in samples.values())


def timed_loop(workload: workloads.Workload, seconds: float) -> Dict[str, Any]:
    ledger = Ledger()
    walls: Dict[str, List[float]] = {op.label: [] for op in workload.operations}
    cpus: Dict[str, List[float]] = {op.label: [] for op in workload.operations}
    first_iteration_rss = None
    for operation in round_robin(
        workload.operations, seconds, lambda label: len(walls[label])
    ):
        wall, cpu, outcome = measure(operation.run)
        walls[operation.label].append(wall)
        cpus[operation.label].append(cpu)
        ledger.absorb(operation.label, outcome, "timed")
        if first_iteration_rss is None and all(walls.values()):
            first_iteration_rss = peak_rss_mb()
    return {
        "metrics": {
            "wall_s": best_iteration(walls),
            "cpu_s": best_iteration(cpus),
            "peak_rss_mb": first_iteration_rss,
        },
        "peak_rss_end_mb": peak_rss_mb(),
        "quartiles": {
            "wall_s": summed_quartiles(walls),
            "cpu_s": summed_quartiles(cpus),
        },
        "samples": {label: len(values) for label, values in walls.items()},
        "operations": {
            label: {"wall_s": walls[label], "cpu_s": cpus[label]}
            for label in walls
        },
        **ledger.fields(workload),
    }


def summed_quartiles(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Quartiles of one iteration, as the sum over its operations."""
    per_label = [quartiles(values) for values in samples.values()]
    return {
        "q1": sum(q[0] for q in per_label),
        "median": sum(q[1] for q in per_label),
        "q3": sum(q[2] for q in per_label),
        "min": sum(min(values) for values in samples.values()),
        "max": sum(max(values) for values in samples.values()),
    }


def traced_loop(
    workload: workloads.Workload,
    seconds: float,
    spans_out: Optional[pathlib.Path],
) -> Dict[str, Any]:
    """Alternate each operation untraced and traced, so machine drift
    hits both sides of ``trace.overhead_frac`` alike."""
    tracer = Tracer(boundaries.classify)
    boundaries.install(tracer)
    ledger = Ledger()
    labels = [op.label for op in workload.operations]
    plain: Dict[str, List[float]] = {label: [] for label in labels}
    traced: Dict[str, List[float]] = {label: [] for label in labels}
    taken: Dict[str, List[Dict[str, Any]]] = {label: [] for label in labels}
    for operation in round_robin(
        workload.operations,
        seconds,
        lambda label: len(plain[label]) + len(traced[label]),
    ):
        label = operation.label
        wall, _, outcome = measure(operation.run)
        plain[label].append(wall)
        ledger.absorb(label, outcome, "untraced")
        tracer.keep_raw = spans_out is not None and not traced[label]
        with tracer:
            wall, _, outcome = measure(operation.run)
        traced[label].append(wall)
        ledger.absorb(label, outcome, "traced")
        part = tracer.take()
        taken[label].append(part)
        check_reconciles(label, wall, part, ledger)
    for owner, attr, original in tracer.patched():
        if vars(owner)[attr] is not original:
            ledger.failures.append(f"{owner!r}.{attr} was not restored")
    if spans_out is not None:
        spans_out.write_text(json.dumps(chrome_trace(tracer.export())))

    # Layers are read off each operation's fastest traced sample, whole:
    # one sample's self times add up to that sample's wall time.
    merged = boundaries.merge(
        taken[label][traced[label].index(min(traced[label]))]
        for label in labels
    )
    metrics = boundaries.layer_metrics(merged)
    traced_wall = best_iteration(traced)
    plain_wall = best_iteration(plain)
    # What no declared layer covers: callbacks of undeclared owners and
    # everything outside the root spans (the benchmark's own digesting
    # and temp-directory handling).
    metrics["trace.unattributed_s"] = traced_wall - sum(
        metrics[name] for name in boundaries.ATTRIBUTED
    )
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    for names in workloads.LABELS.values():
        for label in names:
            metrics[f"trial.wall_s.{label}"] = (
                min(traced[label]) if label in traced else 0.0
            )
    # Pool efficiency is useful work over capacity, so it is taken from
    # the untraced passes: the wrappers slow the in-process serial pass
    # and the forked workers differently.
    serial = min(plain.get("grid_serial", [0.0]))
    pooled = min(plain.get("grid_w2", [0.0]))
    metrics["sched.serial_wall_s"] = serial
    metrics["sched.w2_wall_s"] = pooled
    metrics["sched.w2_efficiency"] = serial / (2.0 * pooled) if pooled else 0.0
    metrics["core.sustainable.paper_rel_err"] = ledger.paper_rel_err() or 0.0
    return {
        "metrics": metrics,
        "samples": {label: len(values) for label, values in traced.items()},
        "operations": {
            label: {"untraced_wall_s": plain[label], "traced_wall_s": traced[label]}
            for label in labels
        },
        **ledger.fields(workload),
    }


def check_reconciles(
    label: str, wall: float, part: Dict[str, Any], ledger: Ledger
) -> None:
    """Self times must add up to the root spans, and the root spans
    must cover the operation's stopwatch time."""
    total = sum(part["self_s"].values())
    if abs(total - part["root_s"]) > RECONCILE_REL_TOL * part["root_s"]:
        ledger.failures.append(
            f"{label}: self times sum to {total:.6f}s, "
            f"root spans to {part['root_s']:.6f}s"
        )
    unattributed = wall - total + part["self_s"].get(boundaries.OTHER, 0.0)
    if unattributed > UNATTRIBUTED_LIMIT * wall:
        ledger.failures.append(
            f"{label}: {unattributed:.4f}s of {wall:.4f}s is unattributed"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=pathlib.Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=pathlib.Path)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.scratch)
    warm = workload.warmup()
    if warm.failures:
        print(f"warm-up failed: {warm.failures}", file=sys.stderr)
        return 1
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_loop(workload, args.seconds, args.spans_out)
    else:
        result = timed_loop(workload, args.seconds)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
