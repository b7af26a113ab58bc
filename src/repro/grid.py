"""The grid harness: what ``chaos`` / ``autoscale`` / ``recover`` share.

Each of the three scorecard harnesses declares a grid of independent
trial *cells* (its own axes, its own trial spec, its own digest and
scorecard fold) and hands the rest to this module: the JSON/rounding
vocabulary, the per-trial invariant checker, axis validation, the
fan-out through :class:`~repro.sched.TrialScheduler`, and the report
surface (sorted ``violations``, ``ok``, PASS/FAIL footer).

Nothing here knows which harness is calling -- differences arrive as
data (cells, bounds) or callables (``describe``).

**Determinism contract** (stated once, for all three):

- a cell task returns a JSON-safe *digest*; reports absorb digests,
  never raw results, so a journal-replayed cell aggregates bit for bit
  like a live one;
- digests are absorbed in *declared cell order* (float accumulation is
  order-sensitive; completion order must never leak into a report);
- a harness's journal fingerprint covers its whole config and nothing
  else -- scheduler parallelism is not part of an experiment's
  identity, so serial, ``--workers N`` and resumed runs of one config
  are interchangeable and byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.driver import TrialResult
from repro.engines import engine_class
from repro.metrology.journal import TrialJournal
from repro.sched.pool import TrialScheduler, TrialTask

# -- JSON / rounding vocabulary ---------------------------------------------


def round6(value: float) -> Optional[float]:
    """JSON-safe 6-significant-digit rounding (None for NaN/inf)."""
    if value != value or value in (float("inf"), float("-inf")):
        return None
    if value == 0.0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    return round(value, -magnitude + 5)


def clean(value: float) -> Optional[float]:
    """NaN -> None (JSON-safe, reversed by :func:`nan` on absorb)."""
    return None if value != value else float(value)


def nan(value: Optional[float]) -> float:
    return float("nan") if value is None else float(value)


def canonical_json(payload: Dict[str, object]) -> str:
    """The one serialisation reports are compared by, byte for byte."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- what every grid trial shares -------------------------------------------

#: Load-generator instances of every grid trial.
GENERATOR_INSTANCES = 2

#: Queue backlog age (s) tolerated at the end of a *surviving* grid
#: trial -- the bounded post-recovery latency invariant.
LATENCY_BOUND_S = 20.0

# -- invariants -------------------------------------------------------------

#: Ledger imbalance tolerated, relative to the trial's total weight
#: (float accumulation over ~1e3 ticks).
LEDGER_REL_TOL = 1e-6

#: Delivery guarantee -> (loses nothing, duplicates nothing).
_GUARANTEE_RULES = {
    "exactly-once": (True, True),
    "at-least-once": (True, False),
    "at-most-once": (False, True),
}


def check_invariants(
    result: TrialResult, label: str, *, workers: int
) -> List[str]:
    """The invariants every grid trial must satisfy, failed or not;
    returns violation strings.  ``workers`` is the largest cluster the
    trial could have had (the structural bound on a migration cascade);
    a *surviving* trial may end with at most :data:`LATENCY_BOUND_S` of
    queue backlog."""
    violations: List[str] = []
    d = result.diagnostics
    scale = max(1.0, d.get("conservation.ingested", 0.0))
    tol = LEDGER_REL_TOL * scale

    def balance(name: str, lhs: float, rhs: float) -> None:
        if abs(lhs - rhs) > tol:
            violations.append(
                f"{label}: {name} ledger imbalance "
                f"({lhs:.6f} != {rhs:.6f}, tol {tol:.2e})"
            )

    if "conservation.staged" in d:
        balance(
            "ingest",
            d["conservation.ingested"],
            d["conservation.staged"]
            + d["conservation.admitted"]
            + d["conservation.dropped"],
        )
        balance(
            "window",
            d["conservation.admitted"],
            d["conservation.closed"]
            + d["conservation.stored"]
            + d["conservation.lost"],
        )
    driver_scale = max(1.0, d.get("driver.pushed_weight", 0.0))
    if abs(
        d.get("driver.pushed_weight", 0.0)
        - d.get("driver.pulled_weight", 0.0)
        - d.get("driver.queued_weight", 0.0)
        - d.get("driver.shed_weight", 0.0)
        - d.get("driver.lost_weight", 0.0)
    ) > LEDGER_REL_TOL * driver_scale:
        violations.append(
            f"{label}: driver ledger imbalance "
            "(pushed != pulled + queued + shed + lost)"
        )
    guarantee = engine_class(result.engine).default_guarantee.value
    no_loss, no_dup = _GUARANTEE_RULES[guarantee]
    if no_loss and d.get("lost_weight", 0.0) > tol:
        violations.append(
            f"{label}: {guarantee} engine lost "
            f"{d['lost_weight']:.3f} weight"
        )
    if no_dup and d.get("duplicated_weight", 0.0) > tol:
        violations.append(
            f"{label}: {guarantee} engine duplicated "
            f"{d['duplicated_weight']:.3f} weight"
        )
    if not result.failed:
        end_delay = result.throughput.queue_delay_at_end()
        if end_delay > LATENCY_BOUND_S:
            violations.append(
                f"{label}: post-recovery backlog unbounded -- oldest "
                f"queued event is {end_delay:.1f}s old at trial end "
                f"(> {LATENCY_BOUND_S:g}s)"
            )
        if result.failure_time == result.failure_time:
            violations.append(
                f"{label}: surviving trial carries a failure_time"
            )
    elif result.failure_time != result.failure_time:
        violations.append(f"{label}: failed trial lost its failure_time")
    detection = getattr(result, "detection", None)
    if detection is not None:
        if detection.calm and detection.false_positives > 0:
            violations.append(
                f"{label}: {detection.false_positives} false positive(s) "
                f"under a calm schedule -- the {detection.detector} "
                f"detector convicted a healthy node with no fault injected"
            )
        if detection.cascade_depth_max > workers:
            violations.append(
                f"{label}: migration cascade depth "
                f"{detection.cascade_depth_max} exceeds the cluster size "
                f"({workers}) -- suspect migrations are chaining "
                f"past the structural bound"
            )
    return violations


# -- declaring and running a grid -------------------------------------------


def require_axis(
    name: str, values: Sequence, allowed: Optional[Sequence] = None
) -> None:
    """Validate one grid axis: non-empty, every value among ``allowed``."""
    if not values:
        raise ValueError(f"need at least one {name}")
    for value in values:
        if allowed is not None and value not in allowed:
            raise ValueError(f"unknown {name} {value!r}; pick from {allowed}")


#: One grid cell: ``(label, fn, payload)``.  ``fn`` is a module-level
#: function (pickled by reference) mapping ``payload`` to the cell's
#: digest; ``label`` keys the cell in journals and progress lines.
Cell = Tuple[str, Callable[[Any], Dict[str, object]], Any]


def run_grid(
    cells: Sequence[Cell],
    describe: Callable[[Dict[str, object], str], str],
    progress: Optional[Callable[[str], None]] = None,
    journal: Optional[TrialJournal] = None,
    workers: int = 1,
) -> List[Dict[str, object]]:
    """Run every cell -- replayed from ``journal`` where it has one,
    live on ``workers`` scheduler processes otherwise -- and return the
    digests in declared cell order.

    ``progress`` (if given) receives ``"<label>: <describe(digest,
    replayed)>"`` per cell, plus ``" (N violations)"`` when the digest
    carries any; ``replayed`` is ``" (journal)"`` for a replayed cell
    and empty for a live one.
    """

    def reporter(replayed: str) -> Callable[[str, Dict[str, object]], None]:
        def report(label: str, digest: Dict[str, object]) -> None:
            count = len(digest["violations"])
            progress(
                f"{label}: {describe(digest, replayed)}"
                + (f" ({count} violations)" if count else "")
            )

        return report

    on_result = on_replay = None
    if progress is not None:
        on_result, on_replay = reporter(""), reporter(" (journal)")
    tasks = [
        TrialTask(key=label, fn=fn, payload=payload)
        for label, fn, payload in cells
    ]
    digests = TrialScheduler(workers=workers, journal=journal).run(
        tasks, on_result=on_result, on_replay=on_replay
    )
    return [digests[label] for label, _fn, _payload in cells]


# -- the report surface -----------------------------------------------------


class GridReport:
    """What every grid report answers the same way.  A subclass says
    where its violation lists live (:meth:`violation_groups`) and keeps
    its own ``to_dict`` / ``render``."""

    def violation_groups(self) -> Iterable[List[str]]:
        raise NotImplementedError

    @property
    def violations(self) -> List[str]:
        return sorted(v for group in self.violation_groups() for v in group)

    @property
    def ok(self) -> bool:
        return not self.violations

    def footer(self, summary: str) -> List[str]:
        """``PASS|FAIL: <summary>, N invariant violations`` plus one
        ``  ! violation`` line each."""
        violations = self.violations
        status = "FAIL" if violations else "PASS"
        return [
            f"{status}: {summary}, {len(violations)} invariant violations"
        ] + [f"  ! {violation}" for violation in violations]
