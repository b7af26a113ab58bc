"""Tolerances of the Definition 5 judgement.

A leaf module: the trial side (:mod:`repro.core.experiment`,
:mod:`repro.core.driver`, :mod:`repro.core.throughput`) names the
criteria a trial will be judged by without importing the search that
does the judging (:mod:`repro.core.sustainable`, which re-exports
:class:`SustainabilityCriteria`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SustainabilityCriteria:
    """Tolerances of the sustainability judgement."""

    max_occupancy_slope_frac: float = 0.005
    """Queue growth tolerated, as a fraction of the offered rate (a
    sub-percent persistent drift is "fluctuation", more is divergence --
    at the paper's rates a 2% drift would add seconds of queueing
    latency within a trial, saturating the "sustainable" maximum)."""
    max_queue_delay_s: float = 5.0
    """Age of the oldest queued event, averaged over the final quarter
    of the run -- the "maximum number of events queued" rule."""
    max_latency_slope: float = 0.03
    """Tolerated event-time latency growth (seconds per second)."""
    min_outputs: int = 1
    """The SUT must have produced at least this many output tuples."""
    max_recovery_time_s: Optional[float] = None
    """Under-faults mode: every injected fault must recover (latency
    back in its pre-fault band) within this many seconds.  ``None``
    ignores recovery metrics entirely (the plain Definition 5)."""
    max_lost_weight: Optional[float] = None
    """Under-faults mode: tolerated data loss across all faults (e.g.
    ``0.0`` demands exactly-once/at-least-once behaviour)."""
