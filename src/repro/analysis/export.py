"""JSON export of trial results and search outcomes.

Benchmark runs are only useful if they can leave the process: this
module serialises :class:`~repro.core.driver.TrialResult` and
:class:`~repro.core.sustainable.SustainableSearchResult` into plain
dictionaries / JSON files that downstream tooling (plotting, regression
tracking) can consume without importing the framework.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union

from repro.core.driver import TrialResult
from repro.core.latency import EVENT_TIME, PROCESSING_TIME
from repro.core.metrics import StatSummary
from repro.core.sustainable import SustainableSearchResult


def summary_to_dict(summary: StatSummary) -> Dict[str, Any]:
    """Flatten a :class:`StatSummary` (NaNs become None for JSON)."""
    return summary.to_dict()


#: Bin width (s) of the latency series an exported trial embeds.
SERIES_BIN_S = 5.0


def trial_to_dict(result: TrialResult) -> Dict[str, Any]:
    """Serialise one trial, with its binned latency series and its
    throughput series embedded (figure-ready)."""
    payload: Dict[str, Any] = {
        "engine": result.engine,
        "workers": result.workers,
        "query_kind": result.query_kind,
        "duration_s": result.duration_s,
        "warmup_s": result.warmup_s,
        "failure": result.failure,
        "mean_ingest_rate": result.mean_ingest_rate,
        "event_latency": summary_to_dict(result.event_latency),
        "processing_latency": summary_to_dict(result.processing_latency),
        "output_tuples": len(result.collector),
        "diagnostics": {
            key: float(value) for key, value in result.diagnostics.items()
        },
    }
    if result.recovery is not None:
        payload["recovery"] = [m.to_dict() for m in result.recovery]
    if result.detection is not None:
        payload["detection"] = result.detection.to_dict()
    if result.autoscale is not None:
        payload["autoscale"] = [m.to_dict() for m in result.autoscale]
    if result.attempts is not None:
        payload["attempts"] = [a.to_dict() for a in result.attempts]
    if result.observability is not None:
        payload["observability"] = result.observability.to_dict()
    event = result.collector.binned_series(
        EVENT_TIME, bin_s=SERIES_BIN_S, start_time=result.warmup_s
    )
    proc = result.collector.binned_series(
        PROCESSING_TIME, bin_s=SERIES_BIN_S, start_time=result.warmup_s
    )
    ingest = result.throughput.ingest_series
    occupancy = result.throughput.occupancy_series
    payload["series"] = {
        "event_latency": {
            "t": event.times.tolist(),
            "v": event.values.tolist(),
        },
        "processing_latency": {
            "t": proc.times.tolist(),
            "v": proc.values.tolist(),
        },
        "ingest_rate": {
            "t": ingest.times.tolist(),
            "v": ingest.values.tolist(),
        },
        "queue_occupancy": {
            "t": occupancy.times.tolist(),
            "v": occupancy.values.tolist(),
        },
    }
    return payload


def search_to_dict(search: SustainableSearchResult) -> Dict[str, Any]:
    """Serialise a sustainable-throughput search with its trial ladder.

    A search where no probed rate was sustainable carries
    ``sustainable_rate = NaN``; that becomes ``None`` in JSON.
    ``simulated_s`` is what the ladder cost in simulated seconds; a
    probe the driver stopped carries its ``stopped_at_s``.
    """
    rate = search.sustainable_rate
    return {
        "sustainable_rate": None if rate != rate else float(rate),
        "trial_count": search.trial_count,
        "simulated_s": search.simulated_s,
        # export_entry() serialises live and journal-replayed trials
        # identically (resume byte-identity relies on this).
        "trials": [trial.export_entry() for trial in search.trials],
    }


def write_json(
    payload: Dict[str, Any], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write a payload as pretty-printed JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

