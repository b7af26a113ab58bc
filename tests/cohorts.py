"""One cohort as a block of one: how a test feeds a driver queue.

A :class:`~repro.core.queues.DriverQueue` takes one item kind, the
:class:`~repro.core.batch.RecordBlock`.  Tests that think in single
events push :func:`cohort` blocks and read pulls back with
:func:`expand`.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.core.batch import RecordBlock
from repro.core.records import PURCHASES, Record


def cohort(
    event_time: float = 0.0,
    weight: float = 1.0,
    key: int = 0,
    value: float = 1.0,
    stream: str = PURCHASES,
    trace=None,
) -> RecordBlock:
    """A single-cohort block; ``trace`` (if any) rides its one cohort."""
    return RecordBlock(
        np.array([key], dtype=np.int64),
        np.array([weight], dtype=np.float64),
        value=value,
        event_time=event_time,
        stream=stream,
        traces=[] if trace is None else [(0, trace)],
    )


def expand(blocks: Iterable[RecordBlock]) -> List[Record]:
    """Pulled blocks as one :class:`Record` per cohort, in order."""
    return [record for block in blocks for record in block.materialize()]
