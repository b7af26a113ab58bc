"""Windowed equi-join of the purchases and ads streams.

Listing 1's join query: purchases and ads over the same sliding window,
matched on ``(userID, gemPackID)`` (collapsed to one integer key by the
workload generator).

Latency semantics (Section IV, Figure 2): "In a windowed join operation,
the containing tuples' event-time is set to be the maximum event-time of
their window.  Afterwards, each join output is assigned the maximum
event-time of its matching tuples."  Output tuples therefore carry the
maximum of the two windows' event-time maxima (in Figure 2, time=600 =
max(600, 500)), and analogously for processing time.

Selectivity: the expected number of output tuples per ingested purchase
event.  The paper reduced it so that sink/network traffic would not mask
engine behaviour; output weight is distributed over keys present on both
sides, proportionally to the purchase weight.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.batch import RecordBlock, fold_add
from repro.core.records import ADS, PURCHASES, OutputRecord
from repro.engines.operators.window import KeyedWindowStore, WindowContents
from repro.workloads.queries import WindowSpec


class JoinWindowStore:
    """Two keyed window stores, one per input stream."""

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        self.window = window
        self.purchases = KeyedWindowStore(window, key_space_hint)
        self.ads = KeyedWindowStore(window, key_space_hint)

    def add_block(self, block: RecordBlock) -> int:
        """Route a block to its side's store; returns keyed updates."""
        if block.stream == PURCHASES:
            return self.purchases.add_block(block)
        if block.stream == ADS:
            return self.ads.add_block(block)
        raise ValueError(f"block from unknown stream {block.stream!r}")

    def ready_indices(self, watermark: float) -> List[int]:
        """Windows complete on *both* sides at the given watermark."""
        ready = set(self.purchases.ready_indices(watermark))
        ready |= set(self.ads.ready_indices(watermark))
        return sorted(ready)

    def close(self, index: int, at_time=None) -> "ClosedJoinWindow":
        return ClosedJoinWindow(
            index=index,
            purchases=self.purchases.close(index, at_time=at_time),
            ads=self.ads.close(index, at_time=at_time),
        )

    def stored_weight(self) -> float:
        """Total buffered event weight across both build sides."""
        return self.purchases.stored_weight() + self.ads.stored_weight()

    def lose_fraction(self, fraction: float) -> float:
        """Discard a fraction of both sides' open window contents."""
        return self.purchases.lose_fraction(fraction) + self.ads.lose_fraction(
            fraction
        )


class ClosedJoinWindow:
    """Both sides of one closed window, ready to be joined."""

    def __init__(
        self, index: int, purchases: WindowContents, ads: WindowContents
    ) -> None:
        self.index = index
        self.purchases = purchases
        self.ads = ads

    @property
    def end_time(self) -> float:
        return self.purchases.end_time

    @property
    def total_weight(self) -> float:
        return self.purchases.total_weight + self.ads.total_weight

    @property
    def max_event_time(self) -> float:
        """Maximum event-time across both windows (Figure 2 semantics)."""
        return max(self.purchases.max_event_time, self.ads.max_event_time)

    @property
    def max_processing_time(self) -> float:
        return max(
            self.purchases.max_processing_time, self.ads.max_processing_time
        )


def join_window_outputs(
    closed: ClosedJoinWindow,
    selectivity: float,
    emit_time: float,
) -> List[OutputRecord]:
    """Join one closed window pair into output tuples.

    For every key present on both sides, the output weight is the key's
    share (by purchase weight) of ``selectivity * total purchase
    weight``.  All outputs of the window carry the window-level
    max-event-time anchor, per the paper's join latency definition.
    """
    if selectivity < 0:
        raise ValueError(f"selectivity must be >= 0, got {selectivity}")
    purchases = closed.purchases
    # Matched keys stay in purchase first-touch order: the fold below
    # and the sink see them in the order the purchases side met them.
    matched = np.isin(purchases.keys, closed.ads.keys)
    matched_weights = purchases.weights[matched]
    matched_purchase_weight = fold_add(0.0, matched_weights)
    if matched_purchase_weight <= 0 or selectivity == 0:
        return []
    total_output_weight = selectivity * purchases.total_weight
    out_weights = total_output_weight * (
        matched_weights / matched_purchase_weight
    )
    event_time = closed.max_event_time
    processing_time = closed.max_processing_time
    end_time = closed.end_time
    traces_by_key = None
    all_traces = purchases.traces + closed.ads.traces
    if all_traces:
        traces_by_key = {}
        for trace in all_traces:
            traces_by_key.setdefault(trace.key, []).append(trace)
    outputs = []
    for key, value, out_weight in zip(
        purchases.keys[matched].tolist(),
        purchases.values[matched].tolist(),
        out_weights.tolist(),
    ):
        if out_weight <= 0:
            continue
        # Positional: a keyword call costs twice as much per tuple.
        outputs.append(
            OutputRecord(
                key,
                value,
                event_time,
                processing_time,
                emit_time,
                out_weight,
                end_time,
                # Traces from either side of the window whose key joined
                # (an unmatched key's trace stays incomplete -- its
                # events produced no output).
                traces_by_key.pop(key, None)
                if traces_by_key is not None
                else None,
            )
        )
    return outputs
