"""Event schemas and wire sizes.

The paper does not publish exact serialized sizes, but it reports that
the network (1 Gb/s) saturates at ~1.2 M events/s for the aggregation
query (Experiment 1).  1e9 / 8 / 104 = 1.202 M events/s, so we model
events as 104 bytes on the wire; this single constant makes the paper's
observed network bound *emerge* from the data-plane model rather than
being hard-coded.

Join results are wider than aggregation results (the join emits matched
purchase tuples enriched with both timestamps), which is why the join's
network saturation point (1.19 M/s, Table III) falls slightly below the
aggregation's: result traffic shares the plane with ingest traffic.
"""

from __future__ import annotations

from repro.core.records import ADS, PURCHASES

PURCHASE_EVENT_BYTES = 104
"""Serialized PURCHASES(userID, gemPackID, price, time) event size."""

AD_EVENT_BYTES = 104
"""Serialized ADS(userID, gemPackID, time) event size."""

AGG_RESULT_BYTES = 48
"""Serialized (gemPackID, SUM(price), window) aggregation result size."""

JOIN_RESULT_BYTES = 64
"""Serialized (userID, gemPackID, price, p.time, a.time) join result."""

_STREAM_BYTES = {PURCHASES: PURCHASE_EVENT_BYTES, ADS: AD_EVENT_BYTES}


def event_bytes(stream: str) -> int:
    """Wire size of one event of the given stream."""
    try:
        return _STREAM_BYTES[stream]
    except KeyError:
        raise ValueError(f"unknown stream {stream!r}") from None


DEFAULT_GEM_PACK_COUNT = 64
"""Number of distinct gem packs (grouping keys) in the synthetic catalog.

The paper does not report its key-space size.  We default to a modest
catalog so that the generator's emission (one weighted cohort per key
per tick) stays cheap; at the paper's event rates every key is hot
regardless of catalog size, so the latency anchors (max event-time per
key per window) are insensitive to this constant."""

DEFAULT_USER_COUNT = 100_000
"""Number of distinct users in the synthetic population."""

MIN_GEM_PACK_PRICE = 0.99
MAX_GEM_PACK_PRICE = 99.99
"""Gem-pack price range used by the synthetic purchase generator."""
