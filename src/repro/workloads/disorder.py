"""Out-of-order event generation (paper future work, Section VI-D).

The paper's evaluation assumes in-order streams (generator timestamps
are monotone per queue); it explicitly defers "out-of-order and late
arriving data management" to future work.  This module implements that
extension: a :class:`DisorderSpec` makes the generator emit a fraction
of each tick's events with *lagged* event times, as if they had been
delayed on their way from the source (the mobile device of the paper's
ATM/gaming examples) to the generator.

With disorder, the ingestion watermark (max event-time pulled) is a
heuristic that overtakes late events; engines then either drop the
stragglers from closed windows or hold windows open for an *allowed
lateness* (``EngineConfig.allowed_lateness_s``) -- trading latency for
completeness.  The framework measures both sides of that trade:
late-drop weight in the engine diagnostics, window completeness in the
extension benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DisorderSpec:
    """How much of the stream arrives late, and by how much.

    ``fraction`` of every generation tick's weight is emitted with an
    event-time lag drawn uniformly from ``(0, max_delay_s]`` (bounded
    disorder, the common real-world contract).
    """

    fraction: float = 0.1
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.max_delay_s <= 0:
            raise ValueError(
                f"max_delay_s must be positive, got {self.max_delay_s}"
            )

    def sample_delay(self, rng: np.random.Generator) -> float:
        """Draw one event-time lag in (0, max_delay_s]."""
        return float(rng.uniform(0.0, self.max_delay_s))
