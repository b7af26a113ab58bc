"""The scalable on-the-fly data generator.

Section III of the paper argues for generating data on the fly instead
of reading from a message broker (which had been the bottleneck of the
Yahoo streaming benchmark), with these properties, all implemented here:

- N parallel generator instances, each paired with its own driver queue
  on a driver node ("Each data generator generates 100M events with
  constant speed using 16 parallel instances");
- configurable, rate-controlled generation ("with constant speed
  throughout the experiment"), provisioned faster than the fastest SUT
  so generation never bottlenecks a trial;
- every event timestamped at generation time -- the event-time anchor.

Each tick emits one :class:`~repro.core.batch.RecordBlock` per stream:
one weighted cohort per catalog key, with weights following the key
distribution's pmf.  This is the fluid limit of the real generator: at
the paper's event rates (~10^5..10^6 events/s) every key receives many
events per tick, so the deterministic weights match the law of large
numbers and the per-key max-event-time anchors are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.batch import RecordBlock
from repro.core.queues import DriverQueue
from repro.core.records import ADS, PURCHASES
from repro.sim.simulator import PeriodicProcess, Simulator
from repro.workloads.disorder import DisorderSpec
from repro.workloads.events import MAX_GEM_PACK_PRICE, MIN_GEM_PACK_PRICE
from repro.workloads.profiles import RateProfile
from repro.workloads.queries import Query, WindowedJoinQuery

#: Simulated seconds between two emissions of one generator instance.
TICK_INTERVAL_S = 0.05
#: How much faster than its fair share each instance can generate.
#: The paper provisions generators "faster than the fastest SUT"; this
#: makes that headroom explicit so the fleet can redistribute a dead
#: instance's share over survivors -- and so the harness can *check*
#: when redistribution exceeds the provisioned capacity.
OVERPROVISION_FACTOR = 2.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Sizing of the generator fleet."""

    instances: int = 4
    queue_capacity_seconds: float = 120.0
    """Driver-queue capacity in seconds of peak generation; exceeding it
    is the paper's dropped-connection failure."""
    disorder: Optional[DisorderSpec] = None
    """Emit a fraction of events with lagged event times (out-of-order
    streams -- the paper's future-work extension)."""

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if self.queue_capacity_seconds <= 0:
            raise ValueError(
                f"queue_capacity_seconds must be positive, "
                f"got {self.queue_capacity_seconds}"
            )

    @property
    def max_share(self) -> float:
        """Largest rate share one instance can serve within its
        provisioned capacity."""
        return min(1.0, OVERPROVISION_FACTOR / self.instances)


class DataGenerator:
    """One generator instance feeding one driver queue."""

    def __init__(
        self,
        sim: Simulator,
        queue: DriverQueue,
        profile: RateProfile,
        query: Query,
        rng: np.random.Generator,
        config: GeneratorConfig,
        share: float,
        sampler=None,
    ) -> None:
        if not 0 < share <= 1:
            raise ValueError(f"share must be in (0, 1], got {share}")
        self.sim = sim
        self.queue = queue
        self.profile = profile
        self.query = query
        self.rng = rng
        self.config = config
        self.share = share
        # Optional TraceSampler (repro.obs.trace); shared by the fleet
        # so the 1-in-N counter runs over the global cohort sequence.
        self.sampler = sampler
        self.generated_weight = 0.0
        # Emission is one RecordBlock per (stream, tick) over the
        # positive-mass key catalog; the weights column comes from the
        # key distribution, shared by the fleet.
        self._dense_keys = query.keys.support()[0]
        self._mean_price = (MIN_GEM_PACK_PRICE + MAX_GEM_PACK_PRICE) / 2.0
        self._is_join = isinstance(query, WindowedJoinQuery)
        self._purchases_share = (
            query.purchases_share if self._is_join else 1.0
        )
        self._process: Optional[PeriodicProcess] = None
        self.crashed = False
        self._slow_until = float("-inf")
        self._slow_factor = 1.0

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("generator already started")
        if self.crashed:
            return
        self._process = self.sim.every(
            TICK_INTERVAL_S, self._tick, start=self.sim.now
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # -- driver-side fault surface ----------------------------------------

    def crash(self) -> None:
        """Kill this instance permanently (GeneratorCrash)."""
        self.crashed = True
        self.stop()

    def set_share(self, share: float) -> None:
        """Rebalance: serve ``share`` of the offered profile from now on.

        Capped by the instance's provisioned capacity
        (:attr:`GeneratorConfig.max_share`) -- a generator cannot emit
        faster than it was provisioned, no matter what the fleet asks.
        """
        if share <= 0:
            raise ValueError(f"share must be positive, got {share}")
        self.share = min(share, self.config.max_share)

    def slow(self, until: float, factor: float) -> None:
        """Degrade this instance to ``factor`` of its rate until
        ``until`` (DriverNodeSlow)."""
        if not 0.0 < factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        self._slow_until = until
        self._slow_factor = factor

    # -- generation -------------------------------------------------------

    def _tick(self, sim: Simulator) -> None:
        rate = self.profile.rate_at(sim.now) * self.share
        if sim.now < self._slow_until:
            rate *= self._slow_factor
        weight = rate * TICK_INTERVAL_S
        if weight <= 0:
            return
        now = sim.now
        if self._is_join:
            purchases = weight * self._purchases_share
            ads = weight - purchases
            self._emit_stream(PURCHASES, purchases, now)
            self._emit_stream(ADS, ads, now)
        else:
            self._emit_stream(PURCHASES, weight, now)
        self.generated_weight += weight

    def _emit_stream(self, stream: str, weight: float, now: float) -> None:
        if weight <= 0:
            return
        disorder = self.config.disorder
        if disorder is not None and disorder.fraction > 0:
            late_weight = weight * disorder.fraction
            weight -= late_weight
            lag = disorder.sample_delay(self.rng)
            late_time = max(0.0, now - lag)
            self._emit_dense(stream, late_weight, late_time)
        if weight <= 0:
            return
        self._emit_dense(stream, weight, now)

    def _emit_dense(self, stream: str, weight: float, now: float) -> None:
        """One block per (stream, tick) over the positive-mass catalog.

        The weights column is the element-wise ``weight * mass`` product,
        read-only, from :meth:`~repro.workloads.keys.KeyDistribution.column`:
        every instance emitting an equal weight hands out the same array
        (a constant rate emits one per fleet), so the fold memo of
        :mod:`repro.core.batch` recognises it.  The sampler
        interaction replays a per-cohort 1-in-N countdown exactly --
        including the overflow quirk, where the overflowing cohort's
        trace is taken *before* the push raises and the final ``sync``
        is never reached (the counter stays stale on a dropped trial).
        An emission the countdown does not reach costs one ``skip``,
        which steps the counter before the push.
        """
        value = self._mean_price if stream == PURCHASES else 0.0
        weights = self.query.keys.column(weight)
        sampler = self.sampler
        n = len(weights)
        block_traces = []
        last_hit = -1
        due = 0 if sampler is None else sampler.skip(n)
        if due:
            rate = sampler.sample_rate
            # Hits at the countdown's zero crossings, truncated at the
            # cohort whose push would abort the emission.
            limit = n
            overflow = self.queue.overflow_index(weights)
            if overflow is not None:
                limit = min(n, overflow + 1)
            for h in range(due - 1, limit, rate):
                trace = sampler.take(
                    int(self._dense_keys[h]), stream, float(weights[h]), now
                )
                block_traces.append((h, trace))
                last_hit = h
        block = RecordBlock(
            self._dense_keys,
            weights,
            value=value,
            event_time=now,
            stream=stream,
            traces=block_traces,
            _checked=True,
        )
        # On overflow this raises ConnectionDropped after admitting the
        # prefix, and the sync below is skipped.
        self.queue.push_block(block, at_time=now)
        if due:
            if last_hit >= 0:
                sampler.sync(rate - (n - 1 - last_hit))
            else:
                sampler.sync(due - n)


def build_generator_fleet(
    sim: Simulator,
    profile: RateProfile,
    query: Query,
    rng_streams: List[np.random.Generator],
    config: GeneratorConfig,
    horizon_s: float,
    sampler=None,
) -> List[DataGenerator]:
    """Create ``config.instances`` generators with equal rate shares.

    Each generator gets its own queue sized from the profile's peak rate
    and its own RNG stream (``rng_streams`` must have one per instance).
    An optional trace ``sampler`` is shared across the fleet.
    """
    if len(rng_streams) != config.instances:
        raise ValueError(
            f"need {config.instances} RNG streams, got {len(rng_streams)}"
        )
    peak_share = profile.peak(horizon_s) / config.instances
    capacity = max(1.0, peak_share * config.queue_capacity_seconds)
    generators = []
    for i in range(config.instances):
        queue = DriverQueue(name=f"queue-{i}", capacity_weight=capacity)
        generators.append(
            DataGenerator(
                sim=sim,
                queue=queue,
                profile=profile,
                query=query,
                rng=rng_streams[i],
                config=config,
                share=1.0 / config.instances,
                sampler=sampler,
            )
        )
    return generators
