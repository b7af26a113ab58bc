"""The Apache Storm 1.0.2 model.

Architectural traits reproduced (from the paper's analysis):

- **Tuple-at-a-time spout/bolt pipeline with per-tuple acking**: the
  highest per-event cost of the three engines (Table I: lowest
  throughput together with Spark, ~8% above Spark).
- **Immature on/off backpressure**: "Storm introduced the backpressure
  feature in recent releases; however, it is not mature yet" -- the
  spout pulls in bursts and pauses at the high watermark, giving the
  strongly fluctuating ingest of Figure 9a and, under high load,
  occasional topology stalls ("it is possible that the backpressure
  stalls the topology, causing spouts to stop emitting tuples").
- **Bulk window evaluation**: window results are produced in bulk at
  window close (Experiment 4's discussion), so emission is delayed by an
  evaluation pass over the window volume; combined with coordination
  overhead growing with the cluster, Storm's latency *increases* with
  cluster size (Table II), opposite to Spark.
- **No spill-to-disk window state**: raw tuples are buffered per window;
  large windows exhaust memory unless the user supplies "advanced data
  structures that can spill to disk" (Experiment 3) --
  ``advanced_state=True`` models exactly that user-supplied structure.
- **No built-in windowed join**: the naive join the paper implemented
  (0.14 M/s, 2.3 s average latency on 2 nodes) buffers both sides fully
  and is unstable beyond 2 workers ("we faced memory issues and topology
  stalls on larger clusters").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List

import numpy as np

from repro.autoscale.rescale import STYLE_REBALANCE, RescaleSemantics
from repro.core.batch import (
    RecordBlock,
    consume_front,
    fold_add,
    fold_sub,
)
from repro.engines.backpressure import OnOffThrottle
from repro.engines.base import EngineConfig, StreamingEngine
from repro.faults.checkpoint import RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee
from repro.recovery.degradation import DegradationPolicy
from repro.sim.failures import TopologyStalled


@dataclass(frozen=True)
class StormConfig(EngineConfig):
    """Storm-specific knobs on top of the common engine config.

    The inherited fields are re-declared with Storm's tuned defaults so
    partial overrides (e.g. ``StormConfig(advanced_state=True)``) keep
    the engine's characteristics.
    """

    tick_interval_s: float = 0.05
    buffer_seconds: float = 1.0
    pipeline_delay_s: float = 0.08
    gc_rate_per_s: float = 0.03
    gc_pause_mean_s: float = 0.45
    gc_pause_sigma: float = 0.6
    emit_jitter_sigma: float = 0.35
    burst_factor: float = 1.5
    """Spout pull rate relative to processing capacity while emitting."""
    spout_pull_period_ticks: int = 6
    """The spout polls the queues every this many engine ticks, pulling
    the accumulated budget in one burst -- the strongly fluctuating data
    pull rate of Figure 9a."""
    high_watermark: float = 0.9
    low_watermark: float = 0.4
    coordination_delay_base_s: float = 0.4
    """Mean extra emission delay at 2 workers; grows linearly with
    workers/2 (worker/executor coordination, Table II's latency growth
    with cluster size)."""
    stall_rate_per_s: float = 0.02
    """Topology-stall hazard per second while the internal queues are
    more than half full."""
    stall_duration_s: float = 2.5
    """Base stall length at 2 workers; actual stalls scale with
    sqrt(workers/2) -- more executors, longer recovery coordination."""
    surge_factor: float = 2.5
    """An ingest-rate jump beyond this multiple of the smoothed rate is a
    surge; Storm's immature backpressure risks stalling the topology on
    surges (Experiment 5: "Storm is the most susceptible system for
    fluctuating workloads")."""
    surge_stall_prob: float = 0.6
    surge_cooldown_s: float = 60.0
    surge_min_rate: float = 1e4
    """Surges below this absolute rate never stall (startup noise)."""
    emit_jitter_per_worker: float = 0.05
    """Extra lognormal sigma on window-evaluation time per worker above
    two: coordination across more executors makes the occasional window
    evaluation much slower, which is where Storm's latency maxima
    (5.7 s at 2 nodes to 17.7 s at 8 nodes in Table II) come from."""
    advanced_state: bool = False
    """User-supplied spillable window state (Experiment 3's workaround)."""
    naive_join_stable_workers: int = 2
    """The naive join is only stable up to this many workers."""


#: Drained runs shorter than this replay the tick-min countdown per
#: cohort: the vector form costs ~10 us of NumPy calls however short
#: the run, the scalar loop ~0.3 us per cohort (measured break-even
#: ~32 cohorts; overload splits 64-key blocks into runs well below it).
_VECTOR_COUNTDOWN_MIN_COHORTS = 32


class StormEngine(StreamingEngine):
    """Tuple-at-a-time engine with on/off backpressure."""

    name = "storm"
    # Topology rebalance + tuple replay; the naive (no-acking) setup is
    # at-most-once: the dead workers' window state is simply gone.
    recovery_semantics = RecoverySemantics.TUPLE_REPLAY
    default_guarantee = DeliveryGuarantee.AT_MOST_ONCE
    # Rescale = `storm rebalance`: an in-flight executor redistribution
    # with a brief topology halt.  Without acking the moved partitions'
    # un-acked window contents are dropped (at-most-once).
    rescale = RescaleSemantics(
        style=STYLE_REBALANCE, provision_s=15.0, warmup_s=2.0
    )

    config_cls = StormConfig
    backpressure_cls = OnOffThrottle
    # Experiment 3: "Otherwise, we encountered memory exceptions."
    supports_spill = False
    # At-most-once without acking: dropped tuples are already part of
    # the contract, so shed aggressively (tight delay bound) and
    # re-admit quickly -- Storm's on/off throttle oscillates anyway.
    recommended_degradation = DegradationPolicy(
        shed="oldest", max_queue_delay_s=3.0, readmission_ramp_s=1.0
    )
    naive_join_stalls = True
    """Experiment 2: the naive join is unstable beyond
    ``naive_join_stable_workers``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inflight: Deque[RecordBlock] = deque()
        self._inflight_weight = 0.0
        # Per-pull (tick) minima of event time, with remaining weight:
        # pulls interleave the driver queues round-robin, so the FIFO
        # head alone does not bound the oldest inflight event time.
        self._inflight_tick_mins: Deque[List[float]] = deque()
        self._tick_counter = 0
        self._pull_budget_banked = 0.0
        self._ingest_rate_ema = 0.0
        self._surge_cooldown_until = 0.0
        # The user-supplied spillable structure changes the state policy.
        if self.config.advanced_state:
            self.state.set_policy(replace(self.state.policy, can_spill=True))

    def _emit_jitter(self) -> float:
        cfg: StormConfig = self.config
        sigma = cfg.emit_jitter_sigma + cfg.emit_jitter_per_worker * max(
            0, self.cluster.workers - 2
        )
        if sigma <= 0:
            return 1.0
        return float(self.rng.lognormal(-(sigma**2) / 2.0, sigma))

    def _internal_backlog_weight(self) -> float:
        return self._inflight_weight

    def _modulate_ingest_budget(self, budget: float, dt: float) -> float:
        # The spout polls in bursts: budget banks up between polls and
        # is released all at once -- Figure 9a's fluctuating pull rate.
        cfg: StormConfig = self.config
        period = max(1, cfg.spout_pull_period_ticks)
        self._tick_counter += 1
        self._pull_budget_banked += budget
        if self._tick_counter % period != 0:
            return 0.0
        released = self._pull_budget_banked
        self._pull_budget_banked = 0.0
        return released

    def _on_node_failure(self, lost_fraction: float) -> float:
        # The exposed data is the dead workers' partition of every open
        # window.  Without acking (at-most-once, the naive default) it is
        # physically dropped from the store; with acking the spout
        # replays it, so the store keeps it but the replay duplicates
        # (at-least-once) or deduplicates (exactly-once) downstream.
        if self.guarantee is DeliveryGuarantee.AT_MOST_ONCE:
            return self._store.lose_fraction(lost_fraction)
        return lost_fraction * (
            self._store.stored_weight() + self._inflight_weight
        )

    def _rescale_exposed_weight(self, moved_fraction: float) -> float:
        # An in-flight rebalance moves executors without a snapshot:
        # exactly the crash exposure, but for the *moved* partitions --
        # dropped from the store under at-most-once (the window ledger
        # charges it to `lost`), replayed-and-duplicated under acking.
        return self._on_node_failure(moved_fraction)

    # -- pipeline ---------------------------------------------------------

    def _process_batch(self, blocks: List[RecordBlock], dt: float) -> None:
        # The spout over-pulls into the executor queues; bolts drain them
        # at processing capacity in _on_tick_end.  Pulls arrive in
        # periodic bursts, so the surge detector sees the per-poll
        # average rate, not the instantaneous burst.  One tick-min entry
        # per poll (a block's minimum event time is its uniform event
        # time); the inflight ledger advances by strict left folds over
        # each block's cohort weights.
        cfg: StormConfig = self.config
        period = max(1, cfg.spout_pull_period_ticks)
        weight = self._tick_ingest_weight
        self._detect_surge(weight / (dt * period), dt * period)
        if blocks:
            self._inflight_tick_mins.append(
                [min(b.event_time for b in blocks), weight]
            )
        for block in blocks:
            self._inflight.append(block)
            self._inflight_weight = fold_add(
                self._inflight_weight, block.weights
            )

    def _detect_surge(self, rate: float, dt: float) -> None:
        """A sudden ingest surge may stall the topology (Experiment 5)."""
        cfg: StormConfig = self.config
        if self._ingest_rate_ema <= 0:
            self._ingest_rate_ema = rate
            return
        surging = (
            rate > cfg.surge_factor * self._ingest_rate_ema
            and rate > cfg.surge_min_rate
            and self.sim.now >= self._surge_cooldown_until
        )
        if surging and self.rng.random() < cfg.surge_stall_prob:
            # Surge-induced stalls are the severe case: the topology
            # wedges while re-balancing to the new rate.
            self.backpressure.force_stall(
                2.0
                * cfg.stall_duration_s
                * (self.cluster.workers / 2.0) ** 0.5
            )
            self._surge_cooldown_until = self.sim.now + cfg.surge_cooldown_s
            # The stall flushes the smoothed estimate: on resume the
            # spout re-learns the new rate instead of chain-stalling.
            self._ingest_rate_ema = rate
            return
        # ~3 s time constant on the smoothed pull rate.
        alpha = min(1.0, dt / 3.0)
        self._ingest_rate_ema += alpha * (rate - self._ingest_rate_ema)

    def _drain_inflight(self, dt: float) -> None:
        budget = self._capacity_events_per_s() * dt
        while self._inflight and budget > 1e-9:
            taken, budget, emptied = consume_front(self._inflight[0], budget)
            if emptied:
                self._inflight.popleft()
            if taken is None or len(taken) == 0:
                continue
            self._inflight_weight = fold_sub(
                self._inflight_weight, taken.weights
            )
            # Count the drained cohorts off the per-poll tick minima:
            # one subtract-accumulate per tick-min entry (the same left
            # fold as the per-cohort `entry[1] -= w`, so bitwise), or
            # the per-cohort loop itself for a short run.
            if len(taken) < _VECTOR_COUNTDOWN_MIN_COHORTS:
                for w in taken.weights.tolist():
                    self._consume_tick_min(w)
            else:
                self._consume_tick_mins(taken.weights)
            self._store.add_block(taken)
        self._inflight_weight = max(0.0, self._inflight_weight)

    def _consume_tick_min(self, weight: float) -> None:
        while weight > 1e-9 and self._inflight_tick_mins:
            entry = self._inflight_tick_mins[0]
            if entry[1] > weight + 1e-9:
                entry[1] -= weight
                return
            weight -= entry[1]
            self._inflight_tick_mins.popleft()

    def _consume_tick_mins(self, weights: np.ndarray) -> None:
        """``for w in weights: self._consume_tick_min(w)`` in one NumPy
        pass per tick-min entry instead of one Python call per cohort.

        Bitwise, because the scalar countdown against one entry *is* a
        strict left fold: every cohort that does not exhaust the head
        entry performs ``entry[1] -= w``, which is what
        ``np.subtract.accumulate`` computes element by element.  Only
        the epsilon merge -- a cohort that exhausts the entry, pops it
        and carries its remainder into the following entries -- is
        sequential, and it happens once per entry, not once per cohort.
        Cohorts of weight ``<= 1e-9`` never enter the scalar loop; they
        fold as ``0.0`` (``x - 0.0 == x`` exactly) and never stop it.
        """
        mins = self._inflight_tick_mins
        w = weights  # the cohorts not yet counted off
        while len(w) and mins:
            entry = mins[0]
            live = w > 1e-9
            # acc[k] = entry[1] before cohort k, acc[-1] after the last.
            acc = np.empty(len(w) + 1)
            acc[0] = entry[1]
            acc[1:] = w if live.all() else np.where(live, w, 0.0)
            np.subtract.accumulate(acc, out=acc)
            before = acc[:-1]
            exhausts = np.nonzero(live & ~(before > w + 1e-9))[0]
            if len(exhausts) == 0:
                entry[1] = float(acc[-1])
                return
            j = int(exhausts[0])
            # Cohort j exhausts the head: pop it and let the scalar loop
            # carry what is left of the cohort into the entries behind.
            mins.popleft()
            self._consume_tick_min(float(w[j] - before[j]))
            w = w[j + 1 :]

    def _on_tick_end(self, dt: float) -> None:
        self._drain_inflight(dt)
        self._update_state_usage(
            self._store.stored_weight() + self._inflight_weight
        )
        self._check_naive_join_health()
        self._close_ready(self._processed_watermark())

    def _processed_watermark(self) -> float:
        """Event-time through which tuples reached the window bolt.

        The source watermark, bounded by the oldest event time that may
        still sit in the executor queues (tracked per pull tick): a
        window may only close when no older tuple is inflight.
        """
        assert self.source is not None
        watermark = self.source.watermark
        if self._inflight_tick_mins:
            oldest = min(entry[0] for entry in self._inflight_tick_mins)
            watermark = min(watermark, oldest - 1e-9)
        return watermark

    def _close_window(self, index: int) -> None:
        cfg: StormConfig = self.config
        closed = self._store.close(index, at_time=self.sim.now)
        stored = closed.total_weight
        bulk = self.cost.bulk_emit_delay_s(stored, self.cluster)
        coordination = cfg.coordination_delay_base_s * (
            self.cluster.workers / 2.0
        )
        base_delay = cfg.pipeline_delay_s
        spread = (bulk + coordination) * self._emit_jitter()
        # The bulk evaluation streams results out as it scans the window:
        # the first keys are emitted almost immediately, the last after
        # the full pass -- which is why Storm's minimum latencies in
        # Table II are near zero while the average carries the bulk cost.
        probe_outputs = self._outputs(closed, emit_time=0.0)
        self.windows_emitted += 1
        self._update_state_usage(
            self._store.stored_weight() + self._inflight_weight
        )
        n = len(probe_outputs)
        for i, output in enumerate(probe_outputs):
            delay = base_delay + spread * (i + 1) / max(n, 1)
            output.emit_time = self.sim.now + delay
            self.sim.schedule(delay, self._emit, [output])

    def _check_naive_join_health(self) -> None:
        """Experiment 2: the naive join is unstable beyond 2 workers."""
        cfg: StormConfig = self.config
        if not (self._is_join and self.naive_join_stalls):
            return
        if self.cluster.workers <= cfg.naive_join_stable_workers:
            return
        # On larger clusters the per-worker imbalance of the naive join
        # stalls the topology once meaningful state accumulates.
        if self.state.utilisation() > 0.02:
            raise TopologyStalled(
                f"naive Storm join unstable on {self.cluster.workers} workers "
                "(memory issues and topology stalls, paper Experiment 2)",
                at_time=self.sim.now,
            )

    def diagnostics(self) -> Dict[str, float]:
        diag = super().diagnostics()
        diag["inflight_weight"] = self._inflight_weight
        diag["stall_count"] = float(self.backpressure.stall_count)
        return diag
