"""The Apache Spark Streaming 2.0.1 model.

Architectural traits reproduced (from the paper's analysis):

- **Mini-batch (DStream) execution**: events are received and
  processed in jobs fired every ``batch_interval`` (the paper uses 4 s,
  "as it can sustain the maximum throughput with this configuration").
  All tuples of a batch share their fate, which is why Spark's latencies
  are the highest but the *tightest* of the three engines (Table II:
  "the tuples within the same batch have similar latencies").
- **DAG scheduler**: jobs run serially per output; "coordination and
  pipelining mini-batch jobs and their stages creates extra overhead";
  the scheduler delay couples with ingest spikes (Figure 11).
- **Rate-controller backpressure**: reacts per batch ("passing this
  information to upstream stages works in the order of job stage
  execution time"), so Spark briefly over-ingests, then throttles --
  Figure 9b's fluctuating pull rate.
- **Window caching**: without an inverse-reduce function, windowed
  results are recomputed/cached per batch over the whole window volume
  ("the cache operation consumes the memory aggressively"); the paper
  "managed to overcome this performance issue" by implementing an
  Inverse Reduce Function -- ``inverse_reduce=True`` here (Experiment 3).
- **Tree-reduce/tree-aggregate**: the keyed stage is parallelised even
  for a single hot key, which is why Spark is the only engine that
  scales under extreme skew (Experiment 4), at a small coordination
  penalty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.autoscale.rescale import STYLE_MICRO_BATCH, RescaleSemantics
from repro.core.batch import RecordBlock, fold_add, left_sum
from repro.engines.backpressure import MIN_RATE, RateController
from repro.engines.base import EngineConfig, StreamingEngine
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
)
from repro.faults.checkpoint import RecoverySemantics
from repro.faults.guarantees import DeliveryGuarantee
from repro.recovery.degradation import DegradationPolicy


#: DAG-scheduler delay: a base plus occasional spikes (Figure 11).
SCHEDULER_BASE_DELAY_S = 0.15
SCHEDULER_SPIKE_RATE_PER_S = 0.01
SCHEDULER_SPIKE_MEAN_S = 0.8
#: Fixed per-job stage-coordination overhead (blocking barriers).
JOB_OVERHEAD_S = 0.2
#: Job processing rate relative to steady-state ingest capacity:
#: burst = capacity * (base + per_worker * (workers - 2)); the growth
#: with workers is the better RDD partitioning the paper credits for
#: Spark's latency *decreasing* with cluster size (Table II).
BURST_FACTOR_BASE = 1.33
BURST_FACTOR_PER_WORKER = 0.045
#: Per-stored-event cost of caching/recomputing windowed state per batch
#: when no inverse-reduce function is supplied.
CACHE_COST_US_PER_EVENT = 3.0
#: Beyond this many waiting jobs the trial is hopeless; ingest is choked
#: hard by the controller anyway.
MAX_QUEUED_JOBS = 8
#: Join jobs (CoGroupedRDD + Mapped/FlatMappedValuesRDD stages) run
#: closer to the batch-interval limit than aggregations.
JOIN_BURST_FACTOR = 1.10
#: Lognormal sigma on join-job durations: the CoGroup stages wait on
#: stragglers across partitions, so a meaningful share of join jobs
#: overruns the batch interval even at sustainable load -- "the
#: additional latency is due to tuples' waiting in the queue"
#: (Experiment 2's Spark discussion).
JOIN_DURATION_JITTER_SIGMA = 0.18
#: Within-batch shaping of the receiver pull rate: blocks fill eagerly
#: right after a batch fires and the block queue backs off as the batch
#: ages (+/- this fraction around the mean) -- Figure 9b's batch-cadence
#: fluctuation.
RECEIVER_MODULATION = 0.12
#: A batch's job closes windows ending up to this far beyond the
#: ingestion watermark captured at the batch boundary.  Real DStream
#: windows are batch-aligned: the batch ending at t computes windows
#: ending at t even though the receiver observed events a fraction of a
#: tick earlier.  Without slack, every window would slip into the next
#: batch.  When the system lags by more than the slack, windows defer
#: to later batches -- which is how queueing shows up in event-time
#: latency.
WATERMARK_SLACK_S = 0.6


@dataclass(frozen=True)
class SparkConfig(EngineConfig):
    """Spark-specific knobs on top of the common engine config.

    The inherited fields are re-declared with Spark's tuned defaults so
    that ``SparkConfig(inverse_reduce=True)`` and similar one-off
    overrides keep the engine's characteristics.
    """

    buffer_seconds: float = 8.0  # blocks of the current batch live in memory
    pipeline_delay_s: float = 0.1
    gc_rate_per_s: float = 0.025
    gc_pause_mean_s: float = 0.35
    emit_jitter_sigma: float = 0.08
    batch_interval_s: float = 4.0
    """The paper's batch size: "We use a four second batch-size for
    Spark, as it can sustain the maximum throughput with this
    configuration" (Experiment 1)."""
    inverse_reduce: bool = False
    """The paper's Inverse Reduce Function fix (Experiment 3)."""


class _SparkJob:
    """One mini-batch job waiting for / running on the DAG scheduler.

    ``partials`` is the batch's ``{window index: WindowCols}`` for an
    aggregation, ``None`` for a join (join records enter the window
    store on ingest).
    """

    __slots__ = (
        "batch_end",
        "volume",
        "partials",
        "traces",
        "watermark",
        "created_at",
        "sched_delay",
    )

    def __init__(
        self,
        batch_end,
        volume,
        partials,
        watermark,
        created_at,
        sched_delay,
        traces=None,
    ):
        self.batch_end = batch_end
        self.volume = volume
        self.partials = partials
        self.traces = traces
        self.watermark = watermark
        self.created_at = created_at
        self.sched_delay = sched_delay


class SparkEngine(StreamingEngine):
    """Mini-batch engine with rate-controller backpressure."""

    name = "spark"
    # Deterministic lineage recomputation of only the lost partitions --
    # no full-state transfer, no replay window: "Lopez et al. found
    # Spark the most robust to node failures", and exactly once.
    recovery_semantics = RecoverySemantics.LINEAGE_RECOMPUTE
    default_guarantee = DeliveryGuarantee.EXACTLY_ONCE
    # Rescale is nearly free: the next micro-batch's tasks simply
    # schedule over the new executor set (dynamic allocation), no
    # topology restart and no exposed data.
    rescale = RescaleSemantics(
        style=STYLE_MICRO_BATCH, provision_s=15.0, warmup_s=1.0
    )

    config_cls = SparkConfig
    backpressure_cls = RateController
    # "Spark will spill the memory store to disk once it is full" (the
    # base default).  Micro-batching coarsens every reaction to the
    # batch interval: the admission ramp spans two batches (the PID
    # controller needs completed batches to re-learn the rate) and the
    # delay bound tolerates a couple of queued batches before shedding.
    recommended_degradation = DegradationPolicy(
        shed="oldest",
        max_queue_delay_s=2.0 * SparkConfig.batch_interval_s,
        readmission_ramp_s=2.0 * SparkConfig.batch_interval_s,
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg: SparkConfig = self.config
        if self._is_join:
            # Join records enter the window store on ingest; the batch
            # counter sizes the job.
            self._batch_weight = 0.0
        else:
            # Aggregation records fold into the current batch's
            # partials; a finished job hands them to the merger.
            self._partials = BatchPartialAggregator(
                self.query.window, self.query.keys.num_keys
            )
        self._next_batch_end = self._align_up(self.sim.now, cfg.batch_interval_s)
        self._job_queue: Deque[_SparkJob] = deque()
        self._running_job: Optional[_SparkJob] = None
        self.job_log: List[Dict[str, float]] = []
        """Per-job record: batch_end, sched_delay, duration, volume --
        the raw series behind Figure 11."""

    def _window_store(self):
        if self._is_join:
            return super()._window_store()
        # The merger of finished jobs' partials is the aggregation's
        # window store.
        return WindowedPartialMerger(self.query.window)

    @staticmethod
    def _align_up(time: float, interval: float) -> float:
        import math

        return math.ceil((time + 1e-9) / interval) * interval

    def _internal_backlog_weight(self) -> float:
        if self._is_join:
            return self._batch_weight
        return self._partials.batch_weight

    def _on_node_failure(self, lost_fraction: float) -> float:
        # The dead workers' partitions are re-derived from cached lineage
        # deterministically; the exposure is just those partitions' share
        # of the buffered mini-batch state.
        return lost_fraction * (
            self._store.stored_weight() + self._internal_backlog_weight()
        )

    def _staged_weight(self) -> float:
        if self._is_join:
            return 0.0  # join records enter the window store on ingest
        # Aggregation records are staged twice before reaching window
        # state: the current (un-fired) batch's partials, then the fired
        # batch riding its queued/running job until the merger absorbs it.
        staged = self._partials.batch_weight
        staged += left_sum(job.volume for job in self._job_queue)
        if self._running_job is not None:
            staged += self._running_job.volume
        return staged

    def _modulate_ingest_budget(self, budget: float, dt: float) -> float:
        cfg: SparkConfig = self.config
        phase = (self.sim.now % cfg.batch_interval_s) / cfg.batch_interval_s
        # First half of the batch: eager block filling; second half: the
        # block queue backs off.  Mean multiplier is 1.0.
        factor = 1.0 + RECEIVER_MODULATION * (1.0 if phase < 0.5 else -1.0)
        return budget * factor

    # -- receiving ----------------------------------------------------------

    def _process_batch(self, blocks: List[RecordBlock], dt: float) -> None:
        if self._is_join:
            for block in blocks:
                self._store.add_block(block)
                self._batch_weight = fold_add(
                    self._batch_weight, block.weights
                )
            self._update_state_usage(self._store.stored_weight())
        else:
            for block in blocks:
                self._partials.add_block(block)

    # -- batch / job machinery ------------------------------------------------

    def _cache_retention_factor(self) -> float:
        """Multiplier on retained state from per-batch window caching.

        Without an inverse-reduce function, every batch caches the
        intermediate windowed RDD; the retained copies scale with the
        number of batches a window spans.  "The cache operation consumes
        the memory aggressively ... Spark will spill the memory store to
        disk once it is full" (Experiment 3) -- the spill slowdown is
        what collapses Spark's large-window throughput.  With inverse
        reduce, only the running aggregate is retained.
        """
        cfg: SparkConfig = self.config
        if self._is_join or cfg.inverse_reduce:
            return 1.0
        span = self.query.window.size_s / cfg.batch_interval_s
        return max(1.0, 0.4 * span)

    def _on_tick_end(self, dt: float) -> None:
        if self.sim.now + 1e-9 >= self._next_batch_end:
            self._fire_batch()
        if not self._is_join:
            stored = self._store.stored_weight() + self._partials.batch_weight
            self._update_state_usage(stored * self._cache_retention_factor())

    def _fire_batch(self) -> None:
        assert self.source is not None
        cfg: SparkConfig = self.config
        batch_end = self._next_batch_end
        self._next_batch_end = batch_end + cfg.batch_interval_s
        if self._is_join:
            volume = self._batch_weight
            partials = None
            traces = None
            self._batch_weight = 0.0
        else:
            volume = self._partials.batch_weight
            partials = self._partials.drain()
            traces = self._partials.drain_traces()
        job = _SparkJob(
            batch_end=batch_end,
            volume=volume,
            partials=partials,
            traces=traces,
            watermark=self.source.watermark,
            created_at=self.sim.now,
            sched_delay=self._sample_scheduler_delay(),
        )
        self._job_queue.append(job)
        if len(self._job_queue) >= MAX_QUEUED_JOBS:
            # The DStream job queue is saturated: the controller slams
            # the receiver rate so the scheduler can drain (the paper's
            # "queued mini-batch jobs will increase over time" failure
            # mode, pre-empted).
            self.backpressure.rate_limit = max(
                MIN_RATE, self.backpressure.rate_limit * 0.5
            )
        self._maybe_start_job()

    def _sample_scheduler_delay(self) -> float:
        cfg: SparkConfig = self.config
        delay = SCHEDULER_BASE_DELAY_S * float(
            self.rng.lognormal(-0.02, 0.2)
        )
        # Occasional spikes; more likely with a loaded scheduler.
        spike_p = SCHEDULER_SPIKE_RATE_PER_S * cfg.batch_interval_s
        spike_p *= 1.0 + len(self._job_queue)
        if self.rng.random() < min(0.5, spike_p):
            delay += float(self.rng.exponential(SCHEDULER_SPIKE_MEAN_S))
        # Queued jobs inflate coordination time.
        delay *= 1.0 + 0.4 * len(self._job_queue)
        return delay

    def _maybe_start_job(self) -> None:
        if self._running_job is not None or not self._job_queue:
            return
        job = self._job_queue.popleft()
        self._running_job = job
        duration = self._job_duration(job)
        self.job_log.append(
            {
                "batch_end": job.batch_end,
                "sched_delay": job.sched_delay,
                "duration": duration,
                "volume": job.volume,
                "started_at": self.sim.now,
            }
        )
        self.sim.schedule(job.sched_delay + duration, self._complete_job, job, duration)

    def _job_duration(self, job: _SparkJob) -> float:
        cfg: SparkConfig = self.config
        capacity = self.cost.skew_capacity_events_per_s(
            self.cluster, self._hot_fraction
        )
        if self._is_join:
            burst = capacity * JOIN_BURST_FACTOR
        else:
            burst = capacity * (
                BURST_FACTOR_BASE
                + BURST_FACTOR_PER_WORKER * (self.cluster.workers - 2)
            )
        duration = JOB_OVERHEAD_S + job.volume / max(burst, 1.0)
        if not self._is_join and not cfg.inverse_reduce:
            # Recompute/cache the windowed state over the whole retained
            # volume -- the Experiment 3 pathology.
            stored = self._store.stored_weight() + job.volume
            budget_us_per_s = (
                self.cluster.worker_cores
                * 1e6
                * self.cost.efficiency(self.cluster.workers)
            )
            duration += stored * CACHE_COST_US_PER_EVENT / budget_us_per_s
        duration *= self.state.cost_multiplier
        sigma = JOIN_DURATION_JITTER_SIGMA if self._is_join else 0.06
        duration *= float(self.rng.lognormal(-(sigma**2) / 2.0, sigma))
        return duration

    def _complete_job(self, job: _SparkJob, duration: float) -> None:
        if self.failed:
            return
        self._running_job = None
        self._emit_ready_windows(job)
        self.backpressure.on_batch_complete(
            processing_time_s=job.sched_delay + duration,
            batch_events=max(job.volume, 1.0),
            queued_jobs=len(self._job_queue),
        )
        self._maybe_start_job()

    def _emit_ready_windows(self, job: _SparkJob) -> None:
        cfg: SparkConfig = self.config
        # Close windows the batch was responsible for: up to the batch
        # boundary, provided ingestion is within the slack of it.
        effective_watermark = min(
            job.watermark + WATERMARK_SLACK_S,
            job.batch_end + 1e-9,
        ) - cfg.allowed_lateness_s
        emit_time = self.sim.now
        outputs = []
        if self._is_join:
            for index in self._store.ready_indices(effective_watermark):
                closed = self._store.close(index, at_time=emit_time)
                outputs.extend(self._outputs(closed, emit_time))
                self.windows_emitted += 1
            self._update_state_usage(self._store.stored_weight())
        else:
            if job.partials:
                self._store.absorb(job.partials, traces=job.traces)
            for contents in self._store.pop_ready(
                effective_watermark, at_time=emit_time
            ):
                outputs.extend(self._outputs(contents, emit_time))
                self.windows_emitted += 1
        if outputs:
            self._emit(outputs)

    def diagnostics(self) -> Dict[str, float]:
        diag = super().diagnostics()
        diag["jobs_run"] = float(len(self.job_log))
        diag["queued_jobs"] = float(len(self._job_queue))
        diag["rate_limit"] = (
            self.backpressure.rate_limit
            if self.backpressure.rate_limit != float("inf")
            else -1.0
        )
        return diag
