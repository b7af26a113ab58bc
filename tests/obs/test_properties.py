"""Property tests: lifecycle traces and conservation under random load.

Hypothesis drives randomized end-to-end trials -- engine, query, rate,
window geometry, disorder, and fault schedule all vary -- and checks
the invariants the observability layer is built on:

- **span geometry**: within every trace, spans are ordered, contiguous
  and non-overlapping; a complete trace's span durations sum to its
  measured event-time latency within 1e-9 (the spans *decompose* the
  paper's Definition 1, they never re-measure it);
- **conservation**: per-engine weight accounting balances -- every
  ingested event is staged, admitted, or dropped, and every admitted
  event is closed (emitted), still stored, or lost to a fault, within
  float accumulation error.

Examples are full trials, so example counts are deliberately small;
the point is the random *composition* (e.g. disorder + crash on Samza)
no hand-written scenario covers.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.faults.schedule import (
    FaultSchedule,
    NodeCrash,
    ProcessRestart,
    SlowNode,
)
from repro.obs.context import ObsSpec
from repro.workloads.disorder import DisorderSpec
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

SPAN_TOL = 1e-9
CONSERVATION_REL_TOL = 1e-9

ENGINES = ("flink", "storm", "spark", "heron", "samza")

trial_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workloads(draw):
    """A random but bounded end-to-end trial specification."""
    engine = draw(st.sampled_from(ENGINES))
    window = draw(
        st.sampled_from([WindowSpec(4.0, 2.0), WindowSpec(6.0, 6.0),
                         WindowSpec(8.0, 4.0)])
    )
    if draw(st.booleans()):
        query = WindowedAggregationQuery(window=window)
    else:
        query = WindowedJoinQuery(window=window)
    rate = draw(st.sampled_from([5_000.0, 20_000.0, 60_000.0]))
    disorder_fraction = draw(st.sampled_from([0.0, 0.1, 0.3]))
    disorder = (
        DisorderSpec(fraction=disorder_fraction, max_delay_s=2.0)
        if disorder_fraction > 0
        else None
    )
    fault = draw(
        st.sampled_from(
            [
                None,
                FaultSchedule(events=(ProcessRestart(at_s=12.0),)),
                FaultSchedule(events=(NodeCrash(at_s=12.0),)),
                FaultSchedule(
                    events=(SlowNode(at_s=10.0, duration_s=6.0, factor=0.5),)
                ),
            ]
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return ExperimentSpec(
        engine=engine,
        query=query,
        workers=2,
        profile=rate,
        duration_s=30.0,
        seed=seed,
        generator=GeneratorConfig(instances=2, disorder=disorder),
        monitor_resources=False,
        faults=fault,
        observability=ObsSpec(trace_sample_rate=50),
    )


def assert_span_geometry(log):
    """Marks in time order, spans contiguous, and a complete trace's
    spans telescoping to its event-time latency within 1e-9."""
    assert log.started, "sampler produced no traces at rate 50"
    for trace in log.started:
        # Marks are non-decreasing in time.
        times = [t for _, t in trace.marks]
        assert times == sorted(times)
        # Spans are contiguous (non-overlapping, no gaps).
        spans = trace.spans()
        for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
            assert end == start
    for trace in log.completed:
        assert trace.marks[0][0] == "created"
        assert trace.marks[-1][0] == "emitted"
        span_sum = sum(t1 - t0 for _, t0, t1 in trace.spans())
        assert span_sum == pytest.approx(
            trace.event_time_latency, abs=SPAN_TOL
        )


class TestTraceProperties:
    @trial_settings
    @given(spec=workloads())
    def test_spans_ordered_contiguous_and_telescoping(self, spec):
        assert_span_geometry(run_experiment(spec).observability.trace_log)

    def test_brokered_traces_complete_with_a_broker_span(self):
        """A trace routed through the broker rides the direct part of
        its cohort: it completes, and the broker hop is its own span
        between the generator-side and the SUT-side ``enqueued``."""
        spec = ExperimentSpec(
            engine="flink",
            workers=2,
            profile=30_000.0,
            duration_s=30.0,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
            broker=True,
            observability=ObsSpec(trace_sample_rate=50),
        )
        log = run_experiment(spec).observability.trace_log
        assert log.completed, "no brokered trace completed"
        assert_span_geometry(log)
        for trace in log.completed:
            names = [name for name, _ in trace.marks]
            assert names[:4] == ["created", "enqueued", "enqueued", "ingested"]
            assert "enqueued->enqueued" in trace.span_durations()

    @trial_settings
    @given(spec=workloads())
    def test_dropped_traces_never_complete(self, spec):
        result = run_experiment(spec)
        for trace in result.observability.trace_log.started:
            if trace.dropped:
                assert not trace.complete


def assert_conservation(result):
    """ingested == staged + admitted + dropped and
    admitted == closed + stored + lost, within float accumulation."""
    ledger = {
        key.split(".", 1)[1]: value
        for key, value in result.diagnostics.items()
        if key.startswith("conservation.")
    }
    assert ledger["ingested"] >= 0.0
    tol = CONSERVATION_REL_TOL * max(1.0, ledger["ingested"])
    assert ledger["ingested"] == pytest.approx(
        ledger.get("staged", 0.0) + ledger["admitted"] + ledger["dropped"],
        abs=tol,
    )
    assert ledger["admitted"] == pytest.approx(
        ledger["closed"] + ledger["stored"] + ledger["lost"],
        abs=tol,
    )


class TestConservationProperties:
    @trial_settings
    @given(spec=workloads())
    def test_weight_conservation_ledger_balances(self, spec):
        """Conservation for every engine, under random disorder and
        fault schedules."""
        assert_conservation(run_experiment(spec))


@pytest.mark.slow
class TestDeepSweep:
    """The same invariants over a much larger random sample -- CI's
    dedicated slow step; excluded from the tier-1 default run."""

    deep_settings = settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @deep_settings
    @given(spec=workloads())
    def test_traces_and_conservation_hold_jointly(self, spec):
        result = run_experiment(spec)
        assert_conservation(result)
        for trace in result.observability.trace_log.completed:
            span_sum = sum(t1 - t0 for _, t0, t1 in trace.spans())
            assert span_sum == pytest.approx(
                trace.event_time_latency, abs=SPAN_TOL
            )
