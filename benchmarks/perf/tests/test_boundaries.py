"""The boundary table against the real program: restore, digest, sums."""

import pathlib

import pytest

import repro.engines.flink
from repro.engines.operators import aggregate

from benchmarks.perf import boundaries, worker, workloads
from benchmarks.perf.tracing import Tracer


@pytest.fixture(scope="module")
def tracer():
    tracer = Tracer(boundaries.classify)
    boundaries.install(tracer)
    return tracer


def short_trial():
    spec = workloads.trial_spec(
        "flink", workloads.WindowedAggregationQuery(window=workloads.WINDOW),
        workloads.WARMUP_SIM_S, seed=5,
    )
    return workloads.run_trial(spec)


def test_every_wrapped_attribute_is_the_original_after_exit(tracer):
    original = aggregate.aggregation_outputs
    with tracer:
        # A name imported by value is replaced where it was copied to.
        assert repro.engines.flink.aggregation_outputs is not original
    assert repro.engines.flink.aggregation_outputs is original
    assert len(tracer.patched()) > 40
    for owner, attr, was in tracer.patched():
        assert vars(owner)[attr] is was, (owner, attr)


def test_traced_trial_has_the_untraced_digest_and_sums_to_its_root(tracer):
    plain = short_trial()
    with tracer:
        traced = short_trial()
    taken = tracer.take()
    assert not plain.failures and not traced.failures
    assert workloads.digest(traced.stats) == workloads.digest(plain.stats)
    assert sum(taken["self_s"].values()) == pytest.approx(taken["root_s"])
    metrics = boundaries.layer_metrics(taken)
    assert metrics["core.experiment.trials"] == 1
    assert metrics["engines.ticks"] > 0 and metrics["core.generator.ticks"] > 0
    # Planes a fault-free fixed-size trial never enters stay at zero.
    for name in (
        "faults.injected", "detect.callbacks", "autoscale.decisions",
        "obs.samples", "metrology.journal.records", "grid.cells",
    ):
        assert metrics[name] == 0, name


def test_ledger_flags_a_digest_that_changes_between_repeats():
    ledger = worker.Ledger()
    ledger.absorb("op", workloads.Outcome(stats={"x": 1.0}, attempted=1), "timed")
    ledger.absorb("op", workloads.Outcome(stats={"x": 1.0}, attempted=1), "timed")
    assert not ledger.failures
    ledger.absorb("op", workloads.Outcome(stats={"x": 2.0}, attempted=1), "timed")
    assert len(ledger.failures) == 1 and ledger.attempted == 3


def test_labels_table_matches_the_built_workloads(tmp_path: pathlib.Path):
    for name, labels in workloads.LABELS.items():
        built = workloads.build(name, seed=1, scratch=tmp_path)
        assert [op.label for op in built.operations] == labels
