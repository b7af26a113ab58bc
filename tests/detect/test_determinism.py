"""Determinism properties for the detection plane.

The plane rides the simulated clock and a dedicated seeded RNG stream,
so its verdict stream is part of the experiment's deterministic output:
the same spec must yield byte-identical detection metrics whether the
soak runs serially, fanned over worker processes, or resumed from a
journal -- and whether the engines are the production (columnar) ones
or the record-at-a-time oracle engines (:mod:`tests.oracle`).
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.detect.plane import DETECTOR_KINDS
from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    FaultSchedule,
    FlappingNode,
)
from repro.metrology import TrialJournal
from repro.recovery.chaos import ChaosConfig, chaos_fingerprint, run_chaos
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

from tests.oracle import oracle_engines

FAULTS = {
    "flap": FlappingNode(
        at_s=12.0, duration_s=16.0, node=1, period_s=6.0, duty=0.5, seed=7
    ),
    "degrade": DegradingNode(
        at_s=12.0, duration_s=14.0, node=1, floor_factor=0.25
    ),
    "asympart": AsymmetricPartition(
        at_s=15.0, duration_s=8.0, node=1, direction="heartbeat"
    ),
}


def _detection_dict(detector, fault_name, seed):
    spec = ExperimentSpec(
        engine="flink",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=20_000.0,
        duration_s=40.0,
        seed=seed,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        faults=FaultSchedule((FAULTS[fault_name],)),
        standby=1,
        detector=detector,
    )
    return run_experiment(spec).detection.to_dict()


class TestScalarColumnarIdentity:
    @given(
        detector=st.sampled_from(DETECTOR_KINDS),
        fault=st.sampled_from(sorted(FAULTS)),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_detection_identical_under_scalar_engine(self, detector, fault):
        # The columnar tick loop is bitwise-identical to the
        # record-at-a-time oracle; the heartbeat plane hangs off the
        # same simulated clock, so every verdict -- time, node,
        # classification -- must survive the kernel swap unchanged.
        columnar = _detection_dict(detector, fault, seed=3)
        with oracle_engines():
            scalar = _detection_dict(detector, fault, seed=3)
        assert scalar == columnar


SOAK = ChaosConfig(
    seed=11,
    rounds=1,
    engines=("flink",),
    duration_s=30.0,
    rate=10_000.0,
    detector="phi",
    gray_faults=True,
)


class TestSoakIdentity:
    @given(detector=st.sampled_from(DETECTOR_KINDS))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_serial_parallel_resumed_byte_identical(
        self, detector, tmp_path_factory
    ):
        # Three executions of one soak -- serial, fanned over worker
        # processes, and replayed from a journal -- must agree on every
        # byte of both the scorecard JSON *and* the per-trial digests
        # (which embed the full verdict stream, not just the scorecard
        # roll-up).
        config = dataclasses.replace(SOAK, detector=detector)
        tmp = tmp_path_factory.mktemp(f"soak-{detector}")
        fingerprint = chaos_fingerprint(config)

        serial_journal = TrialJournal(
            tmp / "serial.json", fingerprint=fingerprint
        )
        serial = run_chaos(config, journal=serial_journal)

        parallel_journal = TrialJournal(
            tmp / "parallel.json", fingerprint=fingerprint
        )
        parallel = run_chaos(config, journal=parallel_journal, workers=2)

        resumed_journal = TrialJournal(
            tmp / "serial.json", fingerprint=fingerprint, resume=True
        )
        resumed = run_chaos(config, journal=resumed_journal)

        assert parallel.to_json() == serial.to_json()
        assert resumed.to_json() == serial.to_json()
        assert resumed_journal.hits == 3  # every cell replayed, none live

        serial_entries = json.loads(
            (tmp / "serial.json").read_text()
        )["entries"]
        parallel_entries = json.loads(
            (tmp / "parallel.json").read_text()
        )["entries"]
        assert parallel_entries == serial_entries
        assert any(
            digest.get("detection") is not None
            for digest in serial_entries.values()
        )
