"""Detection-plane scenario tests: the behaviour matrix the gray fault
family was built to expose, pinned end to end through run_experiment.

Each test runs a real trial; the scenarios are the canonical ones from
the module contract in :mod:`repro.detect.plane`:

- a flapping node is detected and migrated away (true positive);
- a heartbeat-direction asymmetric partition baits single-observer
  detectors into a *false* positive that costs a real migration pause,
  while the quorum detector stays unsplit;
- a data-direction asymmetric partition is a guaranteed false negative
  (real outage, healthy heartbeats);
- a calm trial yields no suspicion from any detector;
- with no detector configured, the trial is byte-identical to a build
  that has never heard of the detection plane.
"""

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.detect.plane import DETECTOR_KINDS
from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    FaultSchedule,
    FlappingNode,
    NodeCrash,
)
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def _trial(detector, faults=None, **overrides):
    kwargs = dict(
        engine="flink",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=20_000.0,
        duration_s=40.0,
        seed=0,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        faults=FaultSchedule(tuple(faults)) if faults else None,
        standby=1,
        detector=detector,
    )
    kwargs.update(overrides)
    return run_experiment(ExperimentSpec(**kwargs))


FLAP = FlappingNode(
    at_s=12.0, duration_s=16.0, node=1, period_s=6.0, duty=0.5, seed=7
)


class TestSpec:
    def test_spec_validation(self):
        # The plane rejects an unknown kind as it is built, before the
        # trial simulates anything.
        with pytest.raises(ValueError, match="bogus"):
            _trial("bogus")


class TestFlapScenario:
    def test_flap_is_detected_and_migrated(self):
        result = _trial("phi", [FLAP])
        det = result.detection
        assert not result.failed
        assert det.episodes == 1
        assert det.true_positives >= 1
        assert det.false_positives == 0
        assert det.false_negatives == 0
        assert det.detection_latencies_s
        assert det.actions >= 1
        # A true-positive migration is *not* spurious: the node-second
        # bill for wrong verdicts stays zero.
        assert det.spurious_migration_node_s == 0.0
        assert result.diagnostics["detect.actions"] >= 1

    def test_phi_beats_timeout_on_gray_faults(self):
        # The headline claim (checked over five scenarios by
        # `repro paper`'s ext_detection):
        # at zero false positives, phi convicts earlier than the fixed
        # timeout on a flapping node, and still convicts a fail-slow
        # ramp shallow enough that the timeout never fires at all.
        flap_timeout = _trial("timeout", [FLAP]).detection
        flap_phi = _trial("phi", [FLAP]).detection
        assert flap_timeout.false_positives == flap_phi.false_positives == 0
        assert (
            flap_phi.detection_latency_mean_s
            < flap_timeout.detection_latency_mean_s
        )
        ramp = DegradingNode(
            at_s=12.0, duration_s=14.0, node=1, floor_factor=0.3
        )
        ramp_timeout = _trial("timeout", [ramp]).detection
        ramp_phi = _trial("phi", [ramp]).detection
        assert ramp_timeout.false_negatives == 1
        assert ramp_phi.true_positives == 1
        assert ramp_phi.false_negatives == 0

    def test_cascade_depth_is_bounded(self):
        for kind in DETECTOR_KINDS:
            det = _trial(kind, [FLAP]).detection
            assert det.cascade_depth_max <= 2  # cluster size


class TestAsymmetricPartition:
    HB = AsymmetricPartition(
        at_s=15.0, duration_s=8.0, node=1, direction="heartbeat"
    )
    DATA = AsymmetricPartition(
        at_s=15.0, duration_s=8.0, node=1, direction="data"
    )

    def test_heartbeat_split_baits_single_observer_detectors(self):
        det = _trial("timeout", [self.HB]).detection
        assert det.false_positives >= 1
        # The false conviction costs a real migration pause, billed in
        # node-seconds -- spurious detection is not free.
        assert det.spurious_migrations >= 1
        assert det.spurious_migration_node_s > 0.0

    def test_quorum_stays_unsplit(self):
        # Only observer 0 is blinded (observers_affected=1 < k=2), so
        # the quorum never convicts the healthy node.
        det = _trial("quorum", [self.HB]).detection
        assert det.false_positives == 0
        assert det.actions == 0

    def test_data_direction_is_a_guaranteed_false_negative(self):
        det = _trial("phi", [self.DATA]).detection
        assert det.episodes == 1
        assert det.false_negatives == 1
        assert det.true_positives == 0
        assert det.false_positives == 0


class TestCalm:
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_no_false_positives_under_calm(self, kind):
        det = _trial(kind).detection
        assert det.calm
        assert det.suspicions == 0
        assert det.false_positives == 0
        assert det.actions == 0
        assert not det.metastable


class TestByteIdentity:
    def test_no_detector_leaves_the_trial_untouched(self):
        # spec.detector=None must not even construct the plane: the
        # result carries no detection record and no detect diagnostics.
        result = _trial(None, [FLAP])
        assert result.detection is None
        assert not any(k.startswith("detect.") for k in result.diagnostics)

    def test_timeout_detector_is_inert_on_legacy_faults(self):
        # The acceptance bar: on a fail-stop schedule the default
        # TimeoutDetector observes (and records verdicts) but never
        # *acts* -- crash victims are already dead -- so every
        # pre-existing measurement is bit-for-bit unchanged.
        faults = [NodeCrash(at_s=20.0, nodes=1)]
        plain = _trial(None, faults)
        timed = _trial("timeout", faults)
        assert timed.detection.actions == 0
        assert timed.detection.spurious_migration_node_s == 0.0

        def measured(diag):
            # Drop the detect.* keys the plane itself adds; everything
            # else must match.
            return {
                k: v for k, v in diag.items() if not k.startswith("detect.")
            }

        assert measured(timed.diagnostics) == measured(plain.diagnostics)
        assert timed.event_latency.row() == plain.event_latency.row()
        assert (
            timed.processing_latency.row() == plain.processing_latency.row()
        )
        assert [m.to_dict() for m in timed.recovery or []] == [
            m.to_dict() for m in plain.recovery or []
        ]
