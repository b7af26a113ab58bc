"""The checkpoint model's derived pauses."""

import pytest

from repro.faults import checkpoint
from repro.faults.checkpoint import (
    DETECTION_TIMEOUT_S,
    REBALANCE_BASE_S,
    REPLAY_COST_FACTOR,
    RESTART_BASE_S,
    CheckpointSpec,
    RecoverySemantics,
    recovery_pause_s,
    restore_s,
    sync_pause_s,
)
from repro.faults.guarantees import DeliveryGuarantee
from repro.sim.cluster import NIC_BYTES_PER_S


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointSpec(interval_s=0.0)

    def test_guarantee_override_field(self):
        spec = CheckpointSpec(guarantee=DeliveryGuarantee.AT_LEAST_ONCE)
        assert spec.guarantee is DeliveryGuarantee.AT_LEAST_ONCE


class TestSteadyState:
    def test_sync_pause_scales_with_state(self, monkeypatch):
        monkeypatch.setattr(checkpoint, "SYNC_PAUSE_BASE_S", 0.02)
        monkeypatch.setattr(checkpoint, "SYNC_PAUSE_S_PER_GB", 0.1)
        assert sync_pause_s(0.0) == pytest.approx(0.02)
        assert sync_pause_s(2e9) == pytest.approx(0.02 + 0.2)


class TestRecoveryPause:
    def test_restore_time_proportional_to_state_over_nic(self, monkeypatch):
        monkeypatch.setattr(checkpoint, "RESTORE_NIC_FRACTION", 0.8)
        # 3 surviving workers, 1 Gbit NICs at 80%: 300 MB/s aggregate.
        bandwidth = 3 * NIC_BYTES_PER_S * 0.8
        assert restore_s(600e6, 3) == pytest.approx(600e6 / bandwidth)

    def test_checkpoint_restore_includes_replay_window(self):
        short = recovery_pause_s(
            RecoverySemantics.CHECKPOINT_RESTORE,
            state_bytes=0.0, active_workers=3, workers=4,
            replay_span_s=2.0, lost_fraction=0.25,
        )
        long = recovery_pause_s(
            RecoverySemantics.CHECKPOINT_RESTORE,
            state_bytes=0.0, active_workers=3, workers=4,
            replay_span_s=10.0, lost_fraction=0.25,
        )
        assert long - short == pytest.approx(8.0 * REPLAY_COST_FACTOR)

    def test_lineage_recompute_scales_with_lost_state_only(self):
        base = recovery_pause_s(
            RecoverySemantics.LINEAGE_RECOMPUTE,
            state_bytes=8e9, active_workers=4, workers=4,
            replay_span_s=10.0, lost_fraction=0.0,
        )
        half_lost = recovery_pause_s(
            RecoverySemantics.LINEAGE_RECOMPUTE,
            state_bytes=8e9, active_workers=4, workers=4,
            replay_span_s=10.0, lost_fraction=0.5,
        )
        # No replay term; only the lost partitions are recomputed.
        assert base == pytest.approx(DETECTION_TIMEOUT_S + RESTART_BASE_S)
        assert half_lost > base

    def test_tuple_replay_grows_with_cluster_size(self):
        kwargs = dict(
            state_bytes=1e9, replay_span_s=5.0, lost_fraction=0.5
        )
        small = recovery_pause_s(
            RecoverySemantics.TUPLE_REPLAY,
            active_workers=1, workers=2, **kwargs
        )
        large = recovery_pause_s(
            RecoverySemantics.TUPLE_REPLAY,
            active_workers=7, workers=8, **kwargs
        )
        assert large == pytest.approx(
            DETECTION_TIMEOUT_S + REBALANCE_BASE_S * 2.0
        )
        assert large > small

    def test_tuple_replay_ignores_state_bytes(self):
        kwargs = dict(
            active_workers=3, workers=4,
            replay_span_s=5.0, lost_fraction=0.25,
        )
        a = recovery_pause_s(
            RecoverySemantics.TUPLE_REPLAY, state_bytes=0.0, **kwargs
        )
        b = recovery_pause_s(
            RecoverySemantics.TUPLE_REPLAY, state_bytes=100e9, **kwargs
        )
        assert a == b
