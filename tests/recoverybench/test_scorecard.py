"""Recovery benchmark harness: config, grid coverage, decomposition.

Byte-identity (serial / parallel / resumed / golden) is the shared
contract in ``tests/integration/test_grid_contract.py``.
"""

import pytest

from repro.recoverybench import (
    FAULT_KINDS,
    POLICY_NAMES,
    RecoverConfig,
    recover_fingerprint,
    run_recovery_bench,
)
from repro.recoverybench.scorecard import fault_event

SMALL = RecoverConfig(
    engines=("flink",),
    policies=("none", "spread", "standby"),
    kinds=("crash", "restart"),
    intervals=(5.0, 20.0),
    duration_s=40.0,
)


class TestConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            RecoverConfig(engines=())
        with pytest.raises(ValueError):
            RecoverConfig(policies=())
        with pytest.raises(ValueError):
            RecoverConfig(policies=("teleport",))
        with pytest.raises(ValueError):
            RecoverConfig(kinds=())
        with pytest.raises(ValueError):
            RecoverConfig(kinds=("meteor",))
        with pytest.raises(ValueError):
            RecoverConfig(intervals=(0.0,))
        with pytest.raises(ValueError):
            RecoverConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            RecoverConfig(workers=0)

    def test_fault_instant_and_billing(self):
        config = RecoverConfig(duration_s=60.0, workers=2)
        assert config.fault_at_s == 24.0
        assert config.billed_nodes("none") == 2
        assert config.billed_nodes("spread") == 2
        assert config.billed_nodes("standby") == 3

    def test_every_kind_builds_an_event(self):
        for kind in FAULT_KINDS:
            event = fault_event(kind, 10.0)
            assert event.at_s == 10.0
        with pytest.raises(ValueError):
            fault_event("meteor", 10.0)

    def test_fingerprint_distinguishes_configs(self):
        assert recover_fingerprint(SMALL) != recover_fingerprint(
            RecoverConfig(
                engines=("flink",),
                policies=SMALL.policies,
                kinds=SMALL.kinds,
                intervals=SMALL.intervals,
                duration_s=40.0,
                seed=1,
            )
        )
        assert recover_fingerprint(SMALL) == recover_fingerprint(SMALL)


class TestBenchmark:
    @pytest.fixture(scope="class")
    def report(self):
        return run_recovery_bench(SMALL)

    def test_every_cell_scored(self, report):
        assert set(report.cells) == {
            ("flink", policy, kind)
            for policy in SMALL.policies
            for kind in SMALL.kinds
        }

    def test_crash_cells_fully_decomposed(self, report):
        # The acceptance bar: every crash cell recovers with a non-null
        # detect/restore/catch-up decomposition and finite cost.
        for policy in SMALL.policies:
            cell = report.cells[("flink", policy, "crash")]
            assert cell.recovered, (policy, cell)
            assert cell.detection_s == cell.detection_s
            assert cell.restore_s == cell.restore_s
            assert cell.catchup_s == cell.catchup_s
            assert cell.recovery_time_s > 0.0
            assert cell.recovery_cost_node_s > 0.0
            assert cell.guarantee == "exactly-once"

    def test_phases_sum_to_the_recovery_window(self, report):
        for cell in report.cells.values():
            if not cell.recovered:
                continue
            total = cell.detection_s + cell.restore_s + cell.catchup_s
            assert total == pytest.approx(cell.recovery_time_s, abs=1e-9)

    def test_standby_bills_more_than_spread_for_equal_windows(self, report):
        spread = report.cells[("flink", "spread", "crash")]
        standby = report.cells[("flink", "standby", "crash")]
        per_node_spread = spread.recovery_cost_node_s / 2
        per_node_standby = standby.recovery_cost_node_s / 3
        # Standby pays for 3 nodes; its faster (or equal) recovery must
        # show up per-node, not be hidden by the extra billing.
        assert standby.recovery_time_s <= spread.recovery_time_s
        assert per_node_standby <= per_node_spread

    def test_frontier_swept_per_engine(self, report):
        assert set(report.frontiers) == {"flink"}
        points = report.frontiers["flink"]
        assert [p.interval_s for p in points] == list(SMALL.intervals)
        for point in points:
            assert point.recovered
            assert point.checkpoints > 0
            assert point.overhead_fraction > 0.0

    def test_no_invariant_violations(self, report):
        assert report.ok, report.violations

    def test_progress_reports_every_trial(self, report):
        lines = []
        rerun = run_recovery_bench(SMALL, progress=lines.append)
        assert len(lines) == 8  # 6 grid cells + 2 frontier trials
        assert any("flink/standby/crash" in line for line in lines)
        assert any("frontier/flink/20s" in line for line in lines)
        assert rerun.to_json() == report.to_json()


class TestPolicyNamesAreTheRescheduleModes:
    def test_grid_covers_the_reschedule_corners(self):
        assert POLICY_NAMES == ("none", "spread", "standby")
