"""Unit tests for paper-style table rendering."""

from repro.core.metrics import weighted_summary
from repro.core.report import latency_table, shape_check, throughput_table


class TestThroughputTable:
    def test_contains_engines_and_rates(self):
        table = throughput_table(
            "Table I",
            measured={("flink", 2): 1.18e6, ("storm", 2): 0.39e6},
            workers=(2,),
        )
        assert "Table I" in table
        assert "flink" in table and "storm" in table
        assert "1.18 M/s" in table
        assert "0.39 M/s" in table

    def test_paper_columns_rendered(self):
        table = throughput_table(
            "T",
            measured={("flink", 2): 1.18e6},
            paper={("flink", 2): 1.20e6},
            workers=(2,),
        )
        assert "paper" in table
        assert "1.20 M/s" in table

    def test_missing_cells_rendered_as_dashes(self):
        table = throughput_table(
            "T", measured={("flink", 2): 1.0e6}, workers=(2, 4)
        )
        assert "--" in table


class TestLatencyTable:
    def test_rows_rendered(self):
        summary = weighted_summary([1.0, 2.0, 3.0])
        table = latency_table(
            "Table II",
            measured={("flink", 2): summary, ("flink(90%)", 2): summary},
        )
        assert "flink" in table
        assert "flink(90%)" in table
        assert "2.00" in table

    def test_rows_follow_the_measured_cluster_sizes(self):
        summary = weighted_summary([1.0])
        table = latency_table(
            "T", measured={("flink", 8): summary, ("flink", 2): summary}
        )
        rows = table.splitlines()[2:]
        assert [row.split()[1] for row in rows] == ["2-node", "8-node"]

    def test_paper_reference_appended(self):
        summary = weighted_summary([1.0])
        table = latency_table(
            "T",
            measured={("flink", 2): summary},
            paper={("flink", 2): (0.5, 0.004, 12.3, 1.4, 2.2, 5.2)},
        )
        assert "paper:" in table
        assert "12" in table


class TestShapeCheck:
    def test_ok_and_miss(self):
        ok, line = shape_check("flink wins", True)
        assert ok and "[OK ]" in line
        ok, line = shape_check("spark wins", False, detail="it did not")
        assert not ok and "[MISS]" in line and "it did not" in line
