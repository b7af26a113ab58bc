"""Tests for the CLI and the JSON export layer."""

import json

import pytest

from repro.analysis.export import (
    search_to_dict,
    summary_to_dict,
    trial_to_dict,
    write_json,
)
from repro.cli import build_parser, main
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.metrics import StatSummary, weighted_summary
from repro.core.sustainable import find_sustainable_throughput
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


OVERLOADED_STORM = ExperimentSpec(
    engine="storm",
    query=WindowedAggregationQuery(window=WindowSpec(8, 4)),
    workers=2,
    duration_s=40.0,
    generator=GeneratorConfig(instances=2),
    monitor_resources=False,
)
"""1.6 M/s and 0.8 M/s are four and two times what this sustains: both
probes settle at the first sample the rule may speak (warm-up 10 s +
10 samples)."""


@pytest.fixture(scope="module")
def small_trial():
    return run_experiment(
        ExperimentSpec(
            engine="flink",
            query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
            workers=2,
            profile=10_000.0,
            duration_s=30.0,
            generator=GeneratorConfig(instances=1),
            monitor_resources=False,
        )
    )


class TestExport:
    def test_summary_round_trip(self):
        d = summary_to_dict(weighted_summary([1.0, 2.0, 3.0]))
        assert d["count"] == 3
        assert d["mean"] == pytest.approx(2.0)

    def test_nan_becomes_none(self):
        d = summary_to_dict(StatSummary.empty())
        assert d["mean"] is None

    def test_trial_dict_fields(self, small_trial):
        d = trial_to_dict(small_trial)
        assert d["engine"] == "flink"
        assert d["failure"] is None
        assert d["event_latency"]["count"] > 0

    def test_trial_dict_with_series(self, small_trial):
        d = trial_to_dict(small_trial)
        assert len(d["series"]["ingest_rate"]["t"]) > 0
        assert len(d["series"]["event_latency"]["t"]) > 0

    def test_trial_dict_is_json_serialisable(self, small_trial):
        text = json.dumps(trial_to_dict(small_trial))
        assert "flink" in text

    def test_write_json_creates_parents(self, tmp_path, small_trial):
        target = tmp_path / "a" / "b" / "trial.json"
        path = write_json(trial_to_dict(small_trial), target)
        assert path.exists()
        assert json.loads(path.read_text())["engine"] == "flink"

    def test_search_dict(self):
        spec = ExperimentSpec(
            engine="flink",
            query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
            workers=2,
            duration_s=30.0,
            generator=GeneratorConfig(instances=1),
            monitor_resources=False,
        )
        search = find_sustainable_throughput(
            spec, high_rate=20_000.0, max_trials=2
        )
        d = search_to_dict(search)
        assert d["trial_count"] == len(d["trials"])
        assert all("rate" in t for t in d["trials"])
        # Nothing was stopped: the ladder cost its planned length.
        assert d["simulated_s"] == 30.0 * d["trial_count"]
        assert all("stopped_at_s" not in t for t in d["trials"])

    def test_search_dict_says_where_probes_stopped(self):
        search = find_sustainable_throughput(
            OVERLOADED_STORM, high_rate=1.6e6, max_trials=2
        )
        d = search_to_dict(search)
        first, second = d["trials"]
        assert first["stopped_at_s"] == 20.0
        assert first["reasons"][0] == (
            "stopped at 20.0s of 40.0s: verdict settled"
        )
        assert second["stopped_at_s"] == 20.0
        assert d["simulated_s"] == 40.0 < 2 * 40.0
        json.dumps(d)


class TestCliParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("engines", "chaos"):
            args = parser.parse_args([command])
            assert args.command == command
        for command in ("run", "search", "sweep"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.engine == "flink"
        assert args.query == "aggregation"
        assert args.workers == 2

    def test_unknown_engine_rejected(self, capsys):
        # "apex" is named in the paper's future work but has no model
        # here (heron/samza may be registered by the extension package).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "apex"])

    def test_key_distribution_choices(self):
        args = build_parser().parse_args(["run", "--keys", "zipf"])
        assert args.keys == "zipf"


class TestCliExecution:
    def run_cli(self, argv):
        return main(argv)

    def test_engines_command(self, capsys):
        assert self.run_cli(["engines"]) == 0
        out = capsys.readouterr().out
        assert "flink" in out and "storm" in out and "spark" in out

    def test_run_command_small(self, capsys, tmp_path):
        code = self.run_cli(
            [
                "run",
                "--engine", "flink",
                "--rate", "10000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "event-time latency" in out
        assert (tmp_path / "out.json").exists()

    def test_search_command_small(self, capsys):
        code = self.run_cli(
            [
                "search",
                "--engine", "flink",
                "--high-rate", "20000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
            ]
        )
        assert code == 0
        assert "sustainable throughput" in capsys.readouterr().out

    def test_search_says_why_and_what_it_cost(self, capsys):
        code = self.run_cli(
            [
                "search",
                "--engine", "storm",
                "--high-rate", "1600000",
                "--duration", "40",
                "--generators", "2",
                "--no-resources",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # Before the ladder, where it comes from: the second probe is
        # the upper edge of the cell the ceiling's ingest rate aims at.
        aim = lines[0].split()
        assert aim[:2] == ["ceiling", "ingested"] and aim[3] == "M/s"
        assert aim[4:7] == ["->", "aiming", "at"] and aim[9] == "M/s"
        lo, hi = float(aim[7].strip("(,")), float(aim[8].strip("]"))
        assert lo < float(aim[2]) <= hi
        assert lines[2].split()[0] == f"{hi:.3f}"
        ceiling = next(line for line in lines if "1.600 M/s" in line)
        assert "UNSUSTAINABLE  (stopped at 20 s: queue backlog" in ceiling
        # A failing probe that ran its full length still says why.
        marginal = [
            line for line in lines
            if "UNSUSTAINABLE" in line and "stopped at" not in line
        ]
        assert marginal and all("  (" in line for line in marginal)
        summary = lines[-1]
        assert summary.startswith("sustainable throughput: ")
        probes = sum("M/s  " in line for line in lines)
        assert f"of {40 * probes} s)" in summary
        simulated = float(summary.split("simulated ")[1].split(" of")[0])
        assert simulated < 40 * probes

    def test_resume_refuses_the_journal_of_a_different_experiment(
        self, capsys, tmp_path
    ):
        """Regression: the fingerprint named the spec by engine /
        workers / query kind only, so 20-second probes of one query
        replayed as the result of 60-second probes of another."""
        journal = str(tmp_path / "j.json")
        first = ["search", "--engine", "flink", "--duration", "20",
                 "--journal", journal]
        assert self.run_cli(first) == 0
        assert "0 replayed" in capsys.readouterr().out
        code = self.run_cli(
            [
                "search", "--engine", "flink", "--duration", "60",
                "--window-size", "16", "--keys", "uniform",
                "--num-keys", "1024", "--journal", journal, "--resume",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "written by a different experiment" in captured.err
        assert "replayed" not in captured.out
        # The same experiment still resumes, replaying every probe.
        assert self.run_cli(first + ["--resume"]) == 0
        assert "0 run live" in capsys.readouterr().out

    def test_run_with_recovery_knobs(self, capsys):
        # Standby pool + recommended shedding through the CLI: the
        # crash of both workers survives via promotion.
        code = self.run_cli(
            [
                "run",
                "--engine", "flink",
                "--rate", "10000",
                "--duration", "40",
                "--workers", "2",
                "--generators", "1",
                "--no-resources",
                "--fault", "crash@20",
                "--standby", "1",
                "--reschedule", "standby",
                "--shed", "recommended",
            ]
        )
        assert code == 0
        assert "fault recovery" in capsys.readouterr().out

    def test_chaos_command_small(self, capsys, tmp_path):
        code = self.run_cli(
            [
                "chaos",
                "--seed", "2",
                "--rounds", "1",
                "--engines", "flink",
                "--duration", "30",
                "--rate", "20000",
                "--verbose",
                "--output", str(tmp_path / "chaos.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert "flink/standby" in payload["scorecards"]
        assert payload["violations"] == []

    def test_chaos_parallel_matches_serial_output(self, capsys, tmp_path):
        # The CLI surface of the scheduler invariant: --workers N only
        # changes wall-clock, never a byte of the scorecard.
        base = [
            "chaos",
            "--seed", "2",
            "--rounds", "1",
            "--engines", "flink",
            "--duration", "30",
            "--rate", "20000",
        ]
        serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
        assert self.run_cli(base + ["--output", str(serial)]) == 0
        assert (
            self.run_cli(base + ["--workers", "3", "--output", str(parallel)])
            == 0
        )
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_parallel_matches_serial_output(self, capsys, tmp_path):
        # Sweep cells are where search parallelism lives: --jobs N only
        # changes wall-clock, never a byte of the export.  Two cells, so
        # the pool really forks (a lone cell runs inline).
        base = [
            "sweep",
            "--engines", "flink", "storm",
            "--worker-counts", "2",
            "--high-rate", "1600000",
            "--duration", "30",
            "--generators", "1",
            "--no-resources",
        ]
        serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
        assert (
            self.run_cli(base + ["--jobs", "1", "--output", str(serial)])
            == 0
        )
        assert (
            self.run_cli(base + ["--jobs", "2", "--output", str(parallel)])
            == 0
        )
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
        assert list(json.loads(serial.read_text())) == ["flink/2", "storm/2"]

    def test_run_failure_exit_code(self, capsys):
        # Grossly overloaded with a tiny queue: the trial fails and the
        # CLI signals it through the exit code.
        code = self.run_cli(
            [
                "run",
                "--engine", "storm",
                "--rate", "5000000",
                "--duration", "60",
                "--generators", "1",
                "--no-resources",
            ]
        )
        assert code == 1
