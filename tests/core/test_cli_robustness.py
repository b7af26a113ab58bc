"""CLI surface of the measurement-plane hardening (PR 5).

Bad argument *values* must exit 2 with a one-line error (never a
traceback), and the new flags -- --clock-skew, --driver-fault,
--trial-timeout/--trial-stall, --journal/--resume -- must round-trip
through the real commands.
"""

import json
import math

import pytest

from repro.autoscale.scorecard import ElasticityConfig
from repro.cli import build_parser, main
from repro.core import experiment, sustainable
from repro.recovery.chaos import ChaosConfig
from repro.recoverybench import RecoverConfig
from repro.faults.schedule import DriverNodeSlow, GeneratorCrash
from repro.metrology.journal import shard_path
from repro.sim.clock import ClockSkewSpec


class TestParsing:
    def test_clock_skew_full_form(self):
        args = build_parser().parse_args(
            ["run", "--clock-skew", "5:40:0.5:15"]
        )
        spec = args.clock_skew
        assert isinstance(spec, ClockSkewSpec)
        assert spec.offset_s == pytest.approx(0.005)
        assert spec.drift_ppm == pytest.approx(40.0)
        assert spec.ntp_residual_s == pytest.approx(0.0005)
        assert spec.ntp_interval_s == pytest.approx(15.0)

    def test_clock_skew_short_form_uses_defaults(self):
        spec = build_parser().parse_args(
            ["run", "--clock-skew", "10"]
        ).clock_skew
        assert spec.offset_s == pytest.approx(0.010)
        assert spec.drift_ppm == pytest.approx(20.0)

    def test_malformed_clock_skew_is_an_argument_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--clock-skew", "abc"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--clock-skew", "1:2:3:4:5"])

    def test_driver_fault_kinds(self):
        args = build_parser().parse_args(
            [
                "run",
                "--driver-fault", "gencrash@20",
                "--driver-fault", "driverslow@30:5",
            ]
        )
        crash, slow = args.driver_fault
        assert isinstance(crash, GeneratorCrash) and crash.at_s == 20.0
        assert isinstance(slow, DriverNodeSlow) and slow.duration_s == 5.0

    def test_unknown_driver_fault_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--driver-fault", "crash@20"])

    def test_search_has_no_jobs_flag(self):
        # A search's probes run one after another; parallelism is per
        # sweep cell (``sweep --jobs``).
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["search", "--jobs", "2"])
        assert exit_.value.code == 2

    @pytest.mark.parametrize(
        "command, config",
        [
            ("chaos", ChaosConfig),
            ("recover", RecoverConfig),
            ("autoscale", ElasticityConfig),
        ],
    )
    def test_grid_commands_default_to_their_configs_engines(
        self, command, config
    ):
        # One default grid, one cell order: ``repro chaos`` and
        # ``run_chaos(ChaosConfig())`` write the same report bytes.
        args = build_parser().parse_args([command])
        assert tuple(args.engines) == config().engines


class TestArgumentValueErrors:
    def run_cli(self, argv):
        return main(argv)

    def test_bad_generator_count_exits_2(self, capsys):
        code = self.run_cli(
            ["run", "--generators", "0", "--duration", "10", "--no-resources"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "instances" in err

    def test_uncorrected_without_skew_exits_2(self, capsys):
        code = self.run_cli(
            ["run", "--uncorrected-clocks", "--duration", "10",
             "--no-resources"]
        )
        assert code == 2
        assert "--clock-skew" in capsys.readouterr().err

    def test_resume_without_journal_exits_2(self, capsys):
        code = self.run_cli(
            ["search", "--resume", "--duration", "10", "--no-resources"]
        )
        assert code == 2
        assert "--journal" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chaos", "recover", "autoscale"])
    def test_usage_error_leaves_journal_shards_alone(
        self, command, capsys, tmp_path
    ):
        # A killed parallel run's only copy of its finished trials is
        # in the worker shards; opening a fresh journal clears them, so
        # a rejected flag must be rejected before the journal is opened.
        journal = tmp_path / "grid.json"
        shard = shard_path(journal, 0)
        shard.write_text("{}")
        code = self.run_cli(
            [command, "--journal", str(journal), "--workers", "0",
             "--engines", "flink"]
        )
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert shard.exists()

    def test_sweep_jobs_below_one_exits_2(self, capsys):
        code = self.run_cli(
            ["sweep", "--jobs", "0", "--engines", "flink",
             "--worker-counts", "2", "--high-rate", "20000",
             "--duration", "30", "--generators", "1", "--no-resources"]
        )
        assert code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_negative_trace_sample_rate_exits_2(self, capsys):
        # Not "tracing off": 0 is the off value, below it is an error.
        code = self.run_cli(
            ["run", "--trace-sample-rate", "-3", "--duration", "10",
             "--no-resources"]
        )
        assert code == 2
        assert "trace_sample_rate must be >= 0" in capsys.readouterr().err


class TestExecution:
    def run_cli(self, argv):
        return main(argv)

    def test_run_with_skew_and_watchdog(self, capsys, tmp_path):
        out = tmp_path / "trial.json"
        code = self.run_cli(
            [
                "run",
                "--rate", "10000",
                "--duration", "30",
                "--generators", "2",
                "--no-resources",
                "--clock-skew", "5:20:0.5:30",
                "--trial-stall", "10",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert "clock-skew bound" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["metrology.skew_within_bound"] == 1.0
        assert payload["diagnostics"]["watchdog.attempts"] == 1.0
        assert [a["outcome"] for a in payload["attempts"]] == ["completed"]

    def test_run_with_driver_fault(self, capsys):
        code = self.run_cli(
            [
                "run",
                "--rate", "10000",
                "--duration", "40",
                "--generators", "2",
                "--no-resources",
                "--driver-fault", "gencrash@20",
            ]
        )
        assert code == 0
        assert "gencrash" in capsys.readouterr().out

    def test_the_watchdog_reaches_every_search_probe(
        self, capsys, monkeypatch
    ):
        # ``--trial-timeout`` wraps each probe of a search, and of each
        # sweep cell's search, in the watchdog -- not one probe, not none.
        watched, judged = [], []
        watchdog_run = experiment.run_experiment_with_watchdog
        assess = sustainable.assess

        def counting_watchdog(spec, **kwargs):
            watched.append(spec)
            return watchdog_run(spec, **kwargs)

        def counting_assess(result, criteria):
            judged.append(result)
            return assess(result, criteria)

        monkeypatch.setattr(
            experiment, "run_experiment_with_watchdog", counting_watchdog
        )
        monkeypatch.setattr(sustainable, "assess", counting_assess)
        cell = [
            "--high-rate", "1600000",
            "--duration", "30",
            "--generators", "1",
            "--no-resources",
            "--trial-timeout", "600",
        ]
        assert self.run_cli(["search", "--engine", "flink", *cell]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        probes = int(summary.split("(")[1].split()[0])
        assert probes > 1
        assert len(watched) == len(judged) == probes

        watched.clear()
        judged.clear()
        assert self.run_cli(
            ["sweep", "--jobs", "1", "--engines", "flink",
             "--worker-counts", "2", *cell]
        ) == 0
        assert len(judged) > 1
        assert len(watched) == len(judged)

    def test_search_journal_resume_round_trip(self, capsys, tmp_path):
        journal = tmp_path / "journal.json"
        argv = [
            "search",
            "--engine", "flink",
            "--high-rate", "20000",
            "--duration", "30",
            "--generators", "1",
            "--no-resources",
            "--journal", str(journal),
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run_cli(argv + ["--output", str(first)]) == 0
        assert (
            self.run_cli(argv + ["--resume", "--output", str(second)]) == 0
        )
        assert "replayed" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

    def test_zero_retry_backoff_means_no_wait(self, monkeypatch):
        specs = []
        watchdog_run = experiment.run_experiment_with_watchdog

        def recording_watchdog(spec, watchdog, **kwargs):
            specs.append(watchdog)
            return watchdog_run(spec, watchdog=watchdog, **kwargs)

        monkeypatch.setattr(
            experiment, "run_experiment_with_watchdog", recording_watchdog
        )
        assert self.run_cli(
            ["run", "--trial-timeout", "600", "--retry-backoff", "0",
             "--rate", "10000", "--duration", "10", "--generators", "1",
             "--no-resources"]
        ) == 0
        assert [spec.backoff_base_s for spec in specs] == [0.0]

    def test_fault_search_journal_round_trip(self, capsys, tmp_path):
        journal = tmp_path / "journal.json"
        argv = [
            "search",
            "--engine", "flink",
            "--fault", "crash@15",
            "--high-rate", "200000",
            "--duration", "30",
            "--generators", "1",
            "--no-resources",
            "--journal", str(journal),
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run_cli(argv + ["--output", str(first)]) == 0
        capsys.readouterr()
        assert (
            self.run_cli(argv + ["--resume", "--output", str(second)]) == 0
        )
        assert ", 0 run live" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bound", [[], ["--max-recovery", "0.5"]])
    def test_a_faulted_sweep_cell_reports_what_search_reports(
        self, bound, capsys, tmp_path
    ):
        # The recovery bound judges a sweep cell as it judges a search:
        # a restart takes seconds to recover, so a 0.5 s bound leaves no
        # sustainable rate in either.
        cell = [
            "--fault", "restart@30",
            "--duration", "60",
            "--high-rate", "1600000",
            "--generators", "1",
            "--no-resources",
            *bound,
        ]
        searched, swept = tmp_path / "search.json", tmp_path / "sweep.json"
        assert self.run_cli(
            ["search", "--engine", "flink", "--workers", "2", *cell,
             "--output", str(searched)]
        ) == 0
        assert self.run_cli(
            ["sweep", "--engines", "flink", "--worker-counts", "2", *cell,
             "--output", str(swept)]
        ) == 0
        expected = json.loads(searched.read_text())["sustainable_rate"]
        (reported,) = json.loads(swept.read_text()).values()
        if bound:
            assert expected is None and math.isnan(reported)
        else:
            assert expected > 0 and reported == expected
