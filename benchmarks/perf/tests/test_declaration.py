"""An emitted result against ``BENCHMARK.json``."""

import json
import re

from benchmarks.perf import cli, worker, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny_workload():
    """One 20-simulated-second trial standing in for a whole workload."""
    spec = workloads.trial_spec(
        "flink", workloads.WindowedAggregationQuery(window=workloads.WINDOW),
        workloads.WARMUP_SIM_S, seed=3,
    )
    run = lambda: workloads.run_trial(spec)  # noqa: E731
    return workloads.Workload(
        "tiny", run, [workloads.Operation("flink_agg", run)]
    )


def test_declaration_obeys_the_contract_limits():
    declaration = cli.load_declaration()
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declaration["paths"] == ["benchmarks/perf"]
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in declaration["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert "\n" not in entry["why"]
    for entry in declaration["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in declaration["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert [w["name"] for w in declaration["workloads"]] == list(workloads.LABELS)
    assert len(json.dumps(declaration)) < 64 * 1024


def test_emitted_results_carry_exactly_the_declared_names():
    declaration = cli.load_declaration()
    timed = worker.timed_loop(tiny_workload(), seconds=0.0)
    timed["metrics"]["setup_s"] = 0.5  # measured by the parent process
    line = json.loads(cli.driver_line(timed, declaration["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    assert list(line["metrics"]) == [
        e["name"] for e in declaration["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in line["metrics"].values())

    traced = worker.traced_loop(tiny_workload(), seconds=0.0, spans_out=None)
    assert traced["failures"] == []
    assert traced["sim_digest"] == timed["sim_digest"]
    line = json.loads(cli.driver_line(traced, declaration["per_layer"]))
    assert list(line["metrics"]) == [
        e["name"] for e in declaration["per_layer"]
    ]
    for entry in declaration["per_layer"]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
