"""The grid-harness determinism contract, once for all three harnesses.

``repro chaos`` / ``repro autoscale`` / ``repro recover`` promise the
same thing (DESIGN.md, "Grid harness"): one config yields one report,
byte for byte -- rerun, fanned over scheduler workers, or resumed from a
journal -- and that report is clean JSON with a PASS/FAIL footer.  The
bytes themselves are pinned by goldens under ``tests/golden/`` so a
refactor of the shared plumbing cannot move them unnoticed.  Regenerate
after an *intentional* change to a digest or report schema with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_grid_contract.py
"""

import json
import os
import pathlib
from typing import Callable, NamedTuple, Tuple

import pytest

from repro.autoscale.scorecard import (
    ElasticityConfig,
    elasticity_fingerprint,
    run_elasticity,
)
from repro.metrology import TrialJournal
from repro.recovery.chaos import ChaosConfig, chaos_fingerprint, run_chaos
from repro.recoverybench import (
    RecoverConfig,
    recover_fingerprint,
    run_recovery_bench,
)

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"


class Harness(NamedTuple):
    config: object
    run: Callable
    fingerprint: Callable
    trials: int
    """Scheduler cells the config fans out to."""
    render_mentions: Tuple[str, ...]


HARNESSES = {
    "chaos": Harness(
        ChaosConfig(
            seed=0, rounds=2, engines=("flink", "storm"),
            detector="phi", gray_faults=True,
        ),
        run_chaos,
        chaos_fingerprint,
        trials=12,  # 2 rounds x 2 engines x 3 policies
        render_mentions=("flink/standby",),
    ),
    "elasticity": Harness(
        ElasticityConfig(seed=0, engines=("flink",)),
        run_elasticity,
        elasticity_fingerprint,
        trials=4,  # 2 policies x 2 profiles
        render_mentions=("flink/threshold",),
    ),
    "recover": Harness(
        RecoverConfig(
            seed=0, engines=("flink", "spark"), kinds=("crash", "restart"),
            intervals=(5.0, 20.0), duration_s=40.0, detector="timeout",
        ),
        run_recovery_bench,
        recover_fingerprint,
        trials=16,  # 2 engines x 3 policies x 2 kinds + 2 x 2 frontier
        render_mentions=(
            "flink/standby/restart",
            "checkpoint-interval frontier: flink",
            " *",  # at least one Pareto-efficient interval
        ),
    ),
}


@pytest.fixture(scope="module", params=sorted(HARNESSES))
def name(request):
    return request.param


@pytest.fixture(scope="module")
def harness(name):
    return HARNESSES[name]


@pytest.fixture(scope="module")
def report(harness):
    return harness.run(harness.config)


def test_serial_run_matches_golden(name, report):
    # Equal seeds give equal bytes -- across runs *and* across commits.
    path = GOLDEN_DIR / f"grid_{name}.json"
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(report.to_json())
        pytest.skip(f"regenerated {path.name}")
    assert report.to_json() == path.read_text(), (
        f"{path.name} moved: a digest/report schema change must be "
        "intentional (then regenerate with REGEN_GOLDEN=1)"
    )


def test_parallel_run_is_byte_identical(harness, report):
    # The scheduler may reorder execution, never results.
    parallel = harness.run(harness.config, workers=2)
    assert parallel.to_json() == report.to_json()


def test_journaled_run_resumes_byte_identical(harness, report, tmp_path):
    # Kill after two journal records, resume to completion, then resume
    # the finished journal: both reports byte-identical to the
    # uninterrupted run, and the second resume runs nothing live.
    path = tmp_path / "grid.journal"
    fingerprint = harness.fingerprint(harness.config)

    class Killed(RuntimeError):
        pass

    journal = TrialJournal(path, fingerprint=fingerprint)
    real_record, seen = journal.record, []

    def record_then_die(key, entry):
        real_record(key, entry)
        seen.append(key)
        if len(seen) == 2:
            raise Killed()

    journal.record = record_then_die
    with pytest.raises(Killed):
        harness.run(harness.config, journal=journal)

    resumed_journal = TrialJournal(path, fingerprint=fingerprint, resume=True)
    resumed = harness.run(harness.config, journal=resumed_journal)
    assert resumed_journal.hits == 2
    assert resumed_journal.misses == harness.trials - 2
    assert resumed.to_json() == report.to_json()

    replay_journal = TrialJournal(path, fingerprint=fingerprint, resume=True)
    lines = []
    replayed = harness.run(
        harness.config, journal=replay_journal, progress=lines.append
    )
    assert replay_journal.misses == 0
    assert len(lines) == harness.trials
    assert all("(journal)" in line for line in lines)
    assert replayed.to_json() == report.to_json()


def test_json_round_trips_clean(report):
    payload = report.to_dict()
    text = json.dumps(payload, sort_keys=True, allow_nan=False)  # no NaN
    assert json.loads(text) == payload
    assert json.loads(report.to_json()) == payload


def test_render_ends_in_the_pass_line(harness, report):
    text = report.render()
    assert text.splitlines()[-1].startswith("PASS: ")
    assert "nan" not in text
    for needle in harness.render_mentions:
        assert needle in text
