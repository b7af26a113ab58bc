"""``repro paper``: the declaration, its checks, and its pinned report.

``tests/golden/paper_s17.json`` is ``python -m repro paper --seed 17``'s
JSON.  The slow test re-runs the evaluation and compares; regenerate
after an *intentional* change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest -m slow \
        tests/analysis/test_paper.py

The tier-1 tests simulate nothing: they judge every named check on the
golden (it must hold) and on copies with the check's inputs moved (one
of them must fail it).  A check that no move of its inputs can fail
asserts nothing.
"""

import copy
import json
import os
import pathlib

import pytest

from repro.analysis import paper

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "paper_s17.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

CHECKS = [
    pytest.param(artifact, check, id=f"{artifact.name}: {check.name}")
    for artifact in paper.ARTIFACTS
    for check in artifact.checks
]

FACTORS = (0.0, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0, -1.0)


def moves(value) -> list:
    """The values one input is moved to."""
    if value is None:
        return ["moved"]  # a run that completed now reports a failure
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, str):
        return [None, "moved"]
    if isinstance(value, list):
        return [[v * factor for v in value] for factor in FACTORS]
    return [value * factor for factor in FACTORS] + [value + 1, value - 1]


def moved_copies(cells, inputs):
    """``cells`` with some of ``inputs`` moved: each input alone, all of
    them, and every other one (the 90%-load half of a panel pair).  An
    input moved together with others takes the ``n``-th of its moves."""
    subsets = [[path] for path in inputs]
    subsets += [list(inputs), list(inputs[::2]), list(inputs[1::2])]
    for subset in subsets:
        longest = max(len(moves(paper.field_at(cells, p))) for p in subset)
        for n in range(longest):
            copied = copy.deepcopy(cells)
            for path in subset:
                *parents, leaf = path.split(".")
                holder = copied
                for part in parents:
                    holder = holder[part]
                options = moves(holder[leaf])
                holder[leaf] = options[n % len(options)]
            yield copied


@pytest.mark.parametrize("artifact,check", CHECKS)
def test_each_check_holds_on_the_golden_and_fails_when_moved(artifact, check):
    cells = GOLDEN["artifacts"][artifact.name]["cells"]
    assert paper.holds(check, cells)
    assert GOLDEN["artifacts"][artifact.name]["checks"][check.name] is True
    assert any(
        not paper.holds(check, moved)
        for moved in moved_copies(cells, check.inputs)
    )


def test_the_golden_judges_every_declared_check_and_passes():
    assert GOLDEN["seed"] == paper.SEED
    assert GOLDEN["failed_checks"] == []
    assert {
        name: set(entry["checks"]) for name, entry in GOLDEN["artifacts"].items()
    } == {
        artifact.name: {check.name for check in artifact.checks}
        for artifact in paper.ARTIFACTS
    }


def test_the_declaration_is_well_formed():
    names = [artifact.name for artifact in paper.ARTIFACTS]
    assert len(set(names)) == len(names)
    searches = {
        (artifact.name, key)
        for artifact in paper.ARTIFACTS
        for key, cell in artifact.cells.items()
        if isinstance(cell, paper.Search)
    }
    for artifact in paper.ARTIFACTS:
        checks = [check.name for check in artifact.checks]
        assert len(set(checks)) == len(checks), artifact.name
        assert all("." not in key for key in artifact.cells), artifact.name
        assert set(artifact.paper) <= set(artifact.cells), artifact.name
        for check in artifact.checks:
            assert check.inputs, (artifact.name, check.name)
            for path in check.inputs:
                assert path.split(".")[0] in artifact.cells, path
        for cell in artifact.cells.values():
            if isinstance(cell, paper.Trial) and cell.at is not None:
                assert cell.at[:2] in searches, cell.at


def test_a_failing_check_is_reported_and_rendered():
    report = copy.deepcopy(GOLDEN)
    report["artifacts"]["table1"]["checks"]["storm/2 within 2x of the paper"] = (
        False
    )
    report["failed_checks"] = ["table1: storm/2 within 2x of the paper"]
    total = sum(len(artifact.checks) for artifact in paper.ARTIFACTS)
    text = paper.render_paper(report)
    assert "[MISS] storm/2 within 2x of the paper" in text
    assert text.endswith(
        f"{total - 1} of {total} checks hold\n"
        "  FAILED table1: storm/2 within 2x of the paper"
    )


def test_the_tables_render_beside_the_paper():
    text = paper.render_paper(GOLDEN)
    assert "Table I: sustainable throughput" in text
    assert "rows: avg min max (q90, q95, q99), seconds" in text
    assert "| paper: 3.6 2.5 8.5 (4.6, 4.9, 5.9)" in text


@pytest.mark.slow
def test_paper_report_matches_golden():
    actual = json.loads(json.dumps(paper.run_paper(seed=paper.SEED, jobs=2)))
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert actual == GOLDEN
