"""Every subcommand's options, pinned.

For each ``python -m repro`` subcommand the golden records every
option's strings, dest, default, choices, nargs, type, required flag and
metavar -- everything argparse does with a flag except print its help
text.  A refactor of how the flags are declared must leave this table
as it was; a change that means to move a default or add a flag
regenerates it with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/core/test_cli_parsers.py
"""

import argparse
import json
import os
import pathlib

import pytest

from repro.cli import build_parser

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "golden" / "cli_parsers.json"
)


def describe(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "type": None if action.type is None else action.type.__name__,
        "required": action.required,
        "metavar": action.metavar,
    }


def parser_table() -> dict:
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    table = {
        name: {action.dest: describe(action) for action in parser._actions}
        for name, parser in commands.choices.items()
    }
    # Through JSON, so a tuple default reads like the list it parses to.
    return json.loads(json.dumps(table))


def test_parsers_match_golden():
    actual = parser_table()
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated goldens at {GOLDEN_PATH}")
    assert actual == json.loads(GOLDEN_PATH.read_text())
