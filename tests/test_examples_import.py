"""Every script under ``examples/`` imports against the current API.

The examples are documentation that runs: each builds its trials from
the public spec classes at module level and only simulates under
``if __name__ == "__main__"``.  Importing one as a module therefore
resolves every name it uses and builds its module-level specs in well
under a second, so an API change that leaves an example behind fails
here rather than in a reader's terminal.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
