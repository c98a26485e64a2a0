"""Every runnable example under ``examples/`` runs to completion.

The examples are the documented entry points into the library; each is
executed as ``__main__`` with no arguments (its default scenario), so a
renamed or removed API they call fails here rather than in a reader's
terminal.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:  # an explicit clean exit is fine
        assert exc.code in (None, 0), f"{path.name} exited with {exc.code}"
    assert capsys.readouterr().out
