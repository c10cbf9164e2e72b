"""Every demo runs to the end without an exception or a numpy RuntimeWarning.

The demos call the public API as a user would, so a deleted or renamed public
name that a demo still uses fails here.
"""

import pathlib
import runpy
import warnings

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
