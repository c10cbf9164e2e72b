"""scipy is loaded only when a family needs it.

The estimators work on the caller's own data with numpy alone, so importing
the package, the CLI on an ``--input`` file and an exact estimate must not load
``scipy.special``; the family methods import it on first use.  Each check runs
in a fresh interpreter, because this test process has loaded scipy already.
"""

import json
import os
import subprocess
import sys

import pytest

import hlmoments

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hlmoments.__file__)))

# Runs the steps in order in one interpreter and prints, as JSON, whether
# scipy.special was loaded after each step.
SCRIPT = r"""
import contextlib, io, json, sys

path = sys.argv[1]
loaded = {}

def note(step):
    loaded[step] = "scipy.special" in sys.modules

import hlmoments
note("import hlmoments")
import hlmoments.cli
note("import hlmoments.cli")
with contextlib.redirect_stdout(io.StringIO()):
    assert hlmoments.cli.main(["estimate", "--input", path, "--k", "3"]) == 0
    note("cli estimate --input")
    assert hlmoments.cli.main(["tsd", "--input", path]) == 0
    note("cli tsd --input")
hlmoments.hl_central_moment([0.3, -1.2, 2.5, 0.9, 1.7], 4)
note("exact hl_central_moment")
hlmoments.normal().sample(10, 0)
note("normal().sample")
print(json.dumps(loaded))
"""

WITHOUT_SCIPY = (
    "import hlmoments",
    "import hlmoments.cli",
    "cli estimate --input",
    "cli tsd --input",
    "exact hl_central_moment",
)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "x.csv"
    path.write_text("0.3\n-1.2\n2.5\n0.9\n1.7\n-0.4\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("step", WITHOUT_SCIPY)
def test_scipy_is_not_loaded(loaded, step):
    assert loaded[step] is False


def test_a_family_sample_loads_scipy(loaded):
    assert loaded["normal().sample"] is True
