"""Each entry point loads only the modules it needs.

The estimators work on the caller's own data with numpy alone, and the gamma
family's special functions, its inverse included, are the package's own up to
shape 1e4, so importing the package, the CLI on an ``--input`` file or on a
generalized Gaussian family, an exact estimate and the Weibull, gamma, normal,
Laplace and generalized Gaussian methods must not load ``scipy.special``; only
the lognormal family, ``lognormal_qa_sigma_derivative`` and gamma shapes above
1e4 import it, on first use.  Likewise the package loads ``distributions`` and ``verify`` on
first use: importing the package or the CLI, an ``--input`` estimate and an
exact estimate load neither, a ``--family`` estimate loads ``distributions``
alone and a verification experiment loads both.  Once loaded, both resolve as
attributes of the package and ``dir`` lists every exported name.  The checks
run in one fresh interpreter, because this test process has loaded every
module already.
"""

import json
import os
import subprocess
import sys

import pytest

import hlmoments

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hlmoments.__file__)))

LAZY = ("scipy.special", "hlmoments.distributions", "hlmoments.verify")

# Runs the steps in order in one interpreter and prints, as JSON, which of LAZY
# were loaded after each step, then how the package resolves its lazy names.
SCRIPT = r"""
import contextlib, io, json, sys

path, names = sys.argv[1], sys.argv[2:]
loaded = {}

def note(step):
    loaded[step] = {name: name in sys.modules for name in names}

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
with contextlib.redirect_stdout(io.StringIO()):
    assert hlmoments.cli.main(["estimate", "--family", "normal(0,1)", "--n", "20", "--k", "3"]) == 0
    note("cli estimate --family normal")
    assert hlmoments.cli.main(["verify", "support-bounds", "--k", "3", "--resolution", "20"]) == 0
    note("cli verify support-bounds")

def holds(check):
    try:
        return check()
    except (AttributeError, KeyError):  # a name not bound, or a module not loaded
        return False

resolved = {  # the import system binds a loaded submodule; __getattr__ must too
    "hlmoments.verify": holds(lambda: hlmoments.verify is sys.modules["hlmoments.verify"]),
    "hlmoments.distributions": holds(
        lambda: hlmoments.distributions is sys.modules["hlmoments.distributions"]),
    "__getattr__ binds both modules": holds(lambda: all(
        hlmoments.__getattr__(name) is sys.modules[f"hlmoments.{name}"]
        for name in ("distributions", "verify"))),
    "dir lists __all__": holds(lambda: set(hlmoments.__all__) <= set(dir(hlmoments))),
}
hlmoments.normal().sample(10, 0)
note("normal().sample")
hlmoments.laplace().sample(10, 0)
note("laplace().sample")
hlmoments.Gamma(2.0).sample(10, 0)
note("Gamma(2).sample")
hlmoments.Gamma(2.0).cdf([0.5, 3.0, 40.0])
note("Gamma(2).cdf")
hlmoments.Weibull(1.5).mean()
note("Weibull(1.5).mean()")
assert hlmoments.GeneralizedGaussian(0.3, 1.0, 1.5).quantile(0.5) == 0.3
note("GeneralizedGaussian quantile(0.5)")
with contextlib.redirect_stdout(io.StringIO()):  # the cli benchmark workload's first command, made smaller
    assert hlmoments.cli.main(["estimate", "--family", "gengauss(0,1,1.5)", "--n", "2000",
                               "--sample-seed", "0", "--k", "4", "--standardized",
                               "--eps0", "0.1", "--mode", "monte-carlo", "--draws", "5000",
                               "--plan-seed", "0"]) == 0
    note("cli estimate --family gengauss --mode monte-carlo")
for shape in (2000, 5000, 9999):
    hlmoments.Gamma(shape).sample(10, 0)
    note(f"Gamma({shape}).sample")
hlmoments.LogNormal(0.0, 1.0).sample(10, 0)
note("LogNormal(0, 1).sample")
print(json.dumps({"loaded": loaded, "resolved": resolved}))
"""

WITHOUT_SCIPY = (
    "import hlmoments",
    "import hlmoments.cli",
    "cli estimate --input",
    "cli tsd --input",
    "exact hl_central_moment",
    "cli estimate --family normal",
    "normal().sample",
    "laplace().sample",
    "Gamma(2).sample",
    "Gamma(2).cdf",
    "Weibull(1.5).mean()",
    "GeneralizedGaussian quantile(0.5)",
    "cli estimate --family gengauss --mode monte-carlo",
    "Gamma(2000).sample",
    "Gamma(5000).sample",
    "Gamma(9999).sample",
)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "x.csv"
    path.write_text("0.3\n-1.2\n2.5\n0.9\n1.7\n-0.4\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(path), *LAZY], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("step", WITHOUT_SCIPY)
def test_scipy_is_not_loaded(loaded, step):
    assert loaded["loaded"][step]["scipy.special"] is False


def test_a_lognormal_sample_loads_scipy(loaded):
    assert loaded["loaded"]["LogNormal(0, 1).sample"]["scipy.special"] is True


@pytest.mark.parametrize("step, distributions, verify", [
    ("import hlmoments", False, False),
    ("import hlmoments.cli", False, False),
    ("cli estimate --input", False, False),
    ("cli tsd --input", False, False),
    ("exact hl_central_moment", False, False),
    ("cli estimate --family normal", True, False),
    ("cli verify support-bounds", True, True),
])
def test_families_and_verification_load_on_first_use(loaded, step, distributions, verify):
    assert loaded["loaded"][step]["hlmoments.distributions"] is distributions
    assert loaded["loaded"][step]["hlmoments.verify"] is verify


@pytest.mark.parametrize("check", [
    "hlmoments.verify",
    "hlmoments.distributions",
    "__getattr__ binds both modules",
    "dir lists __all__",
])
def test_lazy_names_resolve(loaded, check):
    assert loaded["resolved"][check] is True
