"""Given-data pseudo-samples are bit-reproducible across CPUs.

Their sort, gather and kernel use only IEEE basic operations, and Monte Carlo
index draws are integer arithmetic on a fixed stream, so neither numpy's
CPU-dispatched loops nor the machine may change a bit.  The digests below pin
exact and Monte Carlo pseudo-samples (k = 2, 3, 4 and 12; the draws span two
blocks and end in a partial tile); a fresh interpreter with every dispatched
CPU feature masked through ``NPY_DISABLE_CPU_FEATURES`` must give the same
digests and the same estimates.  CLI reports of ``--input`` files are pinned
the same way: an exact k = 3 estimate, a Monte Carlo median and a pairwise
trimmed SD.  Family draws are not covered: their quantiles go through
dispatched ``exp``, ``log`` and powers.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import hlmoments
from hlmoments import ExactPlan, MonteCarloPlan, TrimSpec, build_pseudosample, hl_central_moment
from hlmoments import cli

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

DRAWS = (1 << 18) + (1 << 15) + 77

# (plan, k) -> (n, SHA-256 of the pseudo-sample's bytes)
GOLDEN = {
    ("exact", 2): (200, "42ab48fbef4a29a08d1742f0520ad2f8e8677e99289a348b01001a2b9aa7df50"),
    ("exact", 3): (60, "eab7e8e2555b25310171c8d1101e8b4669df4371707fad0ea4507058beef2474"),
    ("exact", 4): (40, "f7aff72ae9befe245d55684eb2c2d154b3aec4c6a369693ef062b582c12f8efd"),
    ("exact", 12): (16, "c60888e19902f251140d8d8e074df0433ab69bcb14d2506188bb682595084e13"),
    ("monte-carlo", 2): (1000, "53ea350dafc6729cf1023b6d93e797229825df33ac8f203b594f0d02d9439977"),
    ("monte-carlo", 3): (1000, "f82aea06957e611e7c8843b50d70f679215d96ea45b1c2bdd7d3a438e1da6868"),
    ("monte-carlo", 4): (1000, "5f461f9c65858d2a40248bfad43a55334d65245a668fcdadff903f1cda453c48"),
    ("monte-carlo", 12): (1000, "1f503b42442f6a6eaa2e9699a6cea3c8424ac453569595eaaba81bf082681672"),
}

# name -> (sample size, CLI arguments after the input file, SHA-256 of the report)
CLI_GOLDEN = {
    "estimate-exact-k3": (
        100, ["estimate", "--k", "3", "--eps0", "0.1"],
        "422e50c147c01dd33382b1f616a2446e770902a9604617f5485b91710e1e28dd"),
    "estimate-monte-carlo-median": (
        1000, ["estimate", "--k", "4", "--estimator", "median", "--mode", "monte-carlo",
               "--draws", str(DRAWS), "--plan-seed", "4"],
        "8f5e00dc14f33aa3d9738339680573b63a5763da4aefee953c077c1c547e9b6e"),
    "tsd": (
        3000, ["tsd", "--eps0", "0.1"],
        "8b305b5307c83fd14239299018e7e2a958ee0345d6f3a4d9947b96bcd64d8f1b"),
}


def sample(n, seed):
    """Uniform doubles scaled and shifted by small integers, so that making the
    sample is exact arithmetic too."""
    rng = np.random.default_rng(seed)
    return rng.random(n) * 8.0 - 3.0 + rng.integers(0, 4, size=n)


def case(kind, k):
    """The sample and plan of one golden case."""
    x = sample(GOLDEN[kind, k][0], 100 + k)
    return x, ExactPlan() if kind == "exact" else MonteCarloPlan(DRAWS, seed=k)


def digest(kind, k):
    x, plan = case(kind, k)
    return hashlib.sha256(build_pseudosample(x, k, plan).tobytes()).hexdigest()


def estimates():
    """Each case's trimmed-mean estimate, as hex, in GOLDEN's order."""
    out = []
    for kind, k in GOLDEN:
        x, plan = case(kind, k)
        out.append(hl_central_moment(x, k, TrimSpec(eps0=0.1), plan=plan).value.hex())
    return out


def cli_digests():
    """SHA-256 of each CLI_GOLDEN report, in its order, from an input file of one
    real per line written with ``repr``."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (n, argv, _) in enumerate(CLI_GOLDEN.values()):
            path = os.path.join(tmp, f"sample{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(map(repr, sample(n, 200 + i).tolist())) + "\n")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(argv + ["--input", path]) == cli.EXIT_OK
            out.append(hashlib.sha256(stdout.getvalue().encode()).hexdigest())
    return out


@pytest.mark.parametrize("kind, k", list(GOLDEN))
def test_pseudosample_digest_is_pinned(kind, k):
    assert digest(kind, k) == GOLDEN[kind, k][1]


def test_cli_report_digests_are_pinned():
    assert cli_digests() == [want for _, _, want in CLI_GOLDEN.values()]


def test_masking_every_dispatched_cpu_feature_changes_no_bit():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hlmoments.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_reproducibility as t; "
              "print(json.dumps([[t.digest(*c) for c in t.GOLDEN], t.estimates(), t.cli_digests(), "
              "[f for f in t.__cpu_dispatch__ if t.__cpu_features__[f]]]))")
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    done = subprocess.run([sys.executable, "-c", script, tests], env=env, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    digests, values, reports, left = json.loads(done.stdout)
    assert left == []  # the mask took: no dispatched feature is still in use
    assert digests == [want for _, want in GOLDEN.values()]
    assert values == estimates()
    assert reports == [want for _, _, want in CLI_GOLDEN.values()]
