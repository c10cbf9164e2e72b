"""The three benchmark workloads: inputs drawn from the seed, one job, reference checks.

Each workload is a closed loop with one client: ``job`` runs one job and
returns its outputs in a form whose equality means bit-identical (``repr`` of
every estimate, or the exit code and stdout of every CLI call).  Inputs are
drawn with numpy from the workload seed; the package only ever sees the
generated values.  ``references`` checks the package against independent
results once per run, outside every timed region.

Why these three:

* ``exact-lowk`` - exact enumeration at k = 3 and 4, where the closed-form
  kernels are cheap, so unranking, gathering and sorting the pseudo-sample
  carry most of the time.  Enumeration changes show here.
* ``exact-highk`` - exact enumeration at k = 6, 8 and 12, where the expanded
  kernel is almost all of the time and enumeration almost none.  An
  enumeration-only change should not move it.
* ``cli`` - the command line end to end: family sampling, parsing an input
  file, Monte Carlo plans, a median beside a trimmed mean, and the
  memory-heavy pairwise SD over 4.5e6 pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import hlmoments
from hlmoments import cli, estimators, kernels
from hlmoments.lstat import LEstimatorSpec, TrimSpec

REL_TOL = 1e-9

#: The checkout root: this file lives in <root>/perfbench/.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rel_check(name, got, want, scale=None):
    """(name, ok, detail) for |got - want| <= REL_TOL * max(|want|, scale)."""
    denom = max(abs(want), scale or 0.0)
    err = abs(got - want) / denom if denom > 0 else abs(got - want)
    value_err = abs(got - want) / abs(want) if want else math.inf
    detail = f"got {got!r} want {want!r} rel err {err:.2e} (of |want|: {value_err:.2e})"
    return name, err <= REL_TOL, detail


class _Exact:
    """Exact-plan ``hl_central_moment`` calls on one gamma(2, 1) sample."""

    # (sub-sample size, k, eps0, estimator)
    calls = ()
    size = 0

    def __init__(self, seed, workdir):
        self.x = np.random.default_rng(seed).gamma(2.0, 1.0, self.size)
        self.seed = seed

    def job(self):
        # looked up on the module at every call, so the traced run's wrapper is used
        moment = estimators.hl_central_moment
        return [
            repr(moment(self.x[:n], k, TrimSpec(eps0=eps0), est))
            for n, k, eps0, est in self.calls
        ]


class ExactLowK(_Exact):
    size = 120
    calls = (
        (120, 3, 0.1, LEstimatorSpec.trimmed_mean()),
        (60, 4, 0.1, LEstimatorSpec.trimmed_mean()),
        (60, 4, 0.2, LEstimatorSpec.median()),
    )

    def references(self):
        """Untrimmed exact k = 3 and 4 against the closed-form h-statistics."""
        out = []
        for n, k in ((120, 3), (60, 4)):
            got = hlmoments.hl_central_moment(self.x[:n], k).value
            want = hlmoments.h_statistic(self.x[:n], k)
            out.append(_rel_check(f"exact.k{k}.n{n}-vs-h_statistic", got, want))
        return out


class ExactHighK(_Exact):
    size = 20
    calls = (
        (20, 6, 0.1, LEstimatorSpec.trimmed_mean()),
        (16, 8, 0.1, LEstimatorSpec.trimmed_mean()),
        (14, 12, 0.1, LEstimatorSpec.trimmed_mean()),
    )
    tuples_per_order = 2

    def references(self):
        """kernel_values on seed-drawn tuples of each job sub-sample against psi_exact.

        The error is taken relative to max(|psi|, mean |x - mean(x)|^k), the
        magnitude of the centred terms psi_k combines, so that a tuple whose
        kernel value cancels to near zero is judged by the scale of its
        terms.  The error relative to |psi| alone is printed beside it.
        """
        psi_exact = _load_oracle()
        rng = np.random.default_rng([self.seed, 1])
        out = []
        for n, k, _, _ in self.calls:
            for t in range(self.tuples_per_order):
                row = self.x[np.sort(rng.choice(n, size=k, replace=False))]
                got = float(kernels.kernel_values(row[None, :], k)[0])
                want = float(psi_exact(row.tolist()))
                scale = float(np.mean(np.abs(row - row.mean()) ** k))
                out.append(_rel_check(f"kernel.k{k}.tuple{t}-vs-psi_exact", got, want, scale))
        return out


def _load_oracle():
    # tests/oracles.py shares no code with the package; load it by path
    import importlib.util

    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("_perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.psi_exact


def _write_reals(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, values.tolist())) + "\n")


class Cli:
    """Three in-process ``hlmoments.cli.main`` calls with stdout captured."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.lognormal = os.path.join(workdir, "lognormal.txt")
        self.gengauss = os.path.join(workdir, "gengauss.txt")
        _write_reals(self.lognormal, rng.lognormal(0.0, 1.0, 100_000))
        # generalized Gaussian (mu 5, sigma 2, beta 1.5): |Z|^beta ~ gamma(1/beta, 1)
        beta = 1.5
        z = rng.gamma(1.0 / beta, 1.0, 3000) ** (1.0 / beta)
        self.tsd_values = 5.0 + 2.0 * np.where(rng.random(3000) < 0.5, -z, z)
        _write_reals(self.gengauss, self.tsd_values)
        s = str(seed)
        self.argvs = [
            ["estimate", "--family", "gengauss(0,1,1.5)", "--n", "100000", "--sample-seed", s,
             "--k", "4", "--standardized", "--eps0", "0.1",
             "--mode", "monte-carlo", "--draws", "500000", "--plan-seed", s],
            ["estimate", "--input", self.lognormal, "--k", "3", "--estimator", "median",
             "--eps0", "0.1", "--mode", "monte-carlo", "--draws", "200000", "--plan-seed", s],
            ["tsd", "--input", self.gengauss, "--eps0", "0.1"],
        ]

    @staticmethod
    def _call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def job(self):
        return [self._call(argv) for argv in self.argvs]

    def references(self):
        """Untrimmed pairwise ``tsd`` of the input file against np.std(ddof=1)."""
        code, text = self._call(["tsd", "--input", self.gengauss])
        if code != 0:
            return [("cli.tsd-untrimmed-vs-np.std", False, f"exit code {code}")]
        got = json.loads(text)["value"]
        want = float(np.std(self.tsd_values, ddof=1))
        return [_rel_check("cli.tsd-untrimmed-vs-np.std", got, want)]


WORKLOADS = {"exact-lowk": ExactLowK, "exact-highk": ExactHighK, "cli": Cli}
