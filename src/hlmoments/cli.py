"""Command-line interface.

Subcommands
-----------
estimate    robust central / standardized moment of a data file or a drawn sample
tsd         trimmed standard deviation (pairwise or symmetric form)
congruence  quantile-average congruence verdict for a family parameter
verify      run a named verification experiment and check its property

Exit codes: 0 success, 2 usage error or a file not read, parsed or written, 3 domain error,
4 capacity (exact enumeration over budget), 5 verification property failed.

Input files are UTF-8 text: one real per line or comma-separated reals;
blank lines and a single header line are ignored.  Reports are emitted as
JSON (default) or flat CSV; report bodies carry no timestamps, so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from .errors import ArgumentError, CapacityError, EstimatorError, _integer_range
from .estimators import (
    hl_central_moment,
    hl_standardized_moment,
    trimmed_sd_pairwise,
    trimmed_sd_symmetric,
)
from .lstat import LEstimatorSpec, TrimSpec
from .pseudosample import DEFAULT_BUDGET, ExactPlan, MonteCarloPlan

__all__ = ["main"]

_BUDGET_ENV = "HLMOMENTS_BUDGET_CAP"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CAPACITY = 4
EXIT_PROPERTY = 5


class _InputError(Exception):
    """A usage or file error: bad arguments, or a file that cannot be read, parsed or written."""


def _parse_family_arg(spec: str):
    # family-spec syntax problems are usage errors, not domain errors
    from .distributions import parse_family

    try:
        return parse_family(spec)
    except ArgumentError as exc:
        raise _InputError(str(exc)) from exc


# ASCII whitespace other than "\n" (the reader turns every "\r" into "\n"): a piece
# that holds one is not plain, and takes the line loop
_INNER_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"

# Bytes read, decoded and parsed at a time; each piece runs on to the next b"\n".
_PIECE = 1 << 16


def _read_reals(path: str) -> np.ndarray:
    """Parse newline- or comma-separated reals; tolerate one header line.

    Each value is Python's ``float`` of one comma field.  The file is read,
    decoded and parsed in one pass, one piece of about ``_PIECE`` bytes at a
    time, each cut after a b"\\n" (so a file whose lines end in "\\r" alone is
    one piece); as in text mode, "\\r\\n" and "\\r" are read as "\\n".  A plain
    piece (ASCII with no whitespace but newlines) whose every whitespace token
    ``float`` takes is parsed in bulk, one field a token; any other piece, such
    as the one holding a header, takes the line loop ``_line_reals``, which
    carries from piece to piece whether a header may still come.  The reader
    holds the output twice (its pieces, then their join) and one piece with its
    tokens.  Unreadable and non-UTF-8 files raise ``_InputError``; a bad byte is
    named by its offset in the file.
    """
    arrays, lineno, header, at = [], 1, True, 0  # header: a header line may still come
    try:
        with open(path, "rb") as fh:
            while raw := fh.read(_PIECE) + fh.readline():
                try:  # a piece ends at b"\n", inside no UTF-8 character
                    piece = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _InputError(f"{path}: {_decode_error(exc, at)}") from exc
                if "\r" in piece:  # far cheaper than the two replaces, even with no "\r" to find
                    piece = piece.replace("\r\n", "\n").replace("\r", "\n")
                values = _bulk_reals(piece)
                if values is None:
                    values, header = _line_reals(path, piece, lineno, header)
                else:  # in a plain piece only an empty line is blank
                    header = header and piece.isspace()
                arrays.append(values)
                lineno += piece.count("\n")
                at += len(raw)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    values = np.concatenate(arrays) if arrays else np.empty(0)
    if not values.size:
        raise _InputError(f"{path}: no numeric data found")
    return values


def _decode_error(exc: UnicodeDecodeError, at: int) -> str:
    """``str(exc)`` with its positions moved on by ``at``, the file offset of ``exc.object``."""
    start, end = at + exc.start, at + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end - start == 1
             else f"bytes in position {start}-{end - 1}")
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _bulk_reals(piece: str) -> np.ndarray | None:
    """Every field of a plain piece when ``float`` takes each, else None."""
    if not piece.isascii() or any(c in piece for c in _INNER_SPACE):
        return None
    tokens = piece.replace(",", "\n").split()
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None


def _line_reals(path: str, piece: str, lineno: int, header: bool) -> tuple[np.ndarray, bool]:
    """The line loop over one piece whose first line is ``lineno``: it skips blank
    lines, keeps a line only when all its fields parse, skips the header while
    ``header`` says one may still come and names any other bad line as
    ``path:lineno`` (lines split on "\\n" only, as ``readlines`` splits).  Returns
    the piece's values and whether a header may still come after it."""
    values: list[float] = []
    for lineno, line in enumerate(piece.split("\n"), start=lineno):
        text = line.strip()
        if not text:
            continue
        try:  # a whole line parses before any of it is kept
            row = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            if header:
                header = False
                continue
            raise _InputError(f"{path}:{lineno}: cannot parse {text!r} as reals")
        values.extend(row)
        header = False
    return np.asarray(values, dtype=np.float64), header


def _load_sample(args) -> np.ndarray:
    if (args.input is None) == (args.family is None):
        raise _InputError("provide exactly one of --input PATH or --family SPEC")
    if args.input is not None:
        return _read_reals(args.input)
    family = _parse_family_arg(args.family)
    return family.sample(args.n, args.sample_seed)


def _int_type(low: int):
    """argparse type of a count or seed: below the library's bound ``low`` is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {_integer_range(low)}, got {value}")
        return value
    return parse


_positive_int, _seed = _int_type(1), _int_type(0)


def _n_list(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise _InputError(f"expected comma-separated integers, got {text!r}") from exc
    if min(sizes) < 4:  # the library's bound, held here like a count option's
        raise _InputError(f"argument --n-list: must be {_integer_range(4)}, got {min(sizes)}")
    return sizes


def _build_plan(args):
    if args.mode == "monte-carlo":
        return MonteCarloPlan(draws=args.draws, seed=args.plan_seed)
    raw = os.environ.get(_BUDGET_ENV)  # checked for every exact plan, even under --budget
    try:
        budget = DEFAULT_BUDGET if raw is None else int(raw)
    except ValueError as exc:
        raise _InputError(f"{_BUDGET_ENV}={raw!r} is not an integer") from exc
    if budget < 1:
        raise _InputError(f"{_BUDGET_ENV} must be positive, got {budget}")
    return ExactPlan(budget=budget if args.budget is None else args.budget)


def _flatten(value):
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def _emit(record: dict, args) -> None:
    if args.format == "json":
        body = json.dumps(record, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        keys = sorted(record)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow([_flatten(record[key]) for key in keys])
        body = buf.getvalue()
    if args.output is None:
        sys.stdout.write(body)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise _InputError(f"cannot write {args.output}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    sample = _load_sample(args)
    trim = TrimSpec(eps0=args.eps0, gamma=args.gamma)
    estimator = LEstimatorSpec(kind=args.estimator)
    plan = _build_plan(args)
    if args.standardized:
        trim_scale = TrimSpec(
            eps0=args.eps0 if args.eps0_scale is None else args.eps0_scale,
            gamma=args.gamma if args.gamma_scale is None else args.gamma_scale,
        )
        est = hl_standardized_moment(
            sample, args.k, trim, trim_scale=trim_scale, estimator=estimator, plan=plan
        )
    else:
        est = hl_central_moment(sample, args.k, trim, estimator=estimator, plan=plan)
    _emit(est.to_dict(), args)
    return EXIT_OK


def _cmd_tsd(args) -> int:
    sample = _load_sample(args)
    if args.method == "pairwise":
        est = trimmed_sd_pairwise(sample, eps0=args.eps0, gamma=args.gamma, plan=_build_plan(args))
    else:
        est = trimmed_sd_symmetric(sample, eps=args.eps)
    _emit(est.to_dict(), args)
    return EXIT_OK


def _cmd_congruence(args) -> int:
    from .distributions import congruence_check

    family = _parse_family_arg(args.family)
    if args.param not in family.param_names:
        raise _InputError(
            f"family {args.family!r} has no parameter {args.param!r}; "
            f"expected one of {family.param_names}"
        )
    verdict = congruence_check(
        family, args.param, gamma=args.gamma, grid_size=args.grid_size
    )
    _emit(verdict.to_dict(), args)
    return EXIT_OK


# experiment name -> (run the probe from the verify module and the parsed args,
# does its property hold); verify loads only when an experiment runs
_EXPERIMENTS = {
    "equivariance": (
        lambda v, a: v.equivariance_suite(trials=a.trials, seed=a.seed),
        lambda r, a: r.max_rel_dev_kernel <= 1e-9 and r.max_rel_dev_standardized <= 1e-9,
    ),
    "variance-dominance": (
        lambda v, a: v.variance_comparison(
            _parse_family_arg(a.family), _n_list(a.n_list),
            eps=a.eps, replications=a.replications, seed=a.seed,
        ),
        lambda r, a: all(x > 1.0 for x in r.ratio)
        and all(x <= y for x, y in zip(r.ratio, r.ratio[1:])),
    ),
    "pairwise-shape": (
        lambda v, a: v.pairwise_diff_probe(
            _parse_family_arg(a.family), n_draws=a.n_draws, seed=a.seed, bins=a.bins
        ),
        lambda r, a: r.monotonicity >= 0.9,
    ),
    "kernel-shape": (
        lambda v, a: v.kernel_shape_probe(
            _parse_family_arg(a.family), k=a.k, n_draws=a.n_draws, seed=a.seed, bins=a.bins
        ),
        lambda r, a: r.abs_median_over_sigma <= 0.1,
    ),
    "support-bounds": (
        lambda v, a: v.support_bound_probe(k=a.k, resolution=a.resolution),
        lambda r, a: abs(r.observed_min - r.bound_lower) <= a.tolerance
        and abs(r.observed_max - r.bound_upper) <= a.tolerance,
    ),
    "mc-consistency": (
        lambda v, a: v.mc_consistency_probe(
            _parse_family_arg(a.family), n=a.n, k=a.k, eps0=a.eps0, draws=a.draws, n_seeds=a.seeds
        ),
        lambda r, a: r.passes >= int(np.ceil(0.9 * len(r.seeds))),
    ),
}


def _cmd_verify(args) -> int:
    from . import verify

    run, holds = _EXPERIMENTS[args.experiment]
    report = run(verify, args)
    ok = holds(report, args)
    _emit(report.to_dict(), args)
    return EXIT_OK if ok else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="CSV file of reals (one per line or comma-separated)")
    p.add_argument("--family", help="draw the sample from a family, e.g. 'weibull(1,1)'")
    p.add_argument("--n", type=_positive_int, default=100, help="sample size when drawing")
    p.add_argument("--sample-seed", type=_seed, default=0, help="seed when drawing")


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("exact", "monte-carlo"), default="exact")
    p.add_argument("--draws", type=_positive_int, default=10**6, help="Monte Carlo draw count")
    p.add_argument("--plan-seed", type=_seed, default=0, help="Monte Carlo seed")
    p.add_argument(
        "--budget", type=_positive_int, default=None,
        help=f"exact-mode cap on C(n, k), even where k = 2 pairs are not built (env {_BUDGET_ENV})",
    )


@functools.cache  # one build per process: parse_args leaves the parser as it was
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlmoments",
        description="Robust central moments via trimmed kernel pseudo-samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="robust central / standardized moment")
    _add_data_args(p_est)
    p_est.add_argument("--k", type=_int_type(2), required=True, help="moment order (>= 2)")
    p_est.add_argument("--eps0", type=float, default=0.0, help="upper trim fraction")
    p_est.add_argument("--gamma", type=float, default=1.0, help="lower trim multiplier")
    p_est.add_argument("--estimator", choices=("trimmed-mean", "median"), default="trimmed-mean")
    p_est.add_argument("--standardized", action="store_true", help="report the scale-free moment")
    p_est.add_argument("--eps0-scale", type=float, default=None, help="denominator trim (standardized)")
    p_est.add_argument("--gamma-scale", type=float, default=None, help="denominator gamma (standardized)")
    _add_plan_args(p_est)
    _add_io_args(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_tsd = sub.add_parser("tsd", help="trimmed standard deviation")
    _add_data_args(p_tsd)
    p_tsd.add_argument("--method", choices=("pairwise", "symmetric"), default="pairwise")
    p_tsd.add_argument("--eps0", type=float, default=0.0, help="pairwise: upper trim fraction")
    p_tsd.add_argument("--gamma", type=float, default=1.0, help="pairwise: lower trim multiplier")
    p_tsd.add_argument("--eps", type=float, default=0.0, help="symmetric: trim fraction")
    _add_plan_args(p_tsd)
    _add_io_args(p_tsd)
    p_tsd.set_defaults(func=_cmd_tsd)

    p_con = sub.add_parser("congruence", help="quantile-average congruence verdict")
    p_con.add_argument("--family", required=True, help="e.g. 'weibull(1,1)', 'pareto(2,1)'")
    p_con.add_argument("--param", required=True, help="parameter name, e.g. 'shape'")
    p_con.add_argument("--gamma", type=float, default=1.0)
    p_con.add_argument("--grid-size", type=_int_type(8), default=64)
    _add_io_args(p_con)
    p_con.set_defaults(func=_cmd_congruence)

    p_ver = sub.add_parser("verify", help="run a verification experiment")
    p_ver.add_argument("experiment", choices=tuple(_EXPERIMENTS))
    p_ver.add_argument("--family", default="normal(0,1)")
    p_ver.add_argument("--k", type=_int_type(2), default=3)
    p_ver.add_argument("--n", type=_positive_int, default=20)
    p_ver.add_argument("--n-draws", type=_int_type(2), default=10**6)
    p_ver.add_argument("--n-list", default="20,50,100")
    p_ver.add_argument("--eps", type=float, default=0.1)
    p_ver.add_argument("--eps0", type=float, default=0.1)
    p_ver.add_argument("--replications", type=_int_type(2), default=1000)
    p_ver.add_argument("--trials", type=_int_type(100), default=10**4)
    p_ver.add_argument("--draws", type=_positive_int, default=10**6)
    p_ver.add_argument("--seeds", type=_positive_int, default=10, help="Monte Carlo seed count")
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--bins", type=_positive_int, default=None)
    p_ver.add_argument("--resolution", type=_int_type(20), default=100)
    p_ver.add_argument("--tolerance", type=float, default=1e-2)
    _add_io_args(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ArgumentError, EstimatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
