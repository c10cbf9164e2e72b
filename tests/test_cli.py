"""CLI surface: exit codes, report formats, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hlmoments
from hlmoments import TrimSpec, hl_standardized_moment
from hlmoments import cli
from hlmoments.cli import _PIECE, _InputError, _read_reals, main


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def datafile(tmp_path):
    def make(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return make


class TestEstimate:
    def test_variance_of_simple_file(self, capsys, datafile):
        path = datafile("0,1,2\n")
        code, out, _ = run_cli(capsys, ["estimate", "--input", path, "--k", "2", "--eps0", "0"])
        assert code == 0
        record = json.loads(out)
        assert record["value"] == 1.0
        assert record["pseudo_n"] == 3
        assert record["record"] == "moment-estimate"

    def test_newline_separated_with_header(self, capsys, datafile):
        path = datafile("x\n0\n1\n2\n\n")
        code, out, _ = run_cli(capsys, ["estimate", "--input", path, "--k", "2"])
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_too_few_values_is_domain_error(self, capsys, datafile):
        path = datafile("0,1\n")
        code, _, err = run_cli(capsys, ["estimate", "--input", path, "--k", "3"])
        assert code == 3
        assert "error" in err

    def test_capacity_exceeded(self, capsys, datafile):
        path = datafile(",".join(str(i) for i in range(200)))
        code, _, err = run_cli(
            capsys, ["estimate", "--input", path, "--k", "4", "--mode", "exact"]
        )
        assert code == 4
        assert "Monte Carlo" in err

    def test_pseudo_sample_too_large_to_allocate_is_capacity_error(self, capsys, datafile):
        # 2^45 draws (256 TiB) is beyond a 47-bit user address space, so no host maps it
        path = datafile(",".join(str(i) for i in range(20)))
        argv = ["estimate", "--input", path, "--k", "3", "--mode", "monte-carlo",
                "--draws", str(2**45)]
        code, _, err = run_cli(capsys, argv)
        assert code == 4
        assert "too large to allocate" in err

    def test_unparseable_body_is_usage_error(self, capsys, datafile):
        path = datafile("1,2\nbogus line\n3,4\n")
        code, _, _ = run_cli(capsys, ["estimate", "--input", path, "--k", "2"])
        assert code == 2

    def test_header_line_adds_no_values(self, capsys, datafile):
        body = "1.0\n2.0\n4.0\n"
        want = run_cli(capsys, ["tsd", "--input", datafile(body, "plain.csv")])
        assert want[0] == 0
        for header in ("7,label", "a,b"):
            path = datafile(f"{header}\n{body}", "header.csv")
            assert run_cli(capsys, ["tsd", "--input", path]) == want, header

    def test_second_unparseable_line_names_its_line(self, capsys, datafile):
        path = datafile("7,label\n1.0\n2.0,x\n4.0\n")
        code, _, err = run_cli(capsys, ["tsd", "--input", path])
        assert code == 2
        assert f"{path}:3: cannot parse '2.0,x' as reals" in err

    @pytest.mark.parametrize("argv, message", [
        (["--family", "gamma(2,1e308)"], "gamma(shape=2, scale=1e+308): quantiles overflow a double"),
        (["--family", "gamma(1e50,1)", "--standardized"],
         "variance estimate 0.0 is not positive; sample is degenerate"),
        (["--family", "gamma(3e305,1)"], "shape=3e+305 is too large: log Gamma(shape + 1) "
                                         "overflows a double"),
        (["--family", "gengauss(0,1,1e-300)"], "beta=1e-300 is too small: quantiles overflow a double"),
    ], ids=["scale-1e308", "shape-1e50-standardized", "shape-3e305", "beta-1e-300"])
    def test_family_draws_beyond_a_double_are_domain_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["estimate", *argv, "--k", "4"])
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_a_huge_gamma_shape_draws_its_mean(self, capsys):
        # every draw of gamma(1e50) rounds to 1e50, so the central moment is 0
        code, out, err = run_cli(capsys, ["estimate", "--family", "gamma(1e50,1)", "--k", "3"])
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 0.0

    def test_missing_source_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["estimate", "--k", "2"])
        assert code == 2

    def test_both_sources_is_usage_error(self, capsys, datafile):
        path = datafile("1,2,3\n")
        code, _, _ = run_cli(
            capsys,
            ["estimate", "--input", path, "--family", "normal(0,1)", "--k", "2"],
        )
        assert code == 2

    def test_standardized_moment(self, capsys, datafile):
        path = datafile("0,1,3\n")
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", path, "--k", "3", "--standardized"]
        )
        assert code == 0
        want = (10 / 3) / (7 / 3) ** 1.5
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)

    def test_standardized_moment_with_its_own_scale_trim(self, capsys, datafile):
        x = np.random.default_rng(8).gamma(2.0, 1.0, 30)
        path = datafile(",".join(repr(v) for v in x.tolist()))
        argv = ["estimate", "--input", path, "--k", "3", "--standardized", "--eps0", "0.1",
                "--eps0-scale", "0.2", "--gamma-scale", "0.5"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        want = hl_standardized_moment(x, 3, TrimSpec(0.1), trim_scale=TrimSpec(0.2, 0.5))
        assert json.loads(out) == want.to_dict()

    def test_family_source_with_monte_carlo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--family", "weibull(1,1)", "--n", "30",
                "--sample-seed", "5", "--k", "3", "--eps0", "0.1",
                "--mode", "monte-carlo", "--draws", "20000", "--plan-seed", "9",
            ],
        )
        assert code == 0
        record = json.loads(out)
        assert record["pseudo_n"] == 20000
        assert record["seed"] == 9

    def test_csv_format(self, capsys, datafile):
        path = datafile("0,1,2\n")
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", path, "--k", "2", "--format", "csv"]
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert "value" in header.split(",")
        assert "1.0" in row.split(",")


# fields every text may use: numbers as float spells them, and a blank
_PLAIN = ["0", "7", "-2.5", "1e-300", "-0.0", "1_000", "inf", "-inf", "nan", "Infinity", ""]
# fields with outer or inner whitespace, ASCII or not, a non-ASCII digit and words
_ODD = [" ", "\t", "3 ", " 4", "\xa08", "9\u2028", "\x85", "\x1c1", "\u0661",
        "1 2", "5\t6", "1\x0b2", "1\x0c2", "1\x1f2", "1\xa02", "x", "label", "1.2.3"]


def _texts(start, fields):
    """Input files: ``start``, then lines of ``fields`` with mixed line endings."""
    line = st.lists(st.sampled_from(fields), max_size=4).map(",".join)
    ends = st.sampled_from(["\n", "\r\n", "\r", ",\n"])
    return st.tuples(st.lists(st.tuples(line, ends), max_size=8), line).map(
        lambda t: start + "".join(a + b for a, b in t[0]) + t[1])


# half the texts start plain; each mixes the plain fields with at most two odd ones
_INPUT_TEXTS = st.tuples(
    st.one_of(st.just(""), st.sampled_from(["\ufeff", "7,label\n", "a,b\n", "x\r\n", "\ufeff1\n"])),
    st.lists(st.sampled_from(_ODD), max_size=2),
).flatmap(lambda t: _texts(t[0], _PLAIN + t[1]))


class TestReadReals:
    @staticmethod
    def reference(path):
        """The line-by-line parser ``_read_reals`` had before its bulk pass."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise _InputError(f"cannot read {path}: {exc}") from exc
        values: list[float] = []
        first = True  # a single leading header line is allowed
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:  # a whole line parses before any of it is kept
                row = [float(tok) for tok in text.split(",") if tok.strip()]
            except ValueError:
                if first:
                    first = False
                    continue
                raise _InputError(f"{path}:{lineno}: cannot parse {text!r} as reals")
            values.extend(row)
            first = False
        if not values:
            raise _InputError(f"{path}: no numeric data found")
        return np.asarray(values, dtype=np.float64)

    @staticmethod
    def outcome(read, path):
        try:
            return read(path).tobytes()
        except _InputError as exc:
            return str(exc)

    # the bulk pass cuts the text into pieces of at least ``piece`` characters
    @settings(max_examples=200, deadline=None)
    @given(text=_INPUT_TEXTS, piece=st.sampled_from([1, 2, 3, 7, 16, _PIECE]))
    @example(text="", piece=_PIECE)
    @example(text="0,1,2\n", piece=_PIECE)
    @example(text="x\n0\n1\n2\n\n", piece=_PIECE)
    @example(text="x\n0\n1\n2\n\n", piece=1)
    @example(text="1,2\nbogus line\n3,4\n", piece=_PIECE)
    @example(text="7,label\n1.0\n2.0,x\n4.0\n", piece=_PIECE)
    @example(text="\ufeff1\n2\n", piece=_PIECE)
    @example(text="1\r\n,\r\n\r\n2,\r\n", piece=_PIECE)
    @example(text="1_000,inf,nan,-0.0,-nan\n", piece=_PIECE)
    @example(text="\xa01\n2\n", piece=_PIECE)
    @example(text="a,b\r\n1,2\r\n\r\n3,\r\n", piece=2)
    @example(text="a,b\n1,2\nbogus\n3\n", piece=3)  # a later bad line is named path:4
    @example(text="\nx,y\r\n1,2\r\n3,oops\r\n", piece=16)
    @example(text="value\nlabel\n1\n", piece=1)
    def test_same_values_and_messages_as_the_line_loop(self, tmp_path_factory, text, piece):
        path = tmp_path_factory.getbasetemp() / "read_reals.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(cli, "_PIECE", piece):
            got = self.outcome(_read_reals, str(path))
        assert got == self.outcome(self.reference, str(path))

    @pytest.mark.parametrize("text", [
        "value\n1\n2.5\n-3\n",
        "\n\n  \nx,y\n1,2\n\n3,4,\n",
        "sample value\r\n1,2\r\n\r\n3\r\n",
        "\u00e9t\u00e9\n7\n8,9\n",
        "a,b\n" + "\n".join(map(repr, np.linspace(-1.0, 1.0, 5000).tolist())) + "\n",
    ], ids=["one-column", "blank-lines-and-commas", "crlf-and-inner-space", "non-ascii", "long"])
    def test_a_header_file_takes_the_bulk_pass(self, datafile, text):
        # in 8-character pieces, the line loop sees only the piece holding the header:
        # the rest of the file is plain and takes the bulk pass
        path = datafile(text)
        header = next(line for line in text.splitlines() if line.strip()).strip()
        want = self.reference(path)
        with (mock.patch.object(cli, "_PIECE", 8),
              mock.patch.object(cli, "_line_reals", wraps=cli._line_reals) as loop):
            got = _read_reals(path)
        assert loop.call_count == 1 and header in loop.call_args.args[1]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("header", ["", "value\n"], ids=["plain", "header"])
    def test_working_memory_is_the_text_the_output_and_one_piece(self, datafile, header):
        # the reader holds no whole-file bytes or text: the pieces' arrays and their
        # join (the output twice), and one piece of _PIECE characters with its tokens
        # (some 9 bytes a character for 19-character tokens)
        values = np.random.default_rng(0).lognormal(0.0, 1.0, 100_000)
        path = datafile(header + "\n".join(map(repr, values.tolist())) + "\n")
        _read_reals(path)  # warm caches
        tracemalloc.start()
        try:
            out = _read_reals(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == values.tobytes()
        assert peak <= 2 * out.nbytes + 16 * _PIECE

    @pytest.mark.parametrize("space", list(" \t\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2028\u3000"),
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_inner_whitespace_is_no_separator(self, datafile, space):
        # "1 2" is one field float rejects, so that first line is the header
        assert _read_reals(datafile(f"1{space}2\n3\n")).tolist() == [3.0]

    def test_non_utf8_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1.0\n\xe9\n2.0\n")
        code, out, err = run_cli(capsys, ["estimate", "--input", str(path), "--k", "2"])
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position 4: "
                       "invalid continuation byte\n")

    @pytest.mark.parametrize("at", [_PIECE + 2, 2 * _PIECE + 1], ids=["second-piece", "at-a-cut"])
    @pytest.mark.parametrize("tail", [b"\xe9\n2\n", b"\xe2\x821\n", b"\xe2\x82"],
                             ids=["lone-byte", "cut-character", "cut-at-eof"])
    def test_a_bad_byte_past_the_first_piece_is_named_by_its_file_offset(
        self, capsys, tmp_path, at, tail
    ):
        # in "1\n" lines the first piece ends at byte _PIECE + 2 and the second one's
        # read at 2 * _PIECE + 2, so a character begun a byte before runs across that cut
        data = (b"1\n" * _PIECE * 2)[:at] + tail
        path = tmp_path / "late.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        assert whole.value.start == at
        code, out, err = run_cli(capsys, ["estimate", "--input", str(path), "--k", "2"])
        assert (code, out, err) == (2, "", f"error: {path}: {whole.value}\n")


class TestTsd:
    def test_pairwise_identity(self, capsys, datafile):
        path = datafile("0\n1\n2\n")
        code, out, _ = run_cli(capsys, ["tsd", "--input", path, "--method", "pairwise"])
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_symmetric_value(self, capsys, datafile):
        path = datafile("0,1,2,3\n")
        code, out, _ = run_cli(
            capsys, ["tsd", "--input", path, "--method", "symmetric", "--eps", "0"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_degenerate_trim_is_domain_error(self, capsys, datafile):
        path = datafile("0,1,2,3\n")
        code, _, _ = run_cli(
            capsys, ["tsd", "--input", path, "--method", "symmetric", "--eps", "0.49"]
        )
        assert code == 3


class TestCongruence:
    def test_weibull_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, ["congruence", "--family", "weibull(1,1)", "--param", "shape"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "non-congruent"

    def test_pareto_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, ["congruence", "--family", "pareto(2,1)", "--param", "shape"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "congruent"

    def test_normal_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys, ["congruence", "--family", "normal(0,1)", "--param", "sigma"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "congruent"

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["congruence", "--family", "cauchy(0,1)", "--param", "x0"]
        )
        assert code == 2

    def test_unknown_param_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["congruence", "--family", "weibull(1,1)", "--param", "rate"]
        )
        assert code == 2

    def test_gamma_whose_grid_end_rounds_to_one_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, ["congruence", "--family", "weibull(1,1)",
                                          "--param", "shape", "--gamma", "1e-17"])
        assert (code, out) == (3, "")
        assert err == ("error: gamma=1e-17 is too small: "
                       "the eps grid's end 1/(1 + gamma) rounds to 1\n")


class TestVerify:
    def test_equivariance_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "equivariance", "--trials", "2000", "--seed", "1"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["max_rel_dev_kernel"] <= 1e-9

    def test_unknown_experiment_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "bogus-name"])
        assert code == 2

    def test_support_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "support-bounds", "--k", "3", "--resolution", "50"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["bound_lower"] == pytest.approx(-1 / 3)

    def test_variance_dominance_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "variance-dominance", "--family", "normal(0,1)",
                "--n-list", "16,24", "--replications", "150", "--seed", "0",
            ],
        )
        rec = json.loads(out)
        assert code in (0, 5)  # property honestly evaluated at small R
        assert len(rec["ratio"]) == 2

    def test_n_list_not_integers_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "variance-dominance", "--n-list", "16,x", "--replications", "2"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "16,x" in err

    def test_kernel_shape_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "kernel-shape", "--family", "lognormal(0,1)", "--k", "3",
             "--n-draws", "100000", "--seed", "3"],
        )
        assert code == 0
        assert json.loads(out)["abs_median_over_sigma"] <= 0.1

    def test_pairwise_shape_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "pairwise-shape", "--family", "uniform(0,1)", "--n-draws", "20000",
             "--bins", "10"],
        )
        assert code == 0
        assert json.loads(out)["record"] == "shape-probe"

    @pytest.mark.parametrize("draws, expected", [("200000", 0), ("50", 5)])
    def test_mc_consistency_small(self, capsys, draws, expected):
        code, out, _ = run_cli(
            capsys,
            ["verify", "mc-consistency", "--n", "6", "--k", "3", "--eps0", "0",
             "--draws", draws, "--seeds", "3"],
        )
        assert code == expected
        assert json.loads(out)["record"] == "mc-consistency"

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_usage_error(self, capsys, seeds):
        code, out, err = run_cli(capsys, ["verify", "mc-consistency", "--n", "6", "--seeds", seeds])
        assert (code, out) == (2, "")
        assert f"error: argument --seeds: must be a positive integer, got {seeds}\n" in err


class TestOutputContracts:
    def test_byte_identical_reruns(self, capsys, datafile):
        path = datafile("1,2,3,4,5,6,7,8\n")
        argv = ["estimate", "--input", path, "--k", "3", "--eps0", "0.1"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_json_report_round_trip(self, capsys, datafile):
        from hlmoments import MomentEstimate

        path = datafile("1,2,3,4,5\n")
        _, out, _ = run_cli(capsys, ["estimate", "--input", path, "--k", "2"])
        record = json.loads(out)
        est = MomentEstimate.from_dict(record)
        assert est.to_dict() == record

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, datafile):
        outpath = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys, ["estimate", "--input", datafile("0,1,2\n"), "--k", "2", "--output", str(outpath)]
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {outpath}: [Errno 2] No such file or directory: '{outpath}'\n"

    def test_output_file(self, capsys, tmp_path, datafile):
        path = datafile("0,1,2\n")
        outpath = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["estimate", "--input", path, "--k", "2", "--output", str(outpath)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(outpath.read_text())["value"] == 1.0

    def test_budget_env_var(self, capsys, datafile, monkeypatch):
        monkeypatch.setenv("HLMOMENTS_BUDGET_CAP", "10")
        path = datafile(",".join(str(i) for i in range(10)))
        code, _, _ = run_cli(capsys, ["estimate", "--input", path, "--k", "2"])
        assert code == 4  # C(10,2) = 45 > 10
        code2, _, _ = run_cli(
            capsys, ["estimate", "--input", path, "--k", "2", "--budget", "100"]
        )
        assert code2 == 0

    @pytest.mark.parametrize("raw, message", [
        ("ten", "HLMOMENTS_BUDGET_CAP='ten' is not an integer"),
        ("0", "HLMOMENTS_BUDGET_CAP must be positive, got 0"),
    ])
    def test_malformed_budget_env_var_fails_only_exact_plans(
        self, capsys, datafile, monkeypatch, raw, message
    ):
        monkeypatch.setenv("HLMOMENTS_BUDGET_CAP", raw)
        path = datafile("0,1,2\n")
        for extra in ([], ["--budget", "100"]):
            argv = ["estimate", "--input", path, "--k", "2", *extra]
            assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0 and out.startswith("usage: hlmoments")
        code, out, _ = run_cli(capsys, ["congruence", "--family", "pareto(2,1)", "--param", "shape"])
        assert code == 0 and json.loads(out)["verdict"] == "congruent"
        code, out, _ = run_cli(capsys, ["estimate", "--input", path, "--k", "2",
                                        "--mode", "monte-carlo", "--draws", "100"])
        assert code == 0 and json.loads(out)["pseudo_n"] == 100

    @pytest.mark.parametrize("argv", [
        ["estimate", "--k", "2", "--budget"],
        ["estimate", "--k", "2", "--mode", "monte-carlo", "--draws"],
        ["tsd", "--budget"],
        ["verify", "mc-consistency", "--n", "6", "--draws"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    @pytest.mark.parametrize("value, message", [
        ("0", "must be a positive integer, got 0"),
        ("-3", "must be a positive integer, got -3"),
        ("2.5", "invalid int value: '2.5'"),
    ], ids=["zero", "negative", "fraction"])
    def test_plan_sizes_that_are_not_positive_integers_are_usage_errors(
        self, capsys, datafile, argv, value, message
    ):
        # exit 2, as for a malformed HLMOMENTS_BUDGET_CAP
        data = [] if argv[0] == "verify" else ["--input", datafile("0,1,2\n")]
        code, out, err = run_cli(capsys, [*argv[:1], *data, *argv[1:], value])
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-1]}: {message}\n" in err

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--family", "normal(0,1)", "--k", "2", "--n", "0"],
         "must be a positive integer, got 0"),
        (["verify", "pairwise-shape", "--n-draws", "1"], "must be an integer >= 2, got 1"),
        (["verify", "equivariance", "--trials", "99"], "must be an integer >= 100, got 99"),
        (["verify", "pairwise-shape", "--bins", "0"], "must be a positive integer, got 0"),
        (["verify", "kernel-shape", "--bins", "-2"], "must be a positive integer, got -2"),
        (["verify", "support-bounds", "--resolution", "19"], "must be an integer >= 20, got 19"),
        (["congruence", "--family", "pareto(2,1)", "--param", "shape", "--grid-size", "7"],
         "must be an integer >= 8, got 7"),
        (["verify", "mc-consistency", "--n", "0"], "must be a positive integer, got 0"),
        (["verify", "variance-dominance", "--replications", "1"],
         "must be an integer >= 2, got 1"),
        (["verify", "kernel-shape", "--k", "1"], "must be an integer >= 2, got 1"),
        (["estimate", "--family", "normal(0,1)", "--k", "1"], "must be an integer >= 2, got 1"),
        (["verify", "variance-dominance", "--replications", "2", "--n-list", "3,20"],
         "must be an integer >= 4, got 3"),
    ], ids=["estimate-n", "n-draws", "trials", "bins-zero", "bins-negative", "resolution",
            "grid-size", "verify-n", "replications", "verify-k", "estimate-k", "n-list"])
    def test_counts_below_the_library_bound_are_usage_errors(self, capsys, argv, message):
        # the parser holds each count to the bound the library checks, so a bad
        # count exits 2 like a malformed one, not 3 from the library
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-2]}: {message}\n" in err

    def test_order_above_the_supported_cap_stays_a_domain_error(self, capsys):
        # --k holds the lowest order only; the cap of 12 is the library's domain check
        code, out, err = run_cli(capsys, ["estimate", "--family", "normal(0,1)", "--k", "13"])
        assert (code, out) == (3, "")
        assert err == "error: moment order 13 exceeds the supported cap 12\n"

    def test_order_outside_a_probe_range_stays_a_domain_error(self, capsys):
        # --k only holds the lowest order any probe takes; each probe checks its own range
        code, out, err = run_cli(capsys, ["verify", "kernel-shape", "--k", "5"])
        assert (code, out) == (3, "")
        assert err == "error: k must be an integer in [3, 4], got 5\n"

    @pytest.mark.parametrize("argv", [
        ["estimate", "--k", "2", "--sample-seed"],
        ["tsd", "--mode", "monte-carlo", "--sample-seed"],
        ["estimate", "--k", "2", "--mode", "monte-carlo", "--plan-seed"],
        ["tsd", "--mode", "monte-carlo", "--plan-seed"],
        ["verify", "equivariance", "--trials", "100", "--seed"],
        ["verify", "mc-consistency", "--n", "6", "--seed"],
    ], ids=lambda argv: f"{argv[1] if argv[0] == 'verify' else argv[0]}{argv[-1]}")
    def test_negative_seeds_are_usage_errors(self, capsys, argv):
        # exit 2 from the parser, not a numpy traceback (exit 1) or a domain error (exit 3)
        data = [] if argv[0] == "verify" else ["--family", "normal(0,1)", "--n", "5"]
        code, out, err = run_cli(capsys, [*argv[:1], *data, *argv[1:], "-1"])
        assert (code, out) == (2, "")
        assert f"error: argument {argv[-1]}: must be a non-negative integer, got -1\n" in err

    @pytest.mark.parametrize("argv", [["estimate", "--k", "2"], ["tsd"]], ids=lambda a: a[0])
    def test_chunk_is_not_an_option(self, capsys, datafile, argv):
        # the gather size changes no result, so it is fixed, not settable
        data = ["--input", datafile("0,1,2\n")]
        code, out, err = run_cli(capsys, [*argv[:1], *data, *argv[1:], "--chunk", "7"])
        assert (code, out) == (2, "")
        assert "error: unrecognized arguments: --chunk 7\n" in err


class TestOneProcess:
    """main builds its parser once per process; a call leaves nothing behind for the next."""

    SEQUENCE = r"""
import contextlib, io, json, sys
from hlmoments.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
    FRESH = "import sys; from hlmoments.cli import main; sys.exit(main(sys.argv[1:]))"

    def test_calls_in_one_process_match_fresh_processes(self, datafile):
        path = datafile("0.3\n-1.2\n2.5\n0.9\n1.7\n-0.4\n3.1\n")
        calls = [
            ["estimate", "--input", path, "--k", "3", "--eps0", "0.2", "--mode", "monte-carlo",
             "--draws", "500", "--plan-seed", "3", "--format", "csv"],
            ["estimate", "--input", path, "--k", "3"],  # every default back after the call above
            ["tsd", "--input", path],
            ["congruence", "--family", "weibull(1,1)", "--param", "shape", "--grid-size", "8"],
            ["estimate", "--input", path, "--k", "1"],  # a usage error: exit 2 and its message
            ["congruence", "--help"],
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(hlmoments.__file__)))
        env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
        run = dict(env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        fresh = [subprocess.Popen([sys.executable, "-c", self.FRESH, *argv], **run)
                 for argv in calls]
        one = subprocess.run([sys.executable, "-c", self.SEQUENCE, json.dumps(calls)],
                             check=True, timeout=120, **run)
        want = []
        for proc in fresh:
            out, err = proc.communicate(timeout=120)
            want.append([proc.returncode, out, err])
        got = json.loads(one.stdout)
        assert [code for code, _, _ in want] == [0, 0, 0, 0, 2, 0]
        assert got == want
