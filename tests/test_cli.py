"""CLI surface: exit codes, report formats, determinism."""

import json
import math

import numpy as np
import pytest

from hlmoments import TrimSpec, hl_standardized_moment
from hlmoments.cli import main


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
        assert run_cli(capsys, argv + ["--chunk", "7"]) == (0, out, "")

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

    @pytest.mark.parametrize("experiment", ["pairwise-shape", "kernel-shape"])
    def test_zero_bins_is_domain_error(self, capsys, experiment):
        code, out, err = run_cli(
            capsys, ["verify", experiment, "--n-draws", "100", "--bins", "0"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "bins" in err

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
        ["estimate", "--k", "2", "--chunk"],
        ["estimate", "--k", "2", "--mode", "monte-carlo", "--draws"],
        ["tsd", "--budget"],
        ["tsd", "--mode", "monte-carlo", "--chunk"],
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
