"""CLI dispatch, exit codes, report artifacts, and determinism."""

import importlib.util
import json
from pathlib import Path

import pytest

from transform_orders import cli
from transform_orders.cli import (
    EXIT_ERROR,
    EXIT_FAILS,
    EXIT_HOLDS,
    EXIT_INCONCLUSIVE,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    config_from_args,
    main,
    run,
)
from transform_orders.systems import MAX_COMPONENTS

TOO_MANY_RATES = ",".join(str(1.0 + k) for k in range(MAX_COMPONENTS + 1))


def run_cli(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestVerdictCommands:
    def test_star_holds_exit_zero(self, tmp_path):
        code, text = run_cli(
            ["check-star", "--lambda", "2,3", "--theta", "1.5,3.5"], tmp_path
        )
        assert code == EXIT_HOLDS
        report = json.loads(text)
        assert report["verdict"] == "HOLDS"
        assert report["certificate"] is not None
        assert report["timing"] is None

    def test_star_fails_exit_one(self, tmp_path):
        code, text = run_cli(
            ["check-star", "--lambda", "1.5,3.5", "--theta", "2,3"], tmp_path
        )
        assert code == EXIT_FAILS
        report = json.loads(text)
        assert report["witness"]["pattern"]

    def test_convex_fails_with_witness_near_published_point(self, tmp_path):
        code, text = run_cli(
            ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5"], tmp_path
        )
        assert code == EXIT_FAILS
        witness = json.loads(text)["witness"]
        assert 0.5 < witness["a"] < 0.75
        assert witness["b"] > 0.0
        assert [r["sign"] for r in witness["pattern"]] == ["+", "-", "+", "-"]

    def test_convex_point_check_certifies_pattern(self, tmp_path):
        code, text = run_cli(
            ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5",
             "--a", "0.749", "--b", "0.0125"],
            tmp_path,
        )
        assert code == EXIT_FAILS
        pattern = json.loads(text)["witness"]["pattern"]
        assert [r["sign"] for r in pattern] == ["+", "-", "+", "-"]
        assert all(r["certain"] for r in pattern)

    def test_inconclusive_exits_two_not_zero(self, tmp_path):
        code, _ = run_cli(
            ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5",
             "--a", "1.5", "--b", "0.1"],
            tmp_path,
        )
        assert code == EXIT_INCONCLUSIVE

    def test_three_component_star_scan(self, tmp_path):
        code, text = run_cli(
            ["check-star", "--lambda", "2,3,4", "--theta", "1,3,5"], tmp_path
        )
        assert code == EXIT_INCONCLUSIVE
        assert "consistent" in json.loads(text)["detail"]

    def test_three_component_convex_fails(self, tmp_path):
        code, text = run_cli(
            ["check-convex", "--lambda", "2,3,4", "--theta", "1,3,5"], tmp_path
        )
        assert code == EXIT_FAILS
        witness = json.loads(text)["witness"]
        assert 0.25 < witness["a"] < 0.5  # the strip (theta_1/lam_3, theta_1/lam_1)
        assert [r["sign"] for r in witness["pattern"]] == ["+", "-", "+", "-"]

    def test_three_component_counterexample(self, tmp_path):
        code, text = run_cli(
            ["find-counterexample", "--lambda", "2,3,4", "--theta", "1,3,5"], tmp_path
        )
        assert code == EXIT_FAILS
        assert json.loads(text)["strip"] == [0.25, 0.5]


class TestExtremeRates:
    """Rates near 1e200 (1e155 at n = 3) overflow r**k in the derivative
    sums of the sign at 0+; the verdicts still come out, never exit 3."""

    @pytest.mark.parametrize("command, lam, theta, want", [
        ("check-star", "1e200,2e200", "0.5e200,2.5e200", EXIT_HOLDS),
        ("check-star", "0.5e200,2.5e200", "1e200,2e200", EXIT_FAILS),
        ("check-convex", "2e200,3e200", "1.5e200,3.5e200", EXIT_INCONCLUSIVE),
        ("check-convex", "1.5e200,3.5e200", "2e200,3e200", EXIT_INCONCLUSIVE),
        ("check-star", "1e155,2e155,3e155", "0.5e155,2.5e155,3e155", EXIT_INCONCLUSIVE),
    ], ids=["star-majorized", "star-reversed", "convex-majorized", "convex-reversed",
            "star-n3"])
    def test_verdict_exit_codes(self, tmp_path, command, lam, theta, want):
        code, text = run_cli([command, "--lambda", lam, "--theta", theta], tmp_path)
        assert code == want
        assert json.loads(text)["verdict"] in ("HOLDS", "FAILS", "INCONCLUSIVE")


def load_bench_verify():
    """bench/verify.py, the benchmark's 50-digit check of witness regions."""
    path = Path(__file__).resolve().parent.parent / "bench" / "verify.py"
    spec = importlib.util.spec_from_file_location("bench_verify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRateScale:
    def test_tiny_rates_n3_star_is_not_a_wrong_fails(self, tmp_path):
        # Rates near 1e-11 merged terms of the coefficient form, and a scan
        # that evaluated it certified a '+' at x = 4.96e9 where the true gap
        # is -0.00146 (ROADMAP item 10).  The product form evaluates the
        # true gap; every certified region must have the 50-digit sign.
        lam, theta = (2e-11, 3e-11, 4e-11), (1e-11, 3e-11, 5e-11)
        code, text = run_cli(["check-star", "--lambda", ",".join(map(str, lam)),
                              "--theta", ",".join(map(str, theta))], tmp_path)
        report = json.loads(text)
        assert code != EXIT_FAILS and report["verdict"] != "FAILS"
        verify = load_bench_verify()
        witness = report["witness"]
        for region in witness["pattern"] if witness else []:
            if region["certain"]:
                value = verify.gap(lam, theta, witness["a"], witness["b"], region["x"])
                assert (value > 0) == (region["sign"] == "+")


class TestFindCounterexample:
    def test_report_carries_witness_and_strip(self, tmp_path):
        code, text = run_cli(
            ["find-counterexample", "--lambda", "2,3", "--theta", "1.5,3.5"],
            tmp_path,
        )
        assert code == EXIT_FAILS
        report = json.loads(text)
        assert report["strip"] == [0.5, 0.75]
        assert 0.5 < report["witness"]["a"] < 0.75
        assert report["b0_used"] > 0.0
        assert len(report["witness"]["pattern"]) == 4
        lo, hi = report["concavity_window"]
        assert 0.0 < lo < hi

    def test_degenerate_strip_is_an_error(self, tmp_path):
        code, _ = run_cli(
            ["find-counterexample", "--lambda", "2.5,2.5", "--theta", "1.5,3.5"],
            tmp_path,
        )
        assert code == EXIT_ERROR


class TestSignMap:
    def test_csv_shape(self, tmp_path):
        code, text = run_cli(
            ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0.0125",
             "--resolution", "5", "--x-max", "15"],
            tmp_path,
            name="map.csv",
        )
        assert code == EXIT_HOLDS
        lines = text.strip().splitlines()
        assert lines[0] == "x,a,sign"
        assert all(line.split(",")[2] in ("-1", "0", "1") for line in lines[1:])

    def test_json_format_available(self, tmp_path):
        code, text = run_cli(
            ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0",
             "--resolution", "4", "--x-max", "5", "--format", "json"],
            tmp_path,
        )
        assert code == EXIT_HOLDS
        report = json.loads(text)
        assert 0.5 in report["a_values"] and 0.75 in report["a_values"]


class TestScalarCommands:
    def test_failure_rate_constant_for_single_component(self, tmp_path):
        code, text = run_cli(
            ["failure-rate", "--lambda", "2", "--x", "1.5"], tmp_path
        )
        assert code == EXIT_HOLDS
        assert json.loads(text)["failure_rate"] == pytest.approx(2.0)

    def test_simulate_reports_sup_distance(self, tmp_path):
        code, text = run_cli(
            ["simulate", "--lambda", "2,3", "--samples", "50000", "--seed", "7"],
            tmp_path,
        )
        assert code == EXIT_HOLDS
        report = json.loads(text)
        assert report["sup_distance"] < 0.02
        assert report["seed"] == 7


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        argv = ["find-counterexample", "--lambda", "2,3", "--theta", "1.5,3.5"]
        _, first = run_cli(argv, tmp_path, "a.json")
        _, second = run_cli(argv, tmp_path, "b.json")
        assert first == second

    def test_simulate_deterministic_under_seed(self, tmp_path):
        argv = ["simulate", "--lambda", "1,2,3", "--samples", "20000", "--seed", "5"]
        _, first = run_cli(argv, tmp_path, "a.json")
        _, second = run_cli(argv, tmp_path, "b.json")
        assert first == second

    def test_report_echoes_config(self, tmp_path):
        _, text = run_cli(
            ["check-star", "--lambda", "2,3", "--theta", "1.5,3.5"], tmp_path
        )
        echo = json.loads(text)["config_echo"]
        assert echo["lam"] == [2.0, 3.0]
        assert echo["theta"] == [1.5, 3.5]


class TestConfigFile:
    def test_config_file_supplies_fields(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lam": [2, 3], "theta": [1.5, 3.5]}))
        code, text = run_cli(["check-star", "--config", str(cfg)], tmp_path)
        assert code == EXIT_HOLDS
        assert json.loads(text)["verdict"] == "HOLDS"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lam": [1.5, 3.5], "theta": [2, 3]}))
        code, _ = run_cli(
            ["check-star", "--config", str(cfg), "--lambda", "2,3",
             "--theta", "1.5,3.5"],
            tmp_path,
        )
        assert code == EXIT_HOLDS

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lam": [2, 3], "bogus": 1}))
        assert main(["check-star", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, fields", [
        (["simulate"], {"samples": 1500.5}),
        (["simulate"], {"samples": True}),
        (["simulate"], {"samples": 10}),
        (["simulate"], {"seed": -1}),
        (["simulate"], {"seed": "7"}),
        (["sign-map", "--b", "0"], {"resolution": 21.0}),
        (["check-star"], {"allow_numerical_holds": "no"}),
        (["check-star"], {"allow_numerical_holds": 1}),
        (["check-convex", "--b", "0"], {"a": "0.5"}),
        (["check-convex", "--b", "0"], {"a": 10**400}),
        (["check-star"], {"sign_floor": None}),
    ])
    def test_malformed_config_values(self, tmp_path, argv, fields):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lam": [2, 3], "theta": [1.5, 3.5], **fields}))
        assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE


class TestUsageErrors:
    def test_bad_rate_list(self):
        assert main(["check-star", "--lambda", "abc", "--theta", "1,2"]) == EXIT_USAGE

    def test_missing_required_flags(self):
        assert main(["check-star"]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_nonpositive_rates(self):
        assert main(["check-star", "--lambda", "0,1", "--theta", "1,2"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["check-star", "--lambda", "2,nan", "--theta", "1.5,3.5"],
        ["check-star", "--lambda", "2,inf", "--theta", "1.5,3.5"],
        ["check-star", "--lambda", "2,3", "--theta", "1.5,-inf"],
        ["check-star", "--lambda", "2,3", "--theta", "1.5,3.5", "--sign-floor", "nan"],
        ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5",
         "--a", "0.749", "--b", "inf"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "nan"],
        ["failure-rate", "--lambda", "2,3", "--x", "nan"],
    ])
    def test_non_finite_numbers(self, argv):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["simulate", "--lambda", "1,2", "--samples", "10"],
        ["simulate", "--lambda", "1,2", "--seed", "-1"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0", "--resolution", "1"],
    ])
    def test_out_of_range_integers(self, argv):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5", "--a", "-1", "--b", "0.01"],
        ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5", "--a", "0", "--b", "0.01"],
        ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5", "--a", "0.7", "--b", "-0.01"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "-1"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0", "--a-min", "0"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0", "--a-max", "-1"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0",
         "--a-min", "0.5", "--a-max", "0.5"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0", "--a-max", "0.1"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0", "--x-max", "0"],
        ["failure-rate", "--lambda", "2,3", "--x", "0"],
        ["failure-rate", "--lambda", "2,3", "--x", "-1"],
        ["check-star", "--lambda", "2,3", "--theta", "1.5,3.5,4"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5,4", "--b", "0"],
    ])
    def test_out_of_range_numbers(self, argv):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("command, extra", [
        ("check-star", ["--theta", TOO_MANY_RATES]),
        ("sign-map", ["--theta", TOO_MANY_RATES, "--b", "0"]),
        ("failure-rate", ["--x", "1"]),
        ("simulate", []),
    ])
    def test_more_rates_than_max_components(self, command, extra, capsys):
        # 21 rates would give 2^21 - 1 survival terms: a malformed
        # configuration, caught before any survival is built.
        assert main([command, "--lambda", TOO_MANY_RATES] + extra) == EXIT_USAGE
        assert f"at most {MAX_COMPONENTS}" in capsys.readouterr().err

    def test_more_rates_than_max_components_in_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        rates = [1.0 + k for k in range(MAX_COMPONENTS + 1)]
        cfg.write_text(json.dumps({"lam": rates, "theta": rates}))
        assert main(["check-star", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["check-star", "--lambda", "2,3", "--theta", "1.5,3.5"],
        ["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0", "--resolution", "8"],
    ])
    @pytest.mark.parametrize("out", [(), ("missing", "r.json")])
    def test_unwritable_out_is_runtime_error(self, argv, out, tmp_path, capsys):
        # A directory, or a file under a missing one: the configuration is
        # well formed and the write fails at run time, whatever the verdict.
        assert main(argv + ["--out", str(tmp_path.joinpath(*out))]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
    @pytest.mark.parametrize("argv, call", [
        (["check-star", "--lambda", "2,3", "--theta", "1.5,3.5"], "star_check"),
        (["sign-map", "--lambda", "2,3", "--theta", "1.5,3.5", "--b", "0",
          "--resolution", "8"], "sign_map"),
    ])
    def test_out_of_memory_is_runtime_error(self, argv, call, message, monkeypatch, capsys):
        # Exit 1 would read as FAILS; the library call is patched to raise,
        # nothing is allocated.
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, call, out_of_memory)
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", "1e400"])
    def test_malformed_tol_override(self, monkeypatch, value):
        monkeypatch.setenv("TOL_OVERRIDE", value)
        assert main(["check-star", "--lambda", "2,3", "--theta", "1.5,3.5"]) == EXIT_USAGE

    def test_csv_only_for_sign_map(self):
        assert main(
            ["check-star", "--lambda", "2,3", "--theta", "1.5,3.5",
             "--format", "csv"]
        ) == EXIT_USAGE

    def test_run_config_validation(self):
        with pytest.raises(UsageError):
            RunConfig(command="check-star", lam=[], theta=[1.0])
        with pytest.raises(UsageError):
            RunConfig(command="nope")
        with pytest.raises(UsageError):
            RunConfig(command="check-star", out=1)  # a file descriptor, not a path

    def test_parser_roundtrip(self):
        config = config_from_args(
            ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5",
             "--a", "0.749", "--b", "0.0125"]
        )
        assert config.command == "check-convex"
        assert config.a == 0.749 and config.b == 0.0125


class TestToleranceOverride:
    def test_floor_scaling_can_defeat_certification(self, tmp_path, monkeypatch):
        argv = ["check-convex", "--lambda", "2,3", "--theta", "1.5,3.5",
                "--a", "0.749", "--b", "0.0125"]
        code, _ = run_cli(argv, tmp_path, "tight.json")
        assert code == EXIT_FAILS
        # Raising the floor eight orders of magnitude hides the faint
        # fourth region, so the same point can no longer be certified.
        monkeypatch.setenv("TOL_OVERRIDE", "1e8")
        code, _ = run_cli(argv, tmp_path, "loose.json")
        assert code == EXIT_INCONCLUSIVE

    def test_run_function_returns_payload(self):
        config = RunConfig(command="check-star", lam=[2, 3], theta=[1.5, 3.5])
        code, text = run(config)
        assert code == EXIT_HOLDS
        assert json.loads(text)["verdict"] == "HOLDS"
