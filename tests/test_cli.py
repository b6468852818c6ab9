"""CLI dispatch, exit codes, report artifacts, and determinism."""

import json

import pytest

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
