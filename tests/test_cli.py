import json

import pytest

from hourahead.cli import ADVERSARY_STRATEGIES, main
from hourahead.experiment import STRATEGIES, ExperimentConfig, run_experiment


class TestCrTable:
    def test_published_rows(self, capsys):
        assert main(["cr-table"]) == 0
        out = capsys.readouterr().out
        assert "13.44,4.37" in out
        assert "5.32,3.38" in out
        assert "3.63,2.95" in out
        assert "50,5.74" in out

    def test_custom_theta_and_out(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert main(["cr-table", "--theta", "1,4", "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text().splitlines() == ["theta,cr", "1,1.00", "4,3.06"]


class TestGenTraceAndSimulate:
    def test_round_trip(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        assert main(["gen-trace", "--horizon", "24", "--seed", "5", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        code = main(
            [
                "simulate",
                "--price-csv",
                f"{prefix}-price.csv",
                "--wind-csv",
                f"{prefix}-wind.csv",
                "--strategy",
                "socs",
                "--eta",
                "0.2",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["horizon"] == 24
        assert data["profit"] > 0.0
        assert data["offline_profit"] >= data["profit"] - 1e-9

    def test_synthetic_simulate_with_slots(self, capsys):
        assert main(["simulate", "--horizon", "6", "--seed", "2", "--slots", "--eta", "0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["slots"]) == 6

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_synthetic_simulate_every_strategy(self, strategy, capsys):
        argv = ["simulate", "--horizon", "6", "--eta", "0.5", "--strategy", strategy]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == strategy
        assert data["horizon"] == 6

    def test_missing_csv_is_io_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--price-csv", str(tmp_path / "x.csv"), "--wind-csv", str(tmp_path / "y.csv")]
        )
        assert code == 2

    def test_csv_without_pair_is_validation_error(self, tmp_path):
        assert main(["simulate", "--price-csv", str(tmp_path / "x.csv")]) == 1


class TestCompare:
    def test_deterministic_report_files(self, tmp_path, capsys):
        args = [
            "compare",
            "--runs",
            "2",
            "--horizon",
            "12",
            "--seed",
            "7",
            "--eta",
            "0.25",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_csv_table(self, tmp_path, capsys):
        csv_path = tmp_path / "runs.csv"
        code = main(
            [
                "compare",
                "--runs",
                "2",
                "--horizon",
                "8",
                "--eta",
                "0.5",
                "--csv",
                str(csv_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "run,strategy,profit,empirical_cr"
        assert len(lines) == 1 + 2 * 6

    def test_sweep(self, capsys):
        code = main(
            [
                "compare",
                "--runs",
                "1",
                "--horizon",
                "8",
                "--eta",
                "0.5",
                "--sweep-offers",
                "1-3",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["offers"] for r in rows] == [1, 2, 3]

    def test_defaults_match_the_library(self, capsys):
        assert main(["compare", "--runs", "2", "--horizon", "12", "--seed", "3"]) == 0
        expected = run_experiment(ExperimentConfig(runs=2, horizon=12, seed=3)).to_json()
        assert capsys.readouterr().out == expected

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nruns = 1\nhorizon = 6\nseed = 9\neta = 0.5\n")
        out = tmp_path / "r.json"
        assert main(["compare", "--config", str(cfg), "--runs", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["config"]["runs"] == 2  # flag wins
        assert data["config"]["horizon"] == 6  # file value


class TestAdversary:
    def test_small_grid(self, capsys):
        code = main(
            [
                "adversary",
                "--strategy",
                "socs",
                "--horizon",
                "2",
                "--levels",
                "4",
                "--capacity",
                "4",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_ratio"] <= data["theoretical_bound"] * 1.05
        assert data["instances"] == 144

    @pytest.mark.parametrize("strategy", ADVERSARY_STRATEGIES)
    def test_every_strategy(self, strategy, capsys):
        argv = ["adversary", "--strategy", strategy, "--horizon", "2", "--capacity", "4"]
        assert main(argv + ["--levels", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["instances"] == 144

    def test_budget_exceeded(self, capsys):
        code = main(
            ["adversary", "--horizon", "4", "--levels", "4", "--capacity", "4", "--budget", "10"]
        )
        assert code == 3

    def test_stubborn_threshold_reports_unbounded(self, capsys):
        code = main(
            [
                "adversary",
                "--strategy",
                "const",
                "--horizon",
                "2",
                "--levels",
                "4",
                "--capacity",
                "4",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_ratio"] == "unbounded"


class TestValidationExits:
    def test_bad_bounds(self, capsys):
        assert main(["compare", "--runs", "1", "--horizon", "4", "--pmin", "50", "--pmax", "10"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["compare", "--frobnicate"]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["compare", "--config", "/nonexistent/exp.ini"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cr-table", "--theta", "abc"],
            ["compare", "--runs", "1", "--horizon", "4", "--sweep-offers", "a-b"],
            ["compare", "--runs", "1", "--horizon", "4", "--sweep-offers", "3-1", "--csv", "CSV"],
        ],
    )
    def test_malformed_list(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / "sweep.csv") if a == "CSV" else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
