import hashlib
import json
import time

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
    def test_slot_commitments_are_floats(self, strategy, capsys):
        # an empty fill is 0.0, not the integer 0
        argv = ["simulate", "--strategy", strategy, "--horizon", "40", "--seed", "3", "--slots"]
        assert main(argv) == 0
        slots = json.loads(capsys.readouterr().out)["slots"]
        values = [slot[key] for slot in slots for key in ("commitment", "over_commitment")]
        assert [v for v in values if type(v) is not float] == []

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_synthetic_simulate_every_strategy(self, strategy, capsys):
        argv = ["simulate", "--horizon", "6", "--eta", "0.5", "--strategy", strategy]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == strategy
        assert data["horizon"] == 6

    def test_config_without_bounds_keeps_derived_bounds(self, tmp_path, capsys):
        # prices in [50, 90] lie outside the default [10, 40]: a config file
        # that sets no price bound must not impose the default bounds
        prefix = str(tmp_path / "t")
        argv = ["gen-trace", "--horizon", "24", "--pmin", "50", "--pmax", "90"]
        assert main(argv + ["--out-prefix", prefix]) == 0
        cfg = tmp_path / "s.ini"
        cfg.write_text("[storage]\ncapacity = 20\n")
        capsys.readouterr()
        argv = ["simulate", "--price-csv", f"{prefix}-price.csv", "--wind-csv", f"{prefix}-wind.csv"]
        assert main(argv) == 0
        derived = capsys.readouterr().out
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == derived
        cfg.write_text("[market]\npmin = 10\npmax = 40\n")
        assert main(argv + ["--config", str(cfg)]) == 1
        assert "outside bounds" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "069b7abe7fb5a568400444e0044f24bbe7a8fe2c1171e54d9f9038018a430672"),
            (
                ["--sweep-offers", "1-15"],
                "ac9f8f0599f276abda581ec15f5e2558e941cb31162f04db2ef0d4233ef38e71",
            ),
        ],
    )
    def test_reference_digests(self, extra, digest, capsys):
        # the seed-7 `compare` and `sweep` batch reports of bench/README.md
        argv = [
            "compare", "--runs", "1", "--horizon", "360", "--seed", "7",
            "--pmin", "10.0", "--pmax", "40.0", "--capacity", "20.0",
            "--charge-rate", "10.0", "--discharge-rate", "10.0",
        ]  # fmt: skip
        assert main(argv + extra) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_unbounded_ratio_reported(self, tmp_path, capsys):
        # fonline earns nothing on some 2-slot runs with a positive optimum
        csv_path = tmp_path / "runs.csv"
        argv = ["compare", "--runs", "4", "--horizon", "2", "--seed", "1"]
        assert main(argv + ["--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        fonline = json.loads(out)["strategies"]["fonline"]
        assert fonline["empirical_cr_max"] == "unbounded"
        assert fonline["empirical_cr_mean"] == "unbounded"
        table = csv_path.read_text()
        rows = [line.split(",") for line in table.splitlines()[1:]]
        assert any(r[1] == "fonline" and r[3] == "unbounded" for r in rows)
        assert "Infinity" not in out and "inf" not in table.lower()

    def test_tiny_capacity_finishes(self, capsys):
        # rates of 1e13 quanta: the oracle's window stays within the grid
        start = time.perf_counter()
        assert main(["compare", "--runs", "1", "--horizon", "24", "--capacity", "1e-9"]) == 0
        assert time.perf_counter() - start < 10.0
        assert json.loads(capsys.readouterr().out)["config"]["capacity"] == 1e-9

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
    @pytest.mark.parametrize(
        "strategy, digest",
        [
            ("socs", "12cc694ca18ee7a099a87d4ed8137c0e080a2d1599328b70bf92381d2bde1392"),
            ("ocsmb", "7a0bb20df7ae927a16976ebd4dfea9674102a0f89ce51eb1955ab48a747f7428"),
            ("fonline", "f59407afd4f8581beabf7af1e7eb2f03a178654948bd577c7b9a30a07eca0819"),
            ("const", "f59407afd4f8581beabf7af1e7eb2f03a178654948bd577c7b9a30a07eca0819"),
            ("gmin", "62be879dff8045cc1bd82bfaa88a482af197d04ea8a9b4c4f167e4b168f7cd3f"),
        ],
    )
    def test_reference_digests(self, strategy, digest, capsys):
        # the theta=4, horizon-4 grid of criterion 5 (socs: bench/README.md)
        argv = [
            "adversary", "--strategy", strategy, "--pmin", "10", "--pmax", "40",
            "--capacity", "4", "--horizon", "4", "--levels", "4",
        ]  # fmt: skip
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

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

    def test_config_file_rates_match_flags(self, tmp_path, capsys):
        argv = ["adversary", "--capacity", "4", "--horizon", "2", "--levels", "4"]
        cfg = tmp_path / "rates.ini"
        cfg.write_text("[storage]\ncharge_rate = 1\ndischarge_rate = 1\n")
        assert main(argv + ["--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert main(argv + ["--charge-rate", "1", "--discharge-rate", "1"]) == 0
        from_flags = capsys.readouterr().out
        assert main(argv) == 0
        unconstrained = capsys.readouterr().out
        assert from_file == from_flags != unconstrained


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--runs", "1", "--horizon", "4", "--charge-rate", "nan"],
            ["compare", "--runs", "1", "--horizon", "4", "--discharge-rate", "inf"],
            ["compare", "--runs", "1", "--horizon", "4", "--capacity", "inf"],
            ["simulate", "--horizon", "4", "--pmax", "inf"],
            ["compare", "--runs", "1", "--horizon", "4", "--pmin", "1e-320"],
            ["cr-table", "--theta", "nan"],
            ["compare", "--runs", "1", "--horizon", "4", "--seed", "-1"],
            ["simulate", "--horizon", "4", "--seed", "-1"],
            ["gen-trace", "--horizon", "4", "--seed", "-1", "--out-prefix", "PREFIX"],
            ["gen-trace", "--horizon", "3", "--wind-capacity", "inf", "--out-prefix", "PREFIX"],
            # one past the offer-count guard: still quick to run without it
            ["compare", "--runs", "1", "--horizon", "4", "--offers", "10001"],
            ["compare", "--runs", "1", "--horizon", "4", "--sweep-offers", "1,10001"],
            ["compare", "--runs", "1", "--horizon", "4", "--eta", "0"],
            ["compare", "--runs", "1", "--horizon", "4", "--eta", "nan"],
            ["compare", "--runs", "1", "--horizon", "4", "--eta", "1e-320"],
            ["simulate", "--horizon", "4", "--eta", "nan"],
            ["adversary", "--horizon", "1", "--capacity", "4", "--levels", "0"],
            # refused before numpy is asked for the arrays
            ["gen-trace", "--horizon", "100000000000", "--out-prefix", "PREFIX"],
        ],
    )
    def test_bad_number(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / "trace") if a == "PREFIX" else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        ["[experiment]\nwind_capacity = inf\n", "[penalty]\nalpha1 = nan\n"],
        ids=["wind_capacity", "alpha1"],
    )
    def test_bad_config_value(self, text, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        assert main(["compare", "--runs", "1", "--horizon", "4", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-trace", "--capacity", "5"],
            ["gen-trace", "--charge-rate", "5"],
            ["gen-trace", "--discharge-rate", "5"],
            ["gen-trace", "--eta", "0.1"],
            ["adversary", "--horizon", "1", "--capacity", "4", "--eta", "0.1"],
            ["adversary", "--horizon", "1", "--capacity", "4", "--seed", "3"],
        ],
    )
    def test_ignored_flag_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())

    def test_oracle_work_guard(self, capsys):
        # 2e10 storage levels: refused before any array is allocated
        assert main(["compare", "--runs", "1", "--horizon", "24", "--eta", "1e-9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
