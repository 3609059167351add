import argparse
import csv
import hashlib
import json
import os
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hourahead import DiscretizationConfig, OfferBook, StorageSpec, offline_opt_dp, simulate_run
from hourahead import cli, experiment
from hourahead.cli import ADVERSARY_STRATEGIES, SETTINGS, build_parser, main
from hourahead.experiment import (
    STRATEGIES,
    ExperimentConfig,
    draw_instance,
    run_experiment,
)


def subcommands(parser: argparse.ArgumentParser | None = None) -> dict:
    """The subcommand parsers of ``parser``, by default the shared one."""
    parser = parser or build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def setting_flags(command: str) -> list[str]:
    """The settings a subcommand takes as flags, in the order it adds them."""
    return [a.dest for a in subcommands()[command]._actions if a.dest in SETTINGS]


def test_flag_sets():
    # the long options of each subcommand: none added or dropped by accident
    expected = {
        "simulate": "--capacity --charge-rate --clip-prices --config --discharge-rate --emax "
        "--horizon --levels --offers --out --pmax --pmin --price-csv --seed --slots --strategy "
        "--wind-csv",
        "compare": "--capacity --charge-rate --config --csv --discharge-rate --emax --horizon "
        "--levels --offers --out --parallel --pmax --pmin --runs --seed --sweep-offers",
        "adversary": "--budget --capacity --charge-rate --config --discharge-rate --horizon "
        "--levels --offers --out --pmax --pmin --price-count --strategy --supply-count "
        "--threshold",
        "cr-table": "--out --theta",
        "gen-trace": "--config --horizon --out-prefix --pmax --pmin --seed --wind-capacity",
    }
    found = {
        name: sorted(o for a in sub._actions for o in a.option_strings if o[:2] == "--")
        for name, sub in subcommands().items()
    }
    assert found == {name: sorted(["--help", *flags.split()]) for name, flags in expected.items()}


def readme_bullets() -> dict[str, list[str]]:
    """README's bullets by their first code span: the code spans that follow it."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    bullets = re.findall(r"^\* (.*(?:\n  .*)*)", text, flags=re.MULTILINE)
    spans = re.compile(r"`([^`]+)`")
    return {found[0]: found[1:] for found in map(spans.findall, bullets) if found}


def test_readme_lists_the_settings_and_flags():
    bullets = readme_bullets()
    sections = {}
    for name, setting in SETTINGS.items():
        sections.setdefault(f"[{setting.section}]", []).append(name)
    assert {section: bullets[section] for section in sections} == sections
    for command in ("simulate", "compare"):
        flags = [o for a in subcommands()[command]._actions for o in a.option_strings]
        assert bullets[command] == [o for o in flags if o[:2] == "--" and o != "--help"]


class TestSharedParser:
    """build_parser builds once per process; every call parses with that parser."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_print_what_a_fresh_parser_prints(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
        calls = [
            (["compare", "--frobnicate"], 1),
            (["--help"], 0),
            (["compare", "--runs", "1", "--horizon", "12", "--seed", "3"], 0),
            (["adversary", "--horizon", "2", "--levels", "4", "--capacity", "4"], 0),
        ]

        def play():
            printed = []
            for argv, code in calls:
                assert main(argv) == code
                printed.append(capsys.readouterr())
            return printed

        shared = play()
        assert shared[0].err and shared[1].out and shared[2].out and shared[3].out
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)  # a new one per call
        assert play() == shared

    def test_help_equals_a_fresh_parsers(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        shared, fresh = build_parser(), build_parser.__wrapped__()
        assert shared is not fresh
        assert shared.format_help() == fresh.format_help()
        shared_subs, fresh_subs = subcommands(shared), subcommands(fresh)
        assert {name: sub.format_help() for name, sub in shared_subs.items()} == {
            name: sub.format_help() for name, sub in fresh_subs.items()
        }

    def test_no_default_is_mutable(self):
        # a parse hands each default to its namespace as it is, so a mutable
        # one would carry what one call did to it into the next
        for parser in [build_parser(), *subcommands().values()]:
            defaults = [a.default for a in parser._actions] + list(parser._defaults.values())
            for default in defaults:
                assert default is None or isinstance(default, (int, float, str, tuple)), default


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
                "--levels",
                "100",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["horizon"] == 24
        assert data["profit"] > 0.0
        assert data["offline_profit"] >= data["profit"] - 1e-9

    def test_levels_set_the_oracle_grid(self, capsys):
        # --levels 3: the oracle quantizes by 0.3 / 3 as compare's does, over the trace of
        # compare's run 0
        argv = ["simulate", "--capacity", "0.3", "--levels", "3", "--horizon", "24", "--seed", "0"]
        assert main(argv) == 0
        trace, _predicted = draw_instance(ExperimentConfig(horizon=24, seed=0), 0)
        disc = DiscretizationConfig(3)
        opt = offline_opt_dp(trace, StorageSpec(0.3, 10.0, 10.0), disc).total_profit
        assert json.loads(capsys.readouterr().out)["offline_profit"] == opt == 1938.0998807801934

    def test_levels_digest(self, capsys):
        # the report that 20 MWh over 40 levels of 0.5 MWh gave when the grid was set by --eta 0.5
        argv = ["simulate", "--horizon", "24", "--seed", "3", "--levels", "40", "--strategy", "ocsmb"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "c5c317a501e53c37294359880753c40dcdaa34d7927753663b065ff5056cd25a"

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            ("socs", "dd055a66eda30f11ebb19c5c0c379099af83cc5b00a714bbe370ef7b24c375d1"),
            ("ocsmb", "11abf7cf5d374c606c3e2c6dbf330f250cf5fb79922a95e7c2ea164a7f9c6d0b"),
            ("mocsmb", "de96db2f473f535d738454ce706b56fe3aea0dcd341cb69f1146f1f35821adc0"),
            ("fonline", "0c533f0d87f428604569d26cf9031ab2e91ff96adb35148abf9aa76cc441efb3"),
        ],
    )
    def test_slot_report_digests(self, strategy, digest, capsys):
        # the six per-slot columns of a seed-7, 360-slot run, each float by its repr
        argv = ["simulate", "--strategy", strategy, "--horizon", "360", "--seed", "7", "--slots"]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_synthetic_simulate_is_compare_run_0(self, strategy, tmp_path, capsys):
        settings = ["--seed", "7", "--horizon", "48"]
        csv_path = tmp_path / "runs.csv"
        assert main(["compare", "--runs", "1", *settings, "--csv", str(csv_path)]) == 0
        with csv_path.open(newline="") as fh:
            rows = {row["strategy"]: row for row in csv.DictReader(fh)}
        capsys.readouterr()
        assert main(["simulate", "--strategy", strategy, *settings]) == 0
        data = json.loads(capsys.readouterr().out)
        # the CSV holds each float's repr, so equal text is equal bits
        assert [repr(data["profit"]), repr(data["offline_profit"]), str(data["empirical_cr"])] == [
            rows[strategy]["profit"], rows["offline"]["profit"], rows[strategy]["empirical_cr"]
        ]  # fmt: skip

    # mocsmb is left out: on a CSV trace it reads the realized outputs as its forecast
    @pytest.mark.parametrize("strategy", ["socs", "ocsmb", "fonline"])
    def test_gen_trace_replays_synthetic_simulate(self, strategy, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        settings = ["--seed", "5", "--horizon", "48", "--pmin", "10", "--pmax", "40"]
        assert main(["gen-trace", *settings, "--out-prefix", prefix]) == 0
        capsys.readouterr()
        argv = ["simulate", "--strategy", strategy, "--pmin", "10", "--pmax", "40"]
        assert main(argv + ["--seed", "5", "--horizon", "48"]) == 0
        synthetic = json.loads(capsys.readouterr().out)
        argv += ["--price-csv", f"{prefix}-price.csv", "--wind-csv", f"{prefix}-wind.csv"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == synthetic

    def test_synthetic_simulate_with_slots(self, capsys):
        assert main(["simulate", "--horizon", "6", "--seed", "2", "--slots", "--levels", "40"]) == 0
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
        argv = ["simulate", "--horizon", "6", "--levels", "40", "--strategy", strategy]
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

    def test_curve_checked_over_the_trace_bounds(self, tmp_path, capsys):
        # over a flat price (theta 1) a capacity of 1.5e-154 leaves the curve a
        # normal C * l_n; over the default [10, 40] it would not, so the config
        # of a CSV trace without --pmin/--pmax is checked over the trace's bounds
        stamps = [f"2015-01-01T0{hour}:00" for hour in range(3)]
        price, wind = tmp_path / "p.csv", tmp_path / "w.csv"
        price.write_text("timestamp,price\n" + "".join(f"{s},20\n" for s in stamps))
        wind.write_text("timestamp,wind_mw\n" + "".join(f"{s},1e-155\n" for s in stamps))
        argv = ["simulate", "--price-csv", str(price), "--wind-csv", str(wind), "--capacity",
                "1.5e-154", "--charge-rate", "1e-154", "--discharge-rate", "1e-154"]  # fmt: skip
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["horizon"] == 3
        assert main([*argv, "--pmin", "10", "--pmax", "40"]) == 1
        assert capsys.readouterr().err == (
            "error: capacity 1.5e-154 is too large or too small for the threshold curve\n"
        )

    def test_missing_csv_is_io_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--price-csv", str(tmp_path / "x.csv"), "--wind-csv", str(tmp_path / "y.csv")]
        )
        assert code == 2

    def test_csv_without_pair_is_validation_error(self, tmp_path):
        assert main(["simulate", "--price-csv", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize(
        "extra, csv",
        [
            (["--seed", "3"], True),
            (["--horizon", "24"], True),
            (["--clip-prices"], True),  # bounds from the observed range: nothing to clip
            (["--clip-prices"], False),
            (["--clip-prices", "--pmin", "10"], False),
            (["--emax", "0.3"], True),  # the CSV trace is played as it is
            (["--strategy", "ocsmb", "--emax", "0.3"], True),
            (["--offers", "2"], True),  # socs makes one offer
            (["--strategy", "fonline", "--offers", "2"], False),
        ],
        ids=["csv_seed", "csv_horizon", "csv_clip_without_bounds", "synthetic_clip",
             "synthetic_clip_with_bounds", "csv_emax_socs", "csv_emax_ocsmb", "csv_offers_socs",
             "synthetic_offers_fonline"],  # fmt: skip
    )
    def test_unread_flag_refused(self, extra, csv, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        assert main(["gen-trace", "--horizon", "24", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        argv = ["simulate", "--price-csv", f"{prefix}-price.csv", "--wind-csv", f"{prefix}-wind.csv"]
        assert main((argv if csv else ["simulate"]) + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_csv_reads_what_it_uses(self, tmp_path, capsys):
        # prices in [10, 40]: --pmin 20 clips, and a config file's seed and horizon,
        # which compare reads, are not refused
        prefix = str(tmp_path / "t")
        assert main(["gen-trace", "--horizon", "24", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        argv = ["simulate", "--price-csv", f"{prefix}-price.csv", "--wind-csv", f"{prefix}-wind.csv"]
        assert main(argv) == 0
        derived = capsys.readouterr().out
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nseed = 3\nhorizon = 6\n")
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == derived
        assert main(argv + ["--pmin", "20"]) == 1
        assert "clipping is off" in capsys.readouterr().err
        assert main(argv + ["--pmin", "20", "--clip-prices"]) == 0
        assert capsys.readouterr().out != derived

    def test_emax_and_offers_read_where_used(self, tmp_path, capsys):
        # on a CSV trace only mocsmb reads --emax, and on any trace only the
        # ladders read --offers; a config file's emax and offers, which
        # compare reads, are not refused
        prefix = str(tmp_path / "t")
        assert main(["gen-trace", "--horizon", "24", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        argv = ["simulate", "--price-csv", f"{prefix}-price.csv", "--wind-csv", f"{prefix}-wind.csv"]

        def output(extra: list[str]) -> str:
            assert main(argv + extra) == 0
            return capsys.readouterr().out

        mocsmb = ["--strategy", "mocsmb"]
        assert output(mocsmb + ["--emax", "0.3"]) != output(mocsmb)
        assert output(mocsmb + ["--offers", "2"]) != output(mocsmb)
        ocsmb = ["--strategy", "ocsmb"]
        assert output(ocsmb + ["--offers", "2"]) != output(ocsmb)
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nemax = 0.3\noffers = 2\n")
        assert output(["--config", str(cfg)]) == output([])
        synthetic = ["simulate", "--horizon", "24"]
        assert main(synthetic + ["--emax", "0.3"]) == 0  # every strategy reads it through the draw
        assert capsys.readouterr().out != output([])


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
            "--levels",
            "80",
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
                "--levels",
                "40",
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
                "--levels",
                "40",
                "--sweep-offers",
                "1-3",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["offers"] for r in rows] == [1, 2, 3]

    def test_sweep_takes_a_config_files_offers(self, tmp_path, capsys):
        # the --offers flag is refused with --sweep-offers; a config file's
        # offers, which the plain comparison reads, is not, and changes nothing
        argv = ["compare", "--runs", "1", "--horizon", "6", "--sweep-offers", "1-2"]
        assert main(argv) == 0
        swept = capsys.readouterr().out
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\noffers = 3\n")
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == swept

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
                "7ad518e314e29969537c424c771bfac978eac3e287d648737aa9f37e79b43ad0",
            ),
            (
                ["--runs", "2", "--horizon", "24", "--seed", "3", "--levels", "40"],
                "983a20ba9ca4700631be025f814b0c459e7bcb02f6788168fdaf750ac48a46db",
            ),
            (
                ["--runs", "2", "--horizon", "24", "--seed", "3", "--levels", "40",
                 "--sweep-offers", "1-3"],  # fmt: skip
                "fdade49f5ab533ae2b390d54a05e93876485f4d0f19b575d81fbdfa2ac928fb1",
            ),
        ],
    )
    def test_reference_digests(self, extra, digest, capsys):
        # the seed-7 `compare` and `sweep` batch reports of bench/README.md (its sweep row
        # predates ladders settled to the correctly rounded sum); a later flag overrides an
        # earlier one, and the --levels 40 reports are those that 20 MWh over 40 levels of
        # 0.5 MWh gave when the grid was set by --eta 0.5
        argv = [
            "compare", "--runs", "1", "--horizon", "360", "--seed", "7",
            "--pmin", "10.0", "--pmax", "40.0", "--capacity", "20.0",
            "--charge-rate", "10.0", "--discharge-rate", "10.0",
        ]  # fmt: skip
        assert main(argv + extra) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "c9c76737620b4f35aedb13939737b7aec3830a82f8096d7a4934315a93c60917"),
            (
                ["--sweep-offers", "1-15"],
                "828113db99ae55b1c7eb1d17ef12480ecd6cf0c4f5f0a8221fdb96124d7ab66c",
            ),
            (
                ["--sweep-offers", "1-15", "--parallel"],
                "828113db99ae55b1c7eb1d17ef12480ecd6cf0c4f5f0a8221fdb96124d7ab66c",
            ),
        ],
        ids=["compare", "sweep", "sweep_parallel"],
    )
    def test_full_comparison_digests(self, extra, digest, capsys):
        # the paper's comparison at full size: 100 runs of 360 slots, seed 7;
        # the sweep prints the same rows whether its runs are split or not
        argv = ["compare", "--runs", "100", "--horizon", "360", "--seed", "7"]
        assert main(argv + extra) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_nothing_printed_when_a_write_fails(self, tmp_path, capsys):
        small = ["compare", "--runs", "2", "--horizon", "6", "--levels", "20"]
        missing = str(tmp_path / "missing" / "file")
        for extra in (["--out", missing], ["--csv", missing]):
            for sweep in ([], ["--sweep-offers", "1-2"]):
                assert main(small + sweep + extra) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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
        cfg.write_text("[experiment]\nruns = 1\nhorizon = 6\nseed = 9\nlevels = 40\n")
        out = tmp_path / "r.json"
        assert main(["compare", "--config", str(cfg), "--runs", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["config"]["runs"] == 2  # flag wins
        assert data["config"]["horizon"] == 6  # file value

    def test_rate_beyond_the_grid_is_the_grid(self, capsys):
        # a charge rate of 1e308 MWh moves no further than 20 MWh over 400 levels does
        reports = []
        for rate in ("1e308", "20"):
            assert main(["compare", "--runs", "1", "--horizon", "4", "--charge-rate", rate]) == 0
            reports.append(json.loads(capsys.readouterr().out)["strategies"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_infinite_penalty_rate(self, strategy, tmp_path, capsys):
        # alpha1 * p overflows to inf, and no strategy commits more than it can
        # deliver (ocsmb once did by one rounding, here in slot 0): every run
        # earns a finite profit (inf * 0.0 was NaN)
        cfg = ExperimentConfig(horizon=5)
        trace, predicted = draw_instance(cfg, 0)
        callback = STRATEGIES[strategy](cfg.strategy, predicted)
        result = simulate_run(trace, cfg.spec, cfg.penalty, callback)
        _x, over_commitments, *_ = zip(*result.rows)
        assert over_commitments == (0.0,) * 5
        path = tmp_path / "pen.ini"
        path.write_text("[penalty]\nalpha1 = 1e308\n")
        code = main(["simulate", "--strategy", strategy, "--horizon", "5", "--config", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["profit"] == result.total_profit
        assert main(["compare", "--runs", "1", "--horizon", "5", "--config", str(path)]) == 0

    def test_infinite_penalty_on_an_over_commitment(self, tmp_path, monkeypatch, capsys):
        # a strategy that commits beyond what it can deliver loses an infinite profit
        def over_committing(bounds, spec):
            return lambda t, price, output, level: OfferBook(price, output + 2.0 * spec.capacity)

        monkeypatch.setattr(experiment, "fonline_strategy", over_committing)
        cfg = tmp_path / "pen.ini"
        cfg.write_text("[penalty]\nalpha1 = 1e308\n")
        assert main(["compare", "--runs", "1", "--horizon", "5", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a profit is not finite: prices times outputs overflow float64\n"

    def test_nostorage_overflow_is_one_line(self, tmp_path, capsys):
        # each price times output is finite, their sum is not, and fsum raises
        # OverflowError there; an empty store on one 100 MWh level leaves the
        # oracle nothing to sell, so the nostorage total is the first to overflow
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[storage]\ninitial_level = 0\n")
        argv = ["compare", "--runs", "1", "--horizon", "24", "--pmin", "4e306", "--pmax", "4e306",
                "--capacity", "100", "--levels", "1", "--config", str(cfg)]  # fmt: skip
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a profit is not finite: prices times outputs overflow float64\n"

    @pytest.mark.parametrize("pmin, pmax", [("1e-300", "1e-299"), ("1e300", "1e301")])
    def test_fonline_sells_at_extreme_bounds(self, pmin, pmax, capsys):
        # its threshold, the geometric mean of the bounds, neither underflows nor overflows
        argv = ["compare", "--runs", "1", "--horizon", "5", "--pmin", pmin, "--pmax", pmax]
        assert main(argv) == 0
        strategies = json.loads(capsys.readouterr().out)["strategies"]
        assert strategies["fonline"]["total_profit"] > 0.0


# a value other than the default for each setting that compare, simulate or
# gen-trace takes as a flag; small enough runs, horizon and level count to be quick
FLAG_VALUES = {
    "pmin": "8", "pmax": "12", "capacity": "10", "charge_rate": "0.5", "discharge_rate": "1",
    "runs": "2", "horizon": "24", "seed": "3", "offers": "2", "emax": "0.2", "levels": "40",
    "wind_capacity": "8",
}  # fmt: skip


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestWrittenFiles:
    # every file the CLI writes and every report it prints, at a small setting;
    # a name ending in .out is a --out report, which holds what was printed
    COMPARE = ["compare", "--runs", "2", "--horizon", "12", "--seed", "7", "--levels", "40"]
    SWEEP = [*COMPARE, "--sweep-offers", "1-4"]
    COMMANDS = {
        "compare": [*COMPARE, "--out", "compare.out", "--csv", "compare.csv"],
        "compare-parallel": [
            *COMPARE, "--parallel", "--out", "compare-parallel.out", "--csv", "compare-parallel.csv"
        ],
        "sweep": [*SWEEP, "--out", "sweep.out", "--csv", "sweep.csv"],
        "sweep-parallel": [
            *SWEEP, "--parallel", "--out", "sweep-parallel.out", "--csv", "sweep-parallel.csv"
        ],
        "gen-trace": ["gen-trace", "--horizon", "12", "--seed", "7", "--out-prefix", "t"],
        "simulate": ["simulate", "--price-csv", "t-price.csv", "--wind-csv", "t-wind.csv",
                     "--levels", "40", "--slots", "--out", "simulate.out"],
        "adversary": ["adversary", "--horizon", "2", "--capacity", "4", "--levels", "4",
                      "--out", "adversary.out"],
        "cr-table": ["cr-table", "--theta", "1,4,13.44", "--out", "cr-table.out"],
    }  # fmt: skip
    DIGESTS = {
        "compare.out": "b098ec835e34878a957447caf97308cd6ac08088a482cece5219a187a0be9a0c",
        "compare.csv": "1758b297240bd32cdce3ba89a46c5ddbb0a7d5e6db984b27b6415dcee551bd6d",
        "sweep.out": "2bb9f64ca471d081b14cfd5ff24fba1d9a72c633e2b1fb15f1279fedb4301dca",
        "sweep.csv": "deb8229ea529dc59e6cc226d7819591a947e09eebd4830e52a452cc4b525082e",
        "t-price.csv": "c39221b0c48f957a8a0fce96f23cc80d80043d148c9f9e03be64af47d3a397de",
        "t-wind.csv": "f239a2c14ad324f4d8c253e9559165d08332ce5ce90cc7ace228ce4c4635df57",
        "simulate.out": "ae1aff156e1e463688ae134e1ff6acca38688d47124cc69243c16ed2ff06205c",
        "adversary.out": "8745c6805781c53f55b7096cb8be02abf071a35b736c5696dca4408d991544e7",
        "cr-table.out": "c1e540b168fae82b80250a243ed7d6085aecdc189d31d2632324c4d01324e538",
        "gen-trace stdout": "9c944c78cda72645efe81589a739caee9ecf8f25befef6a05a206442eff3c77b",
    }

    def test_every_file_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # so gen-trace prints the relative paths it was given
        printed = {}
        for name, argv in self.COMMANDS.items():
            assert main(argv) == 0, name
            printed[name] = capsys.readouterr().out
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for name, out in printed.items():  # each --out report is what its command printed
            assert written.get(f"{name}.out", out.encode()) == out.encode(), name
        for name in ("compare", "sweep"):  # split runs write the same bytes
            for suffix in (".out", ".csv"):
                assert written.pop(f"{name}-parallel{suffix}") == written[name + suffix]
        digests = {name: sha256(data) for name, data in written.items()}
        assert digests | {"gen-trace stdout": sha256(printed["gen-trace"].encode())} == self.DIGESTS
        # the library writes what the CLI writes
        report = run_experiment(ExperimentConfig(runs=2, horizon=12, seed=7, disc_levels=40))
        assert written["compare.out"].decode() == report.to_json()
        experiment.emit_report(report, csv_path="runs.csv")
        assert (tmp_path / "runs.csv").read_bytes() == written["compare.csv"]


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class TestConfigFileActsLikeFlags:
    @pytest.mark.parametrize(
        "command, name",
        [(c, n) for c in ("compare", "simulate", "gen-trace") for n in setting_flags(c)],
    )
    def test_same_output(self, command, name, tmp_path, monkeypatch, capsys):
        # every other setting by flag; `name` by the config file, by its flag, or left out
        monkeypatch.chdir(tmp_path)
        argv = [command, "--out-prefix", "t"] if command == "gen-trace" else [command]
        if command == "simulate":
            # offers moves ocsmb's profit; every strategy reads emax through the draw
            argv += ["--strategy", "ocsmb"]
        for other in setting_flags(command):
            if other != name:
                argv += [flag(other), FLAG_VALUES[other]]
        Path("exp.ini").write_text(f"[{SETTINGS[name].section}]\n{name} = {FLAG_VALUES[name]}\n")

        def output(extra: list[str]) -> tuple[str, list[str]]:
            assert main(argv + extra) == 0
            paths = [Path("t-price.csv"), Path("t-wind.csv")] if command == "gen-trace" else []
            return capsys.readouterr().out, [path.read_text() for path in paths]

        from_file = output(["--config", "exp.ini"])
        assert from_file == output([flag(name), FLAG_VALUES[name]])
        assert from_file != output([])  # read, not ignored both ways

    def test_keys_without_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[storage]\ninitial_level = 5\n[penalty]\nalpha1 = 1.5\nalpha2 = 2\n"
            "[experiment]\nwind_capacity = 8\n"
        )
        argv = ["compare", "--runs", "1", "--horizon", "6", "--levels", "40", "--config", str(cfg)]
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["initial_level"], config["alpha1"], config["alpha2"]) == (5.0, 1.5, 2.0)
        assert config["wind_capacity"] == 8.0


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

    @pytest.mark.parametrize("strategy", ["socs", "fonline", "gmin", "const"])
    def test_offers_read_only_by_ocsmb(self, strategy, tmp_path, capsys):
        argv = ["adversary", "--strategy", strategy, "--horizon", "3", "--capacity", "4",
                "--levels", "4"]  # fmt: skip
        assert main(argv + ["--offers", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: --offers")
        # a config file's offers, which compare reads, is not refused
        assert main(argv) == 0
        plain = capsys.readouterr().out
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\noffers = 3\n")
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain

    def test_offers_moves_ocsmb(self, capsys):
        argv = ["adversary", "--strategy", "ocsmb", "--horizon", "3", "--capacity", "4",
                "--levels", "4"]  # fmt: skip
        digests = []
        for extra in ([], ["--offers", "3"]):
            assert main(argv + extra) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:8])
        assert digests == ["910faec6", "3b591b07"]

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

    @pytest.mark.parametrize("pmin, pmax", [("1e-300", "1e-299"), ("1e300", "1e301")])
    def test_fonline_at_extreme_bounds(self, pmin, pmax, capsys):
        argv = ["adversary", "--strategy", "fonline", "--horizon", "2", "--capacity", "4"]
        assert main(argv + ["--levels", "4", "--pmin", pmin, "--pmax", pmax]) == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 144

    def test_every_bucket_key_reads_back_as_its_level(self, tmp_path, capsys):
        # at 200000 levels the buckets 1.050006 and 1.050012 both print as
        # 1.05001 under %g, and 1.000002 as 1
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[storage]\ninitial_level = 1.1\n")
        argv = ["adversary", "--strategy", "const", "--threshold", "20", "--horizon", "2",
                "--levels", "200000", "--capacity", "1.2", "--charge-rate", "0.05",
                "--discharge-rate", "0.05", "--price-count", "3", "--supply-count", "3",
                "--config", str(cfg)]  # fmt: skip
        assert main(argv) == 0
        keys = list(json.loads(capsys.readouterr().out)["bucket_ratios"])
        assert keys == ["1.000002", "1.05", "1.050006", "1.050012", "1.099998"]

    @pytest.mark.parametrize("threshold", ["10", "41"])
    def test_const_threshold_outside_the_bounds(self, threshold, capsys):
        # the default bounds are [10, 40]: p_min itself is refused, p_max is not
        assert main(["adversary", "--strategy", "const", "--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"const threshold {float(threshold)} must lie in (p_min, p_max]"
        assert captured.err == f"error: {message}\n"

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

    def test_rates_default_to_the_capacity(self, capsys):
        # supplies of up to 40 MWh: the default 10 MWh rates would bind
        argv = ["adversary", "--capacity", "40", "--horizon", "3", "--supply-count", "5"]
        assert main(argv) == 0
        unconstrained = capsys.readouterr().out
        assert main(argv + ["--charge-rate", "40", "--discharge-rate", "40"]) == 0
        assert capsys.readouterr().out == unconstrained

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
        assert capsys.readouterr().err == "error: unrecognized arguments: --frobnicate\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--runs", "abc"],
            ["adversary", "--strategy", "nope"],
            ["simulate", "--levels", "1.5"],
            [],
        ],
        ids=["bad_int", "bad_choice", "float_levels", "no_command"],
    )
    def test_parse_error_is_one_line(self, argv, capsys):
        # no usage block: one line, as every other error prints
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--horizon", "4", "--out", ""],
            ["compare", "--runs", "1", "--horizon", "4", "--out", ""],
            ["compare", "--runs", "1", "--horizon", "4", "--sweep-offers", "1-2", "--out", ""],
            ["adversary", "--horizon", "2", "--out", ""],
            ["cr-table", "--out", ""],
            ["compare", "--runs", "1", "--horizon", "4", "--csv", ""],
            ["compare", "--runs", "1", "--horizon", "4", "--sweep-offers", "1-2", "--csv", ""],
            ["gen-trace", "--horizon", "4", "--out-prefix", ""],
        ],
        ids=["simulate", "compare", "sweep", "adversary", "cr-table", "csv", "sweep_csv",
             "out_prefix"],
    )  # fmt: skip
    def test_empty_output_path_refused(self, argv, tmp_path, monkeypatch, capsys):
        # the parser refuses it: no command runs, nothing is printed or written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "COMMANDS", {})
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err == f"error: argument {argv[-2]}: an empty path names no file\n"

    def test_help_still_exits_0(self, capsys):
        assert main(["compare", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: hourahead compare") and "--levels" in captured.out
        assert captured.err == ""

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
            ["compare", "--runs", "1", "--horizon", "4", "--levels", "0"],
            ["compare", "--runs", "1", "--horizon", "4", "--levels", "-1"],
            ["compare", "--runs", "1", "--horizon", "4", "--levels", "abc"],
            ["simulate", "--horizon", "4", "--levels", "0"],
            ["simulate", "--horizon", "4", "--levels", "-1"],
            ["simulate", "--horizon", "4", "--levels", "abc"],
            ["simulate", "--horizon", "4", "--levels", "2" + "0" * 10],
            ["adversary", "--horizon", "1", "--capacity", "4", "--levels", "0"],
            # refused before numpy is asked for the arrays
            ["gen-trace", "--horizon", "100000000000", "--out-prefix", "PREFIX"],
            # the horizon is checked before the instance count is
            ["adversary", "--horizon", "7", "--price-count", "1000000"],
            # 1728 instances x 3 slots x 10^6 levels: the whole grid's oracle work
            ["adversary", "--horizon", "3", "--capacity", "4", "--levels", "1000000"],
            # profits beyond float64: no Infinity or NaN in a report, and no numpy warning
            ["compare", "--runs", "1", "--horizon", "4", "--pmin", "1e307", "--pmax", "1e308"],
            ["compare", "--runs", "1", "--horizon", "4", "--pmin", "1e307", "--pmax", "1e308",
             "--sweep-offers", "1-2"],  # fmt: skip
            ["simulate", "--horizon", "4", "--pmin", "1e307", "--pmax", "1e308"],
            ["adversary", "--horizon", "2", "--pmin", "1e307", "--pmax", "1e308",
             "--capacity", "100"],  # fmt: skip
            # capacities whose C * C overflows or whose C * l_n underflows: the
            # threshold curve would price at NaN, or divide by zero
            ["compare", "--runs", "1", "--horizon", "24", "--capacity", "1e200",
             "--charge-rate", "10", "--discharge-rate", "10"],  # fmt: skip
            ["compare", "--runs", "1", "--horizon", "24", "--capacity", "1e-160"],
            ["adversary", "--strategy", "socs", "--horizon", "2", "--capacity", "1e-300"],
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
        [
            "[experiment]\nwind_capacity = inf\n",
            # outputs near 1e308 MWh: no finite count of 0.05 MWh quanta
            "[experiment]\nwind_capacity = 1e308\n",
            "[penalty]\nalpha1 = nan\n",
            "[storage]\ncapcity = 30\n",
            "runs = 5\n",
            "[experiment]\nruns = 5\nruns = 6\n",
            "[experiment]\nruns = 5\nnot a setting\n",
            "[experiment]\nhorizon = 5%\n",
        ],
        ids=["wind_capacity", "wind_capacity_overflow", "alpha1", "unknown_key", "no_section",
             "repeated_key", "malformed_line", "interpolation"],  # fmt: skip
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
            ["gen-trace", "--levels", "4"],
            ["adversary", "--horizon", "1", "--capacity", "4", "--emax", "0.1"],
            ["adversary", "--horizon", "1", "--capacity", "4", "--seed", "3"],
            # --threshold is read by --strategy const only
            ["adversary", "--strategy", "gmin", "--threshold", "999", "--horizon", "2",
             "--capacity", "4", "--levels", "4"],  # fmt: skip
        ],
    )
    def test_ignored_flag_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "sweep",
        [["1,20000"], ["1-20000"], ["1-2", "--offers", "3"]],
        ids=["list", "range", "offers"],
    )
    def test_sweep_refused_before_any_run(self, sweep, monkeypatch, capsys):
        calls = []
        simulate_run = experiment.simulate_run
        monkeypatch.setattr(
            experiment, "simulate_run", lambda *args: calls.append(1) or simulate_run(*args)
        )
        assert main(["compare", "--runs", "2", "--horizon", "4", "--sweep-offers", *sweep]) == 1
        captured = capsys.readouterr()
        assert (captured.out, calls) == ("", [])
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("offers", "0", "offer count must be in [1, 10000], got 0"),
            ("offers", "10001", "offer count must be in [1, 10000], got 10001"),
            ("emax", "0.5", "e_max must be in [0, 0.5), got 0.5"),
            ("levels", "0", "level count must be >= 1, got 0"),
            ("capacity", "1e200",
             "capacity 1e+200 is too large or too small for the threshold curve"),
            ("capacity", "1e-160",
             "capacity 1e-160 is too large or too small for the threshold curve"),
        ],
        ids=["offers_0", "offers_10001", "emax", "levels", "capacity_large", "capacity_small"],
    )  # fmt: skip
    @pytest.mark.parametrize(
        "command",
        [["compare", "--runs", "2"], ["compare", "--runs", "2", "--parallel"],
         ["compare", "--runs", "2", "--sweep-offers", "1-2"],
         ["compare", "--runs", "2", "--sweep-offers", "1-2", "--parallel"],
         ["simulate", "--strategy", "mocsmb"], ["gen-trace"]],
        ids=["compare", "parallel", "sweep", "sweep_parallel", "simulate", "gen_trace"],
    )  # fmt: skip
    def test_bad_setting_refused_before_any_draw(
        self, command, setting, value, message, tmp_path, monkeypatch, capsys
    ):
        # the strategies' settings and the oracle's grid are checked when the
        # experiment's config is built, so nothing is drawn and no pool is built
        # (two usable CPUs, so that --parallel would build one); gen-trace has
        # no flag for these, so its config file sets them
        calls = []
        draw, pool = experiment.draw_instance, experiment.ProcessPoolExecutor

        def spy(*args):
            calls.append("draw")
            return draw(*args)

        def spy_pool(*args, **kwargs):
            calls.append("pool")
            return pool(*args, **kwargs)

        for module in (experiment, cli):
            monkeypatch.setattr(module, "draw_instance", spy)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", spy_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if command == ["gen-trace"]:
            cfg = tmp_path / "exp.ini"
            cfg.write_text(f"[{SETTINGS[setting].section}]\n{setting} = {value}\n")
            argv = ["gen-trace", "--config", str(cfg), "--out-prefix", str(tmp_path / "t")]
        else:
            argv = [*command, "--horizon", "24", flag(setting), value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err, calls) == ("", f"error: {message}\n", [])
        assert list(tmp_path.glob("t-*")) == []

    def test_adversary_oracle_guard_names_levels(self, capsys):
        # the remedy names the level count, which each subcommand with an oracle takes
        argv = ["adversary", "--horizon", "2", "--capacity", "4", "--levels", "1000000000"]
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith("; use fewer storage levels\n")

    def test_oracle_work_guard(self, capsys):
        # 2e10 storage levels: refused before any array is allocated
        assert main(["compare", "--runs", "1", "--horizon", "24", "--levels", "2" + "0" * 10]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--runs", "1", "--horizon", "1000000"],
            ["compare", "--runs", "1", "--horizon", "1000000", "--sweep-offers", "1-2"],
            ["compare", "--runs", "2", "--horizon", "1000000", "--parallel"],
            ["compare", "--runs", "2", "--horizon", "1000000", "--sweep-offers", "1-2",
             "--parallel"],  # fmt: skip
            ["simulate", "--horizon", "1000000"],
            # 1e300 storage levels: the counts print as powers of ten
            ["compare", "--runs", "1", "--horizon", "4", "--levels", "1" + "0" * 300],
            ["simulate", "--horizon", "4", "--levels", "1" + "0" * 300],
            ["adversary", "--horizon", "2", "--levels", "1" + "0" * 1000],
        ],
    )
    def test_oracle_guard_before_any_draw(self, argv, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("drew or simulated before the oracle guard")

        for module in (experiment, cli):
            monkeypatch.setattr(module, "draw_instance", never)
            monkeypatch.setattr(module, "simulate_run", never)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith("; use fewer storage levels\n")
        assert len(captured.err) < 200

    @pytest.mark.parametrize(
        "argv, code",
        [
            # 10^4800 instances: more digits than str() of an int may print
            (["adversary", "--horizon", "6", "--price-count", str(10**800)], 3),
            (["adversary", "--horizon", "6", "--price-count", str(10**716), "--supply-count", "1",
              "--budget", "9" * 4300], 1),  # fmt: skip
        ],
        ids=["budget", "grid_guard"],
    )
    def test_huge_grid_counts_print_short(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err) < 200

    @pytest.mark.parametrize("command", [["compare", "--runs", "1"], ["simulate"]])
    def test_horizon_bound_named_before_the_oracle_guard(self, command, capsys):
        assert main([*command, "--horizon", "100000000000"]) == 1
        assert capsys.readouterr().err == "error: horizon must be in [1, 1000000], got 100000000000\n"

    def test_wind_row_beyond_the_grid(self, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        assert main(["gen-trace", "--horizon", "3", "--out-prefix", prefix]) == 0
        wind = Path(f"{prefix}-wind.csv")
        lines = wind.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",1e308"
        wind.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["simulate", "--price-csv", f"{prefix}-price.csv", "--wind-csv", str(wind)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: an output of 1e+308 MWh is no finite count of 0.05 MWh quanta\n"
        )



def one_error_line(captured) -> None:
    """stderr holds one ``error:`` line and no traceback"""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


class TestMalformedFiles:
    @pytest.fixture
    def trace_files(self, tmp_path, capsys):
        prefix = tmp_path / "t"
        assert main(["gen-trace", "--horizon", "3", "--out-prefix", str(prefix)]) == 0
        capsys.readouterr()
        return Path(f"{prefix}-price.csv"), Path(f"{prefix}-wind.csv")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(b"[experiment]\n# caf\xe9\nruns = 1\n")
        assert main(["compare", "--horizon", "4", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {cfg}: not UTF-8 text\n"

    def test_rows_out_of_time_order(self, trace_files, capsys):
        # both files read 02:00, 00:00, 00:00: not three consecutive hours
        for path in trace_files:
            lines = path.read_bytes().splitlines()
            stamps = [b"2015-01-01T02:00", b"2015-01-01T00:00", b"2015-01-01T00:00"]
            lines[1:] = [stamp + line[line.index(b","):] for stamp, line in zip(stamps, lines[1:])]
            path.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["simulate", "--price-csv", str(trace_files[0]), "--wind-csv", str(trace_files[1])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {trace_files[0]}:3: '2015-01-01T00:00' is not one hour after the row before\n"
        )

    def test_byte_order_marks_give_the_same_report(self, trace_files, tmp_path, capsys):
        # a UTF-8 byte-order mark on the CSVs and on the config file, as
        # spreadsheet exports write it, changes nothing
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nlevels = 40\noffers = 4\n[storage]\ncapacity = 16\n")
        argv = ["simulate", "--price-csv", str(trace_files[0]), "--wind-csv", str(trace_files[1]),
                "--strategy", "ocsmb", "--config", str(cfg)]  # fmt: skip
        assert main(argv) == 0
        plain = capsys.readouterr()
        for path in (*trace_files, cfg):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv) == 0
        assert capsys.readouterr() == plain and plain.err == ""

    @pytest.mark.parametrize("series", [0, 1], ids=["price", "wind"])
    @pytest.mark.parametrize(
        "field, message",
        [(b"\xff", "not UTF-8 text"), (b"1" * 200_000, "field larger than field limit")],
        ids=["not_utf8", "long_field"],
    )
    def test_csv_row_names_file_and_line(self, series, field, message, trace_files, capsys):
        path = trace_files[series]
        lines = path.read_bytes().splitlines()
        lines[2] = lines[2].split(b",")[0] + b"," + field
        path.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["simulate", "--price-csv", str(trace_files[0]), "--wind-csv", str(trace_files[1])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:3: {message}")
        one_error_line(captured)

    # arbitrary bytes, or bytes after the opening of a well-formed file, so that
    # the parse gets past the first line
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # fmt: skip
    @given(
        opening=st.sampled_from([b"", b"[experiment]\n", b"[storage]\ncapacity = "]),
        data=st.binary(max_size=64),
    )
    def test_any_config_bytes(self, opening, data, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(opening + data)
        argv = ["adversary", "--horizon", "2", "--capacity", "4", "--levels", "4"]
        code = main(argv + ["--config", str(cfg)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if code:
            one_error_line(captured)
        else:
            assert captured.err == ""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # fmt: skip
    @given(
        opening=st.sampled_from([b"", b"timestamp,price\n", b"timestamp,price\n2015-01-01T00:00,"]),
        data=st.binary(max_size=64),
    )
    def test_any_price_csv_bytes(self, opening, data, trace_files, capsys):
        price, wind = trace_files
        price.write_bytes(opening + data)
        argv = ["simulate", "--price-csv", str(price), "--wind-csv", str(wind), "--levels", "8"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if code:
            one_error_line(captured)
        else:
            assert captured.err == ""
