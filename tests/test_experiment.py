import json
from dataclasses import replace

import pytest

from hourahead import ValidationError, theoretical_cr
from hourahead.cli import load_config_file
from hourahead.market import PriceBounds
from hourahead.experiment import (
    STRATEGIES,
    ExperimentConfig,
    emit_report,
    run_experiment,
    run_offer_sweep,
)


def small_config(**overrides):
    defaults = dict(runs=3, horizon=24, seed=11, disc_levels=80)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_report_structure(self):
        report = run_experiment(small_config())
        data = report.to_json_dict()
        assert set(data) == {"meta", "config", "strategies"}
        for name in ("offline", "nostorage", "socs", "ocsmb", "mocsmb", "fonline"):
            entry = data["strategies"][name]
            assert set(entry) == {
                "total_profit",
                "mean_profit",
                "empirical_cr_max",
                "empirical_cr_mean",
            }

    def test_deterministic(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.to_json() == b.to_json()

    def test_parallel_matches_serial(self):
        cfg = small_config(runs=4)
        serial = run_experiment(cfg, parallel=False)
        parallel = run_experiment(cfg, parallel=True, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_single_slot_profits_match_hand_computation(self):
        cfg = small_config(runs=1, horizon=1, e_max=0.0, disc_levels=400)
        report = run_experiment(cfg)
        records = {r.strategy: r for r in report.records}
        # one slot, full storage: every profit is bounded by the clairvoyant
        # plan up to the one-quantum-per-slot discretization slack
        slack = cfg.bounds.p_max * (cfg.spec.capacity / cfg.disc_levels)
        opt = records["offline"].profit
        assert opt + slack >= records["socs"].profit
        assert opt + slack >= records["nostorage"].profit
        assert records["socs"].empirical_cr == pytest.approx(opt / records["socs"].profit)

    def test_empirical_cr_within_guarantee(self):
        cfg = small_config(runs=6, horizon=48, disc_levels=100)
        report = run_experiment(cfg)
        bound = theoretical_cr(cfg.bounds.theta) * 1.05
        assert report.strategies["socs"]["empirical_cr_max"] <= bound

    def test_offline_dominates_every_run(self):
        report = run_experiment(small_config(runs=4, horizon=36))
        by_run = {}
        for rec in report.records:
            by_run.setdefault(rec.run, {})[rec.strategy] = rec.profit
        cfg = small_config()
        slack = cfg.bounds.p_max * (cfg.spec.capacity / cfg.disc_levels) * 36
        for run_profits in by_run.values():
            for name, profit in run_profits.items():
                assert run_profits["offline"] + slack >= profit

    def test_validation(self):
        with pytest.raises(ValidationError):
            small_config(runs=0)


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.json"
        emit_report(report, json_path=path)
        assert json.loads(path.read_text()) == report.to_json_dict()

    def test_csv_row_count(self, tmp_path):
        cfg = small_config()
        report = run_experiment(cfg)
        path = tmp_path / "runs.csv"
        emit_report(report, csv_path=path)
        lines = path.read_text().strip().splitlines()
        strategies_per_run = len(STRATEGIES) + 2  # plus offline & nostorage
        assert len(lines) == 1 + cfg.runs * strategies_per_run


class TestOfferSweep:
    def test_one_row_per_count(self):
        rows = run_offer_sweep(small_config(runs=2, horizon=12, disc_levels=40), [1, 2, 3, 5])
        assert [r["offers"] for r in rows] == [1, 2, 3, 5]
        for row in rows:
            assert row["ocsmb_mean_profit"] <= row["offline_mean_profit"] + 1e-9

    def test_repeated_count_one_row(self):
        cfg = small_config(runs=2, horizon=12, disc_levels=40)
        assert run_offer_sweep(cfg, [2, 2]) == run_offer_sweep(cfg, [2])

    def test_more_offers_track_known_price(self):
        rows = run_offer_sweep(small_config(runs=3, horizon=36), [2, 10])
        gap = {
            r["offers"]: abs(r["socs_mean_profit"] - r["ocsmb_mean_profit"]) for r in rows
        }
        assert gap[10] <= gap[2]


class TestOverflowingTotals:
    # one slot at a flat 4e306: every run's profits are finite, five runs' totals are not
    CFG = ExperimentConfig(runs=5, horizon=1, bounds=PriceBounds(4e306, 4e306))

    def test_two_runs_still_add_up(self):
        report = run_experiment(replace(self.CFG, runs=2))
        assert report.strategies["offline"]["total_profit"] > 1e308

    def test_report_totals(self):
        with pytest.raises(ValidationError, match="not finite"):
            run_experiment(self.CFG)

    def test_sweep_totals(self):
        with pytest.raises(ValidationError, match="not finite"):
            run_offer_sweep(self.CFG, [1, 2])


class TestConfigFile:
    def test_load_and_types(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[market]\npmin = 5\npmax = 50\n\n"
            "[storage]\ncapacity = 10\ncharge_rate = 5\ndischarge_rate = 5\n\n"
            "[experiment]\nruns = 7\nhorizon = 12\nseed = 3\nofferS = 4\n"
        )
        values = load_config_file(path)
        assert values["pmin"] == 5.0
        assert values["runs"] == 7
        assert values["offers"] == 4  # configparser keys are case-insensitive

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ValidationError, match="unknown section"):
            load_config_file(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[storage]\ncapcity = 30\n", r"\[storage\] capcity"),
            ("[market]\ncapacity = 30\n", r"\[market\] capacity"),  # a key of [storage]
        ],
        ids=["misspelt", "wrong_section"],
    )
    def test_unknown_key(self, text, where, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        with pytest.raises(ValidationError, match="unknown key " + where):
            load_config_file(path)

    def test_default_section_is_unknown(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[DEFAULT]\nruns = 2\n\n[experiment]\nhorizon = 4\n")
        with pytest.raises(ValidationError, match=r"unknown section \[DEFAULT\]"):
            load_config_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nruns = soon\n")
        with pytest.raises(ValidationError, match="runs"):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config_file(tmp_path / "nope.ini")
