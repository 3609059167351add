import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hourahead import ValidationError, offline_opt_dp, simulate_run, theoretical_cr
from hourahead import experiment
from hourahead.cli import load_config_file
from hourahead.market import PriceBounds
from hourahead.experiment import (
    STRATEGIES,
    ExperimentConfig,
    draw_instance,
    emit_report,
    run_experiment,
    run_offer_sweep,
    strategy_config,
)
from hourahead.strategies import ocsmb_strategy, socs_strategy

from market_reference import rounded
from oracle_reference import profit_ratio


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

    def test_totals_are_rounded_exact_sums(self):
        # every total and mean is the exact sum of its runs' numbers rounded
        # once, as math.fsum gives it on any Python version
        cfg = small_config(runs=12)
        report = run_experiment(cfg)
        for name, entry in report.strategies.items():
            rows = [r for r in report.records if r.strategy == name]
            total = rounded(sum(Fraction(r.profit) for r in rows))
            assert (entry["total_profit"], entry["mean_profit"]) == (total, total / cfg.runs)
            ratios = [r.empirical_cr for r in rows]
            if math.inf in ratios:  # one unbounded run makes the mean unbounded
                assert entry["empirical_cr_mean"] == "unbounded"
            else:
                assert entry["empirical_cr_mean"] == rounded(sum(map(Fraction, ratios))) / cfg.runs

    def test_deterministic(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.to_json() == b.to_json()

    def test_parallel_matches_serial(self):
        cfg = small_config(runs=4)
        serial = run_experiment(cfg, parallel=False)
        parallel = run_experiment(cfg, parallel=True, workers=2)
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize("workers", [None, 6])
    def test_pool_never_outnumbers_the_runs(self, workers, monkeypatch):
        # the pool forks its workers at the first submit, wanted or not
        started = []

        class CountingPool(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                started.append((self._max_workers, len(self._processes or ())))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
        cfg = small_config(runs=2)
        parallel = run_experiment(cfg, parallel=True, workers=workers)
        [(max_workers, processes)] = started
        assert max_workers <= 2 and processes <= 2
        assert parallel.to_json() == run_experiment(cfg).to_json()

    @pytest.mark.parametrize(
        "affinity, runs, size",
        [({0}, 4, 1), ({0, 1, 2}, 4, 3), ({0, 1, 2}, 2, 2), (None, 4, 4)],
        ids=["one_cpu", "three_cpus", "capped_at_runs", "no_affinity_call"],
    )
    def test_default_pool_size_is_the_usable_cpus(self, affinity, runs, size, monkeypatch):
        # the CPUs this process may run on, which taskset can make fewer than
        # the host's; os.cpu_count() where the platform has no affinity call
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        cfg = small_config(runs=runs, horizon=6, disc_levels=20)
        report = run_experiment(cfg, parallel=True)
        assert sizes == [size]
        assert report.to_json() == run_experiment(cfg).to_json()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the pool does not fork its workers"
    )
    def test_forked_workers_import_nothing(self, tmp_path):
        # a fresh interpreter: the package import leaves numpy.random unloaded,
        # and the pool's workers, forked after the parent loads it, import no
        # module while they run
        script = textwrap.dedent(
            """
            import json, os, sys
            from pathlib import Path
            from hourahead import experiment
            from hourahead.experiment import ExperimentConfig, run_experiment

            out, parent = Path(sys.argv[1]), os.getpid()
            print(json.dumps("numpy.random" in sys.modules))
            single_run = experiment._single_run

            def recording_run(cfg, run):
                before = set(sys.modules)
                records = single_run(cfg, run)
                new = sorted(set(sys.modules) - before)
                (out / f"run{run}.json").write_text(json.dumps([os.getpid() != parent, new]))
                return records

            experiment._single_run = recording_run
            cfg = ExperimentConfig(runs=2, horizon=24)
            report = run_experiment(cfg, parallel=True, workers=2)
            experiment._single_run = single_run
            print(json.dumps(report.to_json() == run_experiment(cfg).to_json()))
            """
        )
        src = str(Path(experiment.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded_at_import, same_report = map(json.loads, done.stdout.split())
        assert (loaded_at_import, same_report) == (False, True)
        runs = [json.loads((tmp_path / f"run{run}.json").read_text()) for run in range(2)]
        assert runs == [[True, []], [True, []]]

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_worker_count_checked(self, workers, parallel):
        with pytest.raises(ValidationError, match="workers must be >= 1"):
            run_experiment(small_config(), parallel=parallel, workers=workers)

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


class TestSingleRun:
    @pytest.mark.parametrize("run", [0, 1, 2])
    def test_ratios_are_profit_ratio_of_each_record(self, run):
        # the five ratios of a run come from one profit_ratios call
        records = experiment._single_run(small_config(), run)
        assert [r.strategy for r in records] == ["offline", "nostorage", *STRATEGIES]
        opt = records[0].profit
        assert records[0].empirical_cr == 1.0
        for rec in records[1:]:
            assert type(rec.empirical_cr) is float
            assert rec.empirical_cr.hex() == profit_ratio(opt, rec.profit).hex()


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

    def test_means_are_rounded_exact_sums(self):
        cfg = small_config(runs=12)  # where adding in run order rounds three totals otherwise
        counts = [1, 4]
        strat_cfg = strategy_config(cfg)
        exact = dict.fromkeys(["offline", "socs", *counts], Fraction())
        for run in range(cfg.runs):
            trace, _predicted = draw_instance(cfg, run)
            exact["offline"] += Fraction(offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit)
            strategies = {"socs": socs_strategy(strat_cfg)}
            strategies.update((m, ocsmb_strategy(replace(strat_cfg, offers=m))) for m in counts)
            for key, strategy in strategies.items():
                result = simulate_run(trace, cfg.spec, cfg.penalty, strategy)
                exact[key] += Fraction(result.total_profit)
        for row in run_offer_sweep(cfg, counts):
            means = (row["offline_mean_profit"], row["socs_mean_profit"], row["ocsmb_mean_profit"])
            keys = ("offline", "socs", row["offers"])
            assert means == tuple(rounded(exact[key]) / cfg.runs for key in keys)

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
