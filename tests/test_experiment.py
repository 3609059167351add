import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import textwrap
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hourahead import ValidationError, offline_opt_dp, simulate_run, theoretical_cr
from hourahead import experiment
from hourahead.cli import load_config_file, main
from hourahead.market import PriceBounds, StorageSpec
from hourahead.oracle import DiscretizationConfig
from hourahead.policy import ThresholdPolicy
from hourahead.experiment import (
    STRATEGIES,
    ExperimentConfig,
    draw_instance,
    emit_report,
    run_experiment,
    run_offer_sweep,
)
from hourahead.strategies import StrategyConfig, ocsmb_strategy, socs_strategy

from market_reference import rounded
from oracle_reference import profit_ratio


def small_config(**overrides):
    defaults = dict(runs=3, horizon=24, seed=11, disc_levels=80)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_script(script, *args):
    """Run a Python script in a fresh interpreter that imports this package."""
    src = str(Path(experiment.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestRunExperiment:
    def test_report_structure(self):
        report = run_experiment(small_config())
        data = json.loads(report.to_json())
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
        # the pool forks its workers at the first submit, wanted or not; the
        # parent computes a share too, so parent + workers <= runs
        started = []

        class CountingPool(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                started.append((self._max_workers, len(self._processes or ())))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        cfg = small_config(runs=2)
        parallel = run_experiment(cfg, parallel=True, workers=workers)
        [(max_workers, processes)] = started
        assert 1 + max_workers == 1 + processes == cfg.runs
        assert parallel.to_json() == run_experiment(cfg).to_json()

    @pytest.mark.parametrize(
        "affinity, runs, size",
        [({0}, 4, None), ({0, 1, 2}, 4, 2), ({0, 1, 2}, 2, 1), (None, 4, 3)],
        ids=["one_cpu", "three_cpus", "capped_at_runs", "no_affinity_call"],
    )
    def test_default_pool_size_is_the_usable_cpus(self, affinity, runs, size, monkeypatch):
        # the CPUs this process may run on, which taskset can make fewer than
        # the host's; os.cpu_count() where the platform has no affinity call.
        # The parent is one of them, so the pool holds the others, at most
        # runs - 1; with one CPU (size None) no pool is built
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                if size is None:
                    pytest.fail(f"a pool of {max_workers} was built for one process")
                sizes.append(max_workers)
                initializer(*initargs)  # submit runs the worker's task here, in the parent

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        cfg = small_config(runs=runs, horizon=6, disc_levels=20)
        report = run_experiment(cfg, parallel=True)
        assert sizes == ([] if size is None else [size])
        serial = run_experiment(cfg)
        assert (report.to_json(), report.records) == (serial.to_json(), serial.records)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the pool does not fork its workers"
    )
    def test_forked_workers_import_nothing(self, tmp_path):
        # a fresh interpreter: the package import leaves numpy.random unloaded;
        # the parent loads it before the pool forks, then computes run 0 while
        # the pool's one worker computes run 1, and neither imports a module
        script = textwrap.dedent(
            """
            import json, os, sys
            from pathlib import Path
            from hourahead import experiment
            from hourahead.experiment import ExperimentConfig, run_experiment

            out, parent = Path(sys.argv[1]), os.getpid()
            print(json.dumps("numpy.random" in sys.modules))
            single_run = experiment._single_run

            def recording_run(cfg, players, run):
                before = set(sys.modules)
                records = single_run(cfg, players, run)
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
        assert runs == [[False, []], [True, []]]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the pool does not fork its workers"
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("runs", range(1, 8))
    def test_one_share_per_process(self, runs, workers, monkeypatch):
        # min(workers, runs) contiguous shares: the parent computes the first
        # and the pool gets one task per other share, never one per run
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, initializer, initargs):
                super().__init__(max_workers, initializer=initializer, initargs=initargs)
                self.submits = 0
                pools.append(self)

            def submit(self, fn, /, *args, **kwargs):
                self.submits += 1
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
        cfg = small_config(runs=runs, horizon=6, disc_levels=20)
        parallel = run_experiment(cfg, parallel=True, workers=workers)
        assert multiprocessing.active_children() == []
        serial = run_experiment(cfg)
        assert (parallel.to_json(), parallel.records) == (serial.to_json(), serial.records)
        shares = min(workers, runs)
        assert [(pool._max_workers, pool.submits) for pool in pools] == (
            [(shares - 1, shares - 1)] if shares > 1 else []
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the pool does not fork its workers"
    )
    @pytest.mark.parametrize("failing", [0, 3], ids=["parent_share", "worker_share"])
    def test_a_failed_share_reaches_the_caller(self, failing, monkeypatch, capsys):
        # run 0 is in the parent's share and run 3, the last, in the worker's;
        # either error reaches the caller as itself, and no child outlives it,
        # in a comparison and in an offer sweep alike
        single_run = experiment._single_run

        def failing_run(cfg, players, run):
            if run == failing:
                raise ValidationError(f"run {run} cannot be drawn")
            return single_run(cfg, players, run)

        monkeypatch.setattr(experiment, "_single_run", failing_run)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_config(runs=4, horizon=6, disc_levels=20)
        argv = ["compare", "--runs", "4", "--horizon", "6", "--levels", "20", "--parallel"]
        sweep = ["--sweep-offers", "1-2"]
        for run_all, extra in (
            (lambda: run_experiment(cfg, parallel=True, workers=2), []),
            (lambda: run_offer_sweep(cfg, [1, 2], parallel=True, workers=2), sweep),
        ):
            with pytest.raises(ValidationError, match=f"^run {failing} cannot be drawn$"):
                run_all()
            assert multiprocessing.active_children() == []
            assert main(argv + extra) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: run {failing} cannot be drawn\n")
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the pool does not fork its workers"
    )
    def test_worker_holds_its_task_before_the_parent_computes(self, tmp_path):
        # a test of order: the worker's release leaves a marker, and the
        # parent's first run finds it there; the worker's run follows its
        # release too. Without the handoff the parent computes its share
        # before the pool's threads get the lock to pass the task on
        done = run_script(
            """
            import json, os, sys
            from pathlib import Path
            from hourahead import experiment
            from hourahead.experiment import ExperimentConfig, run_experiment

            out, parent = Path(sys.argv[1]), os.getpid()
            marker = out / "released"
            single_run, init_worker = experiment._single_run, experiment._init_worker

            class MarkingSemaphore:
                def __init__(self, started):
                    self.started = started

                def release(self):
                    marker.touch()
                    self.started.release()

            def ordered_run(cfg, players, run):
                record = [os.getpid() != parent, marker.exists()]
                (out / f"run{run}.json").write_text(json.dumps(record))
                return single_run(cfg, players, run)

            experiment._single_run = ordered_run
            experiment._init_worker = lambda started: init_worker(MarkingSemaphore(started))
            cfg = ExperimentConfig(runs=2, horizon=24)
            report = run_experiment(cfg, parallel=True, workers=2)
            experiment._single_run = single_run
            print(json.dumps(report.to_json() == run_experiment(cfg).to_json()))
            """,
            tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) is True
        runs = [json.loads((tmp_path / f"run{run}.json").read_text()) for run in range(2)]
        assert runs == [[False, True], [True, True]]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the pool does not fork its workers"
    )
    @pytest.mark.parametrize("sweep", [False, True], ids=["compare", "sweep"])
    @pytest.mark.parametrize("dies", ["before_release", "after_release"])
    def test_a_dead_worker_is_one_error_line(self, dies, sweep):
        # a worker that exits abruptly with its task, before or after it tells
        # the parent it holds it, ends the command in seconds with the pool's
        # error as one line, exit 2, and no child left behind
        done = run_script(
            """
            import json, multiprocessing, os, sys
            from hourahead import experiment
            from hourahead.cli import main

            dies, extra, parent = sys.argv[1], sys.argv[2:], os.getpid()
            os.sched_getaffinity = lambda pid: {0, 1}

            class Dying:
                def release(self):
                    os._exit(9)

            run_share = experiment._run_share

            def dying_share(cfg, players, runs):
                if os.getpid() != parent:
                    os._exit(9)
                return run_share(cfg, players, runs)

            if dies == "before_release":
                experiment._init_worker = lambda started: setattr(experiment, "_started", Dying())
            else:
                experiment._run_share = dying_share
            argv = ["compare", "--runs", "2", "--horizon", "6", "--levels", "20", "--parallel"]
            code = main(argv + extra)
            print(json.dumps([code, multiprocessing.active_children() == []]))
            """,
            dies,
            *(["--sweep-offers", "1-2"] if sweep else []),
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [2, True]
        assert re.fullmatch(r"error: [^\n]*terminated abruptly[^\n]*\n", done.stderr), done.stderr

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


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(offers=0), "offer count must be in [1, 10000], got 0"),
            (dict(offers=10001), "offer count must be in [1, 10000], got 10001"),
            (dict(e_max=0.5), "e_max must be in [0, 0.5), got 0.5"),
            (dict(disc_levels=0), "level count must be >= 1, got 0"),
            (dict(spec=StorageSpec(1e200, 10.0, 10.0)),
             "capacity 1e+200 is too large or too small for the threshold curve"),
            (dict(spec=StorageSpec(1e-160, 10.0, 10.0)),
             "capacity 1e-160 is too large or too small for the threshold curve"),
        ],
        ids=["offers_0", "offers_10001", "emax", "levels", "capacity_large", "capacity_small"],
    )  # fmt: skip
    def test_every_setting_checked_when_built(self, overrides, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            small_config(**overrides)

    def test_derived_fields(self):
        # the strategies' config and the oracle's grid, built once from the settings
        cfg = small_config(offers=4, e_max=0.2)
        assert cfg.strategy == StrategyConfig(cfg.bounds, cfg.spec, offers=4, e_max=0.2)
        assert cfg.strategy.policy == ThresholdPolicy.build(cfg.bounds, cfg.spec.capacity)
        assert cfg.disc == DiscretizationConfig(80)

    def test_eq_hash_and_repr_ignore_derived_fields(self):
        cfg, other = small_config(), small_config()
        for name in ("strategy", "disc"):
            object.__setattr__(other, name, None)
        assert cfg == other and hash(cfg) == hash(other)
        assert repr(cfg) == repr(other)
        assert "strategy=" not in repr(cfg) and "disc=" not in repr(cfg)

    def test_pickle_keeps_derived_fields(self):
        # what a pool worker gets: the built fields travel with the settings
        cfg = small_config(offers=3)
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg
        assert (back.strategy, back.disc) == (cfg.strategy, cfg.disc)
        assert back.strategy.policy._curve == cfg.strategy.policy._curve

    def test_replace_rebuilds_derived_fields(self):
        cfg = small_config()
        assert replace(cfg, offers=3).strategy.offers == 3
        assert replace(cfg, e_max=0.3).strategy.e_max == 0.3
        assert replace(cfg, disc_levels=40).disc.levels == 40
        bounds = PriceBounds(5.0, 50.0)
        assert replace(cfg, bounds=bounds).strategy.policy.bounds == bounds


class TestSingleRun:
    @pytest.mark.parametrize("run", [0, 1, 2])
    def test_ratios_are_profit_ratio_of_each_record(self, run):
        # the five ratios of a run come from one profit_ratios call
        cfg = small_config()
        records = experiment._single_run(cfg, [(n, n, cfg.strategy) for n in STRATEGIES], run)
        assert [r.strategy for r in records] == ["offline", "nostorage", *STRATEGIES]
        opt = records[0].profit
        assert records[0].empirical_cr == 1.0
        for rec in records[1:]:
            assert type(rec.empirical_cr) is float
            assert rec.empirical_cr.hex() == profit_ratio(opt, rec.profit).hex()


class TestEmitReport:
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
        exact = dict.fromkeys(["offline", "socs", *counts], Fraction())
        for run in range(cfg.runs):
            trace, _predicted = draw_instance(cfg, run)
            exact["offline"] += Fraction(offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit)
            strategies = {"socs": socs_strategy(cfg.strategy)}
            strategies.update((m, ocsmb_strategy(replace(cfg.strategy, offers=m))) for m in counts)
            for key, strategy in strategies.items():
                result = simulate_run(trace, cfg.spec, cfg.penalty, strategy)
                exact[key] += Fraction(result.total_profit)
        for row in run_offer_sweep(cfg, counts):
            means = (row["offline_mean_profit"], row["socs_mean_profit"], row["ocsmb_mean_profit"])
            keys = ("offline", "socs", row["offers"])
            assert means == tuple(rounded(exact[key]) / cfg.runs for key in keys)

    @pytest.mark.parametrize("runs", range(1, 6))
    def test_parallel_rows_equal_serial(self, runs):
        # two shares where there are two runs or more: the rows do not depend on the split
        cfg = small_config(runs=runs, horizon=12, disc_levels=40)
        counts = [1, 3, 3, 10]
        parallel = run_offer_sweep(cfg, counts, parallel=True, workers=2)
        assert multiprocessing.active_children() == []
        assert parallel == run_offer_sweep(cfg, counts)

    def test_counts_checked_before_the_oracle_guard(self, monkeypatch):
        # as a comparison checks its config's offer count before the guard
        monkeypatch.setattr(experiment, "draw_instance", None)  # never reached
        cfg = small_config(runs=1, horizon=10**6, disc_levels=10**6)
        with pytest.raises(ValidationError, match=r"^offer count must be in \[1, 10000\], got 0$"):
            run_offer_sweep(cfg, [1, 0])

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
