"""Experiment orchestration: seeded runs, aggregation and the per-run table.

Each run draws a synthetic trace from seed XOR run-index and plays its
players (every registered strategy, or socs and one ocsmb per offer count of
a sweep) against the clairvoyant benchmarks.  Runs are independent, so
serial and parallel execution produce identical reports and sweep rows.
The CLI prints ``Report.to_json``; ``emit_report`` writes the per-run table.
"""
from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .errors import ValidationError
from .market import OfferStrategy, PenaltyParams, PriceBounds, StorageSpec, Trace, simulate_run
from .oracle import (
    DiscretizationConfig,
    check_dp_cells,
    offline_opt_dp,
    profit_ratios,
    profit_sum,
    ratio_json,
)
from .strategies import (
    DEFAULT_OFFERS,
    StrategyConfig,
    fonline_strategy,
    mocsmb_strategy,
    nostorage_profit,
    ocsmb_strategy,
    socs_strategy,
)
from .traces import (
    DEFAULT_WIND_CAPACITY,
    check_horizon,
    check_wind_capacity,
    realize_outputs,
    synthesize,
    write_csv,
)

#: The one registry of online strategies: name -> builder taking the
#: strategy config and the predicted output per slot.  Each builder looks its
#: factory up in this module when it runs, so a replaced attribute is used.
STRATEGIES: dict[str, Callable[[StrategyConfig, Sequence[float]], OfferStrategy]] = {
    "socs": lambda cfg, predicted: socs_strategy(cfg),
    "ocsmb": lambda cfg, predicted: ocsmb_strategy(cfg),
    "mocsmb": lambda cfg, predicted: mocsmb_strategy(cfg, predicted),
    "fonline": lambda cfg, predicted: fonline_strategy(cfg.bounds, cfg.spec),
}
Player = tuple[str, str, StrategyConfig]  # label, STRATEGIES name, config: pool tasks pickle it


@dataclass(frozen=True)
class ExperimentConfig:
    runs: int = 100
    horizon: int = 360
    seed: int = 0
    bounds: PriceBounds = field(default_factory=lambda: PriceBounds(10.0, 40.0))
    spec: StorageSpec = field(default_factory=lambda: StorageSpec(20.0, 10.0, 10.0))
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    offers: int = DEFAULT_OFFERS
    e_max: float = 0.1
    disc_levels: int = 400
    wind_capacity: float = DEFAULT_WIND_CAPACITY
    # built once from the settings above: the strategies' config and the oracle's grid
    strategy: StrategyConfig = field(init=False, repr=False, compare=False)
    disc: DiscretizationConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError(f"runs must be >= 1, got {self.runs}")
        check_horizon(self.horizon)  # so a huge horizon is named before the oracle's guard runs
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        check_wind_capacity(self.wind_capacity)
        strategy = StrategyConfig(self.bounds, self.spec, offers=self.offers, e_max=self.e_max)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "disc", DiscretizationConfig(self.disc_levels))

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "horizon": self.horizon,
            "seed": self.seed,
            "pmin": self.bounds.p_min,
            "pmax": self.bounds.p_max,
            "capacity": self.spec.capacity,
            "charge_rate": self.spec.charge_rate,
            "discharge_rate": self.spec.discharge_rate,
            "initial_level": self.spec.initial_level,
            "alpha1": self.penalty.alpha1,
            "alpha2": self.penalty.alpha2,
            "offers": self.offers,
            "e_max": self.e_max,
            "disc_levels": self.disc_levels,
            "wind_capacity": self.wind_capacity,
            "strategies": list(STRATEGIES),
        }


@dataclass(frozen=True)
class RunRecord:
    run: int
    strategy: str
    profit: float
    empirical_cr: float


@dataclass
class Report:
    meta: dict[str, Any]
    config: dict[str, Any]
    strategies: dict[str, dict[str, Any]]
    records: list[RunRecord]

    def to_json(self) -> str:
        summary = {"meta": self.meta, "config": self.config, "strategies": self.strategies}
        return json.dumps(summary, indent=2) + "\n"


def draw_instance(cfg: ExperimentConfig, run: int) -> tuple[Trace, tuple[float, ...]]:
    """The realized trace of one run and the predicted outputs it was drawn
    around, from a generator seeded with seed XOR run."""
    rng = np.random.default_rng(cfg.seed ^ run)
    forecast = synthesize(rng, cfg.horizon, cfg.bounds, cfg.wind_capacity)
    realized = realize_outputs(rng, forecast.outputs, cfg.e_max)
    return Trace(forecast.prices, realized), forecast.outputs


def _single_run(cfg: ExperimentConfig, players: Sequence[Player], run: int) -> list[RunRecord]:
    trace, predicted = draw_instance(cfg, run)
    opt_profit = offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit
    profits = {"nostorage": nostorage_profit(trace)}
    for label, name, strategy_cfg in players:
        strategy = STRATEGIES[name](strategy_cfg, predicted)
        profits[label] = simulate_run(trace, cfg.spec, cfg.penalty, strategy).total_profit
    ratios = profit_ratios(opt_profit, np.array(list(profits.values()))).tolist()
    return [RunRecord(run, "offline", opt_profit, 1.0)] + [
        RunRecord(run, name, p, r) for (name, p), r in zip(profits.items(), ratios)
    ]


def _aggregate(cfg: ExperimentConfig, records: list[RunRecord]) -> Report:
    strategies: dict[str, dict[str, Any]] = {}
    for name in dict.fromkeys(r.strategy for r in records):  # offline, nostorage, the players
        rows = [r for r in records if r.strategy == name]
        total = profit_sum(r.profit for r in rows)
        ratios = [r.empirical_cr for r in rows]
        strategies[name] = {
            "total_profit": total,
            "mean_profit": total / len(rows),
            # one inf ratio makes both the max and the mean inf
            "empirical_cr_max": ratio_json(max(ratios)),
            "empirical_cr_mean": ratio_json(profit_sum(ratios) / len(ratios)),
        }
    meta = {"tool": "hourahead", "version": __version__, "seed": cfg.seed}
    return Report(meta=meta, config=cfg.to_dict(), strategies=strategies, records=records)


def _run_share(cfg: ExperimentConfig, players: Sequence[Player], runs: range) -> list[RunRecord]:
    return [rec for run in runs for rec in _single_run(cfg, players, run)]


def _init_worker(started: Any) -> None:
    global _started  # the pool's semaphore: inherited, as a task argument cannot carry it
    _started = started


def _worker_share(cfg: ExperimentConfig, players: Sequence[Player], runs: range) -> list[RunRecord]:
    _started.release()  # the task has arrived: the parent may start its own share
    return _run_share(cfg, players, runs)


def _play(
    cfg: ExperimentConfig, players: Sequence[Player], parallel: bool, workers: int | None
) -> list[RunRecord]:
    """Every run's records in run order, the same serially or in parallel.
    In parallel the runs are split into one contiguous share per process (by
    default one per usable CPU, never more than runs): this process computes
    the first share, and a pool worker each of the others, as one task.  The
    worker count and the oracle's work guard are checked before any run.
    Each worker holds its task before this process starts its own share."""
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    check_dp_cells(cfg.horizon, cfg.disc)
    w = 1
    if parallel:
        affinity = getattr(os, "sched_getaffinity", None)  # os.cpu_count() counts the host's CPUs
        w = min(workers or (len(affinity(0)) if affinity else os.cpu_count() or 1), cfg.runs)
    shares = [range(cfg.runs * k // w, cfg.runs * (k + 1) // w) for k in range(w)]
    if w == 1:
        return _run_share(cfg, players, shares[0])
    import numpy.random  # numpy loads it lazily; loaded before the fork, no worker imports it
    started = multiprocessing.Semaphore(0)
    with ProcessPoolExecutor(w - 1, initializer=_init_worker, initargs=(started,)) as pool:
        futures = [pool.submit(_worker_share, cfg, players, share) for share in shares[1:]]
        waiting = len(futures)  # the blocking acquire frees the lock; a dead worker ends the wait
        while waiting and not any(future.done() for future in futures):
            waiting -= started.acquire(timeout=0.05)
        records = _run_share(cfg, players, shares[0])
        for future in futures:
            records += future.result()
    return records


def run_experiment(
    cfg: ExperimentConfig, parallel: bool = False, workers: int | None = None
) -> Report:
    """Play every registered strategy in all runs (see ``_play``) and aggregate."""
    players = [(name, name, cfg.strategy) for name in STRATEGIES]
    return _aggregate(cfg, _play(cfg, players, parallel, workers))


def run_offer_sweep(
    cfg: ExperimentConfig,
    offer_counts: Sequence[int],
    parallel: bool = False,
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """Mean profits of the laddered strategy for each offer count.

    Each run plays socs and one ocsmb per distinct count against the same
    trace and clairvoyant optimum, serially or in parallel as
    ``run_experiment`` does.  Every offer count is checked before the first
    run is drawn; a repeated count gives one row.
    """
    ladders = {m: replace(cfg.strategy, offers=m) for m in offer_counts}
    players = [("socs", "socs", cfg.strategy)]
    players += [(f"ocsmb{m}", "ocsmb", m_cfg) for m, m_cfg in ladders.items()]
    records = _play(cfg, players, parallel, workers)
    mean = {label: s["mean_profit"] for label, s in _aggregate(cfg, records).strategies.items()}
    return [
        {"offers": m, "ocsmb_mean_profit": mean[f"ocsmb{m}"], "socs_mean_profit": mean["socs"],
         "offline_mean_profit": mean["offline"]}  # fmt: skip
        for m in ladders
    ]


def emit_report(report: Report, csv_path: str | Path | None = None) -> None:
    """Write the per-run table, one row per record, to `csv_path` when that is given."""
    if csv_path is not None:
        rows = (
            [rec.run, rec.strategy, repr(rec.profit), ratio_json(rec.empirical_cr)]
            for rec in report.records
        )
        write_csv(csv_path, ["run", "strategy", "profit", "empirical_cr"], rows)
