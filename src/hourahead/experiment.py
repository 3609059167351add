"""Experiment orchestration: seeded runs, aggregation, and report emission.

Each run draws a synthetic trace from seed XOR run-index, simulates every
registered strategy against the clairvoyant benchmarks, and the harness
aggregates profits and empirical profit ratios.  Runs are independent, so
serial and parallel execution produce identical reports.
"""
from __future__ import annotations

import csv
import json
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
    check_profits,
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
BENCHMARK_NAMES = ("offline", "nostorage")


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

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError(f"runs must be >= 1, got {self.runs}")
        check_horizon(self.horizon)  # so a huge horizon is named before the oracle's guard runs
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        check_wind_capacity(self.wind_capacity)

    @property
    def disc(self) -> DiscretizationConfig:
        """The oracle's grid: disc_levels levels of capacity / disc_levels"""
        return DiscretizationConfig(self.disc_levels)

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

    def to_json_dict(self) -> dict[str, Any]:
        return {"meta": self.meta, "config": self.config, "strategies": self.strategies}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def draw_instance(cfg: ExperimentConfig, run: int) -> tuple[Trace, tuple[float, ...]]:
    """The realized trace of one run and the predicted outputs it was drawn
    around, from a generator seeded with seed XOR run."""
    rng = np.random.default_rng(cfg.seed ^ run)
    forecast = synthesize(rng, cfg.horizon, cfg.bounds, cfg.wind_capacity)
    realized = realize_outputs(rng, forecast.outputs, cfg.e_max)
    return Trace(forecast.prices, realized), forecast.outputs


def strategy_config(cfg: ExperimentConfig) -> StrategyConfig:
    """The price bounds, storage and ladder settings every strategy of a run reads"""
    return StrategyConfig(cfg.bounds, cfg.spec, offers=cfg.offers, e_max=cfg.e_max)


def _single_run(cfg: ExperimentConfig, run: int) -> list[RunRecord]:
    trace, predicted = draw_instance(cfg, run)
    opt_profit = offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit
    strat_cfg = strategy_config(cfg)
    profits = {"nostorage": nostorage_profit(trace)}
    for name in STRATEGIES:
        strategy = STRATEGIES[name](strat_cfg, predicted)
        profits[name] = simulate_run(trace, cfg.spec, cfg.penalty, strategy).total_profit
    ratios = profit_ratios(opt_profit, np.array(list(profits.values()))).tolist()
    return [RunRecord(run, "offline", opt_profit, 1.0)] + [
        RunRecord(run, name, p, r) for (name, p), r in zip(profits.items(), ratios)
    ]


def _aggregate(cfg: ExperimentConfig, records: list[RunRecord]) -> Report:
    strategies: dict[str, dict[str, Any]] = {}
    for name in BENCHMARK_NAMES + tuple(STRATEGIES):
        rows = [r for r in records if r.strategy == name]
        total = profit_sum(r.profit for r in rows)
        check_profits(total)
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


def run_experiment(
    cfg: ExperimentConfig, parallel: bool = False, workers: int | None = None
) -> Report:
    """Execute all runs and aggregate.  Deterministic for a given config and
    seed, whether executed serially or with a process pool (by default one
    worker per CPU this process may run on, never more workers than runs).
    The worker count and the oracle's work guard are checked before any run."""
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    check_dp_cells(cfg.horizon, cfg.disc)
    if parallel and cfg.runs > 1:
        affinity = getattr(os, "sched_getaffinity", None)  # os.cpu_count() counts the host's CPUs
        workers = workers or (len(affinity(0)) if affinity else os.cpu_count() or 1)
        import numpy.random  # numpy loads it lazily; loaded before the fork, no worker imports it
        with ProcessPoolExecutor(max_workers=min(workers, cfg.runs)) as pool:
            chunks = list(pool.map(_single_run, [cfg] * cfg.runs, range(cfg.runs)))
    else:
        chunks = [_single_run(cfg, run) for run in range(cfg.runs)]
    records = [rec for chunk in chunks for rec in chunk]
    return _aggregate(cfg, records)


def run_offer_sweep(cfg: ExperimentConfig, offer_counts: Sequence[int]) -> list[dict[str, Any]]:
    """Mean profits of the laddered strategy for each offer count.

    The traces, the clairvoyant optimum, and the known-price reference are
    computed once per run and reused across the sweep.  Every offer count and
    the oracle's work guard are checked before the first run is drawn; a
    repeated count gives one row.
    """
    check_dp_cells(cfg.horizon, cfg.disc)
    base_cfg = strategy_config(cfg)
    ladder_cfgs = {m: replace(base_cfg, offers=m) for m in offer_counts}
    opt, socs, ladder = [], [], {m: [] for m in ladder_cfgs}  # each run's profits
    for run in range(cfg.runs):
        trace, _predicted = draw_instance(cfg, run)
        opt += [offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit]
        socs += [simulate_run(trace, cfg.spec, cfg.penalty, socs_strategy(base_cfg)).total_profit]
        for m, m_cfg in ladder_cfgs.items():
            ladder[m] += [
                simulate_run(trace, cfg.spec, cfg.penalty, ocsmb_strategy(m_cfg)).total_profit
            ]
    opt_tot, socs_tot = profit_sum(opt), profit_sum(socs)
    ladder_tot = {m: profit_sum(profits) for m, profits in ladder.items()}
    check_profits(opt_tot, socs_tot, *ladder_tot.values())
    return [
        {
            "offers": m,
            "ocsmb_mean_profit": ladder_tot[m] / cfg.runs,
            "socs_mean_profit": socs_tot / cfg.runs,
            "offline_mean_profit": opt_tot / cfg.runs,
        }
        for m in ladder_tot
    ]


def emit_report(
    report: Report,
    json_path: str | Path | None = None,
    csv_path: str | Path | None = None,
) -> None:
    """Write the structured JSON report and/or the per-run CSV table."""
    if json_path is not None:
        Path(json_path).write_text(report.to_json())
    if csv_path is not None:
        with Path(csv_path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "strategy", "profit", "empirical_cr"])
            for rec in report.records:
                writer.writerow(
                    [rec.run, rec.strategy, repr(rec.profit), ratio_json(rec.empirical_cr)]
                )
