"""Experiment orchestration: seeded runs, aggregation, and report emission.

Each run draws a synthetic trace from seed XOR run-index, simulates the
selected strategies against the clairvoyant benchmarks, and the harness
aggregates profits and empirical profit ratios.  Runs are independent, so
serial and parallel execution produce identical reports.
"""
from __future__ import annotations

import configparser
import csv
import json
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
    UNBOUNDED,
    UnboundedRatio,
    offline_opt_dp,
    profit_ratio,
    ratio_json,
)
from .policy import ThresholdPolicy
from .strategies import (
    Forecast,
    StrategyConfig,
    fonline_strategy,
    mocsmb_strategy,
    nostorage_profit,
    ocsmb_strategy,
    socs_strategy,
)
from .traces import realize_outputs, synthesize

#: The one registry of online strategies: name -> builder taking the
#: strategy config and the per-slot output forecasts.  Each builder looks its
#: factory up in this module when it runs, so a replaced attribute is used.
STRATEGIES: dict[str, Callable[[StrategyConfig, Sequence[Forecast]], OfferStrategy]] = {
    "socs": lambda cfg, forecasts: socs_strategy(cfg),
    "ocsmb": lambda cfg, forecasts: ocsmb_strategy(cfg),
    "mocsmb": lambda cfg, forecasts: mocsmb_strategy(cfg, forecasts),
    "fonline": lambda cfg, forecasts: fonline_strategy(cfg.policy.bounds, cfg.spec),
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
    offers: int = 10
    e_max: float = 0.1
    disc_levels: int = 400
    wind_capacity: float = 10.0
    strategies: tuple[str, ...] = tuple(STRATEGIES)

    def __post_init__(self):
        if self.runs < 1 or self.horizon < 1:
            raise ValidationError("runs and horizon must be >= 1")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValidationError(f"unknown strategies: {sorted(unknown)}")

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
            "strategies": list(self.strategies),
        }


@dataclass(frozen=True)
class RunRecord:
    run: int
    strategy: str
    profit: float
    empirical_cr: float | UnboundedRatio


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


def draw_instance(cfg: ExperimentConfig, run: int) -> tuple[Trace, list[Forecast]]:
    """The realized trace of one run and the output forecasts it was drawn
    around, from a generator seeded with seed XOR run."""
    rng = np.random.default_rng(cfg.seed ^ run)
    forecast_trace = synthesize(rng, cfg.horizon, cfg.bounds, cfg.wind_capacity)
    realized = realize_outputs(rng, forecast_trace.outputs(), cfg.e_max)
    trace = Trace.from_series(forecast_trace.prices(), realized)
    return trace, [Forecast(u, cfg.e_max) for u in forecast_trace.outputs()]


def _strategy_config(cfg: ExperimentConfig) -> StrategyConfig:
    policy = ThresholdPolicy.build(cfg.bounds, cfg.spec.capacity)
    return StrategyConfig(policy, cfg.spec, offers=cfg.offers, e_max=cfg.e_max)


def _single_run(cfg: ExperimentConfig, run: int) -> list[RunRecord]:
    trace, forecasts = draw_instance(cfg, run)
    disc = DiscretizationConfig.for_capacity(cfg.spec.capacity, cfg.disc_levels)
    opt_profit = offline_opt_dp(trace, cfg.spec, disc).total_profit
    strat_cfg = _strategy_config(cfg)

    records = [RunRecord(run, "offline", opt_profit, 1.0)]
    ns_profit = nostorage_profit(trace)
    records.append(RunRecord(run, "nostorage", ns_profit, profit_ratio(opt_profit, ns_profit)))
    for name in cfg.strategies:
        strategy = STRATEGIES[name](strat_cfg, forecasts)
        result = simulate_run(trace, cfg.spec, cfg.penalty, strategy)
        records.append(
            RunRecord(run, name, result.total_profit, profit_ratio(opt_profit, result.total_profit))
        )
    return records


def _aggregate(cfg: ExperimentConfig, records: list[RunRecord]) -> Report:
    strategies: dict[str, dict[str, Any]] = {}
    for name in BENCHMARK_NAMES + tuple(cfg.strategies):
        rows = [r for r in records if r.strategy == name]
        profits = [r.profit for r in rows]
        ratios = [r.empirical_cr for r in rows]
        if any(isinstance(r, UnboundedRatio) for r in ratios):
            cr_max = cr_mean = UNBOUNDED
        else:
            cr_max, cr_mean = max(ratios), sum(ratios) / len(ratios)
        strategies[name] = {
            "total_profit": sum(profits),
            "mean_profit": sum(profits) / len(profits),
            "empirical_cr_max": ratio_json(cr_max),
            "empirical_cr_mean": ratio_json(cr_mean),
        }
    meta = {"tool": "hourahead", "version": __version__, "seed": cfg.seed}
    return Report(meta=meta, config=cfg.to_dict(), strategies=strategies, records=records)


def run_experiment(
    cfg: ExperimentConfig, parallel: bool = False, workers: int | None = None
) -> Report:
    """Execute all runs and aggregate.  Deterministic for a given config and
    seed, whether executed serially or with a process pool (by default one
    worker per core)."""
    if parallel and cfg.runs > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_single_run, [cfg] * cfg.runs, range(cfg.runs)))
    else:
        chunks = [_single_run(cfg, run) for run in range(cfg.runs)]
    records = [rec for chunk in chunks for rec in chunk]
    return _aggregate(cfg, records)


def run_offer_sweep(cfg: ExperimentConfig, offer_counts: Sequence[int]) -> list[dict[str, Any]]:
    """Mean profits of the laddered strategy for each offer count.

    The traces, the clairvoyant optimum, and the known-price reference are
    computed once per run and reused across the sweep.
    """
    disc = DiscretizationConfig.for_capacity(cfg.spec.capacity, cfg.disc_levels)
    base_cfg = _strategy_config(cfg)
    opt_tot = 0.0
    socs_tot = 0.0
    ladder_tot = {m: 0.0 for m in offer_counts}
    for run in range(cfg.runs):
        trace, _forecasts = draw_instance(cfg, run)
        opt_tot += offline_opt_dp(trace, cfg.spec, disc).total_profit
        socs_tot += simulate_run(trace, cfg.spec, cfg.penalty, socs_strategy(base_cfg)).total_profit
        for m in offer_counts:
            m_cfg = replace(base_cfg, offers=m)
            ladder_tot[m] += simulate_run(
                trace, cfg.spec, cfg.penalty, ocsmb_strategy(m_cfg)
            ).total_profit
    rows = []
    for m in offer_counts:
        rows.append(
            {
                "offers": m,
                "ocsmb_mean_profit": ladder_tot[m] / cfg.runs,
                "socs_mean_profit": socs_tot / cfg.runs,
                "offline_mean_profit": opt_tot / cfg.runs,
            }
        )
    return rows


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


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read the flat key-value experiment config (INI sections)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise OSError(f"config file not found: {path}")
    values: dict[str, Any] = {}
    spec_keys = {
        ("market", "pmin"): float,
        ("market", "pmax"): float,
        ("storage", "capacity"): float,
        ("storage", "charge_rate"): float,
        ("storage", "discharge_rate"): float,
        ("storage", "initial_level"): float,
        ("penalty", "alpha1"): float,
        ("penalty", "alpha2"): float,
        ("experiment", "runs"): int,
        ("experiment", "horizon"): int,
        ("experiment", "seed"): int,
        ("experiment", "offers"): int,
        ("experiment", "emax"): float,
        ("experiment", "eta"): float,
        ("experiment", "wind_capacity"): float,
    }
    for (section, key), cast in spec_keys.items():
        if parser.has_option(section, key):
            try:
                values[key] = cast(parser.get(section, key))
            except ValueError:
                raise ValidationError(
                    f"config {path}: [{section}] {key} is not a valid {cast.__name__}"
                ) from None
    for section in parser.sections():
        if section not in {"market", "storage", "penalty", "experiment"}:
            raise ValidationError(f"config {path}: unknown section [{section}]")
    return values
