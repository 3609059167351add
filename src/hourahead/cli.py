"""Command-line interface.

Subcommands mirror the experiment families: ``simulate`` (one trace, one
strategy), ``compare`` (full multi-run comparison), ``adversary``
(worst-case grid search), ``cr-table`` (guarantee formula over a theta
list), and ``gen-trace`` (synthetic trace to CSV).

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .adversary import AdversaryGrid, WorstCaseReport, adversarial_search
from .errors import BudgetExceededError, TraceParseError, ValidationError
from .experiment import (
    STRATEGIES,
    ExperimentConfig,
    emit_report,
    load_config_file,
    run_experiment,
    run_offer_sweep,
)
from .market import PenaltyParams, PriceBounds, StorageSpec, simulate_run
from .oracle import DiscretizationConfig, offline_opt_dp, profit_ratio, ratio_json
from .policy import ThresholdPolicy, theoretical_cr
from .strategies import (  # the *_strategy factories stay for bench/tracer.py to replace by name
    StrategyConfig,
    fixed_threshold_strategy,
    fonline_strategy,
    mocsmb_strategy,
    ocsmb_strategy,
    socs_strategy,
)
from .traces import gen_synthetic, load_trace, write_trace_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_BUDGET = 3

# the library's defaults, so that a flag left out means what it means there
_DEFAULT = ExperimentConfig()
DEFAULTS = {
    "pmin": _DEFAULT.bounds.p_min,
    "pmax": _DEFAULT.bounds.p_max,
    "capacity": _DEFAULT.spec.capacity,
    "charge_rate": _DEFAULT.spec.charge_rate,
    "discharge_rate": _DEFAULT.spec.discharge_rate,
    "initial_level": None,  # None: full, whatever the capacity
    "alpha1": _DEFAULT.penalty.alpha1,
    "alpha2": _DEFAULT.penalty.alpha2,
    "runs": _DEFAULT.runs,
    "horizon": _DEFAULT.horizon,
    "seed": _DEFAULT.seed,
    "offers": _DEFAULT.offers,
    "emax": _DEFAULT.e_max,
    "eta": None,  # None: capacity / disc_levels
    "wind_capacity": _DEFAULT.wind_capacity,
}
# mocsmb needs a predicted output per slot, which an adversary instance does not have
ADVERSARY_STRATEGIES = [name for name in STRATEGIES if name != "mocsmb"] + ["gmin", "const"]


# flags that several subcommands share; each subcommand takes only those it reads
COMMON_FLAGS = {
    "config": {"help": "INI config file; flags override its values"},
    "seed": {"type": int, "help": "base RNG seed"},
    "capacity": {"type": float, "help": "storage capacity in MWh"},
    "charge-rate": {"type": float, "help": "max charge per slot in MWh"},
    "discharge-rate": {"type": float, "help": "max discharge per slot in MWh"},
    "pmin": {"type": float, "help": "minimum clearing price"},
    "pmax": {"type": float, "help": "maximum clearing price"},
    "eta": {"type": float, "help": f"storage quantum in MWh (default C/{_DEFAULT.disc_levels})"},
    "out": {"help": "output path (JSON report)"},
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **COMMON_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hourahead",
        description="Offering strategies for a storage-assisted renewable producer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one strategy over one trace")
    _add_common(sim, *COMMON_FLAGS)
    sim.add_argument("--strategy", default="socs", choices=list(STRATEGIES))
    sim.add_argument("--price-csv", help="price CSV (with --wind-csv); otherwise synthetic")
    sim.add_argument("--wind-csv", help="wind CSV")
    sim.add_argument("--horizon", type=int, help="synthetic horizon when no CSVs given")
    sim.add_argument("--offers", type=int, help="offers per slot for the laddered strategies")
    sim.add_argument("--emax", type=float, help="forecast error bound")
    sim.add_argument("--clip-prices", action="store_true", help="clip out-of-bounds prices")
    sim.add_argument("--slots", action="store_true", help="include per-slot outcomes in output")

    cmp_ = sub.add_parser("compare", help="multi-run strategy comparison")
    _add_common(cmp_, *COMMON_FLAGS)
    cmp_.add_argument("--runs", type=int, help="number of seeded runs")
    cmp_.add_argument("--horizon", type=int, help="slots per run")
    cmp_.add_argument("--offers", type=int)
    cmp_.add_argument("--emax", type=float)
    cmp_.add_argument("--csv", help="per-run CSV table path")
    cmp_.add_argument("--parallel", action="store_true", help="run with a process pool")
    cmp_.add_argument(
        "--sweep-offers",
        help="offer-count sweep, e.g. '1-15' or '2,3,5,10'; emits one row per count",
    )

    adv = sub.add_parser("adversary", help="exhaustive worst-case grid search")
    _add_common(adv, "config", "capacity", "charge-rate", "discharge-rate", "pmin", "pmax", "out")
    adv.add_argument(
        "--strategy",
        default="socs",
        choices=ADVERSARY_STRATEGIES,
        help="gmin: always-sell floor policy; const: fixed threshold above pmin",
    )
    adv.add_argument("--horizon", type=int, default=3, help="grid horizon (<= 6)")
    adv.add_argument("--price-count", type=int, default=4, help="geometric price levels")
    adv.add_argument("--supply-count", type=int, default=3, help="supply levels")
    adv.add_argument("--levels", type=int, default=4, help="storage levels (C_d)")
    adv.add_argument("--budget", type=int, default=10_000_000, help="max instances")
    adv.add_argument("--offers", type=int)
    adv.add_argument("--threshold", type=float, help="threshold for the const strategy")

    crt = sub.add_parser("cr-table", help="worst-case guarantee for a list of theta")
    crt.add_argument(
        "--theta",
        default="13.44,5.32,3.63,50",
        help="comma-separated fluctuation ratios",
    )
    crt.add_argument("--out", help="write the table to a CSV file as well")

    gen = sub.add_parser("gen-trace", help="write a synthetic trace as CSV files")
    _add_common(gen, "config", "seed", "pmin", "pmax")
    gen.add_argument("--horizon", type=int)
    gen.add_argument("--wind-capacity", type=float)
    gen.add_argument("--out-prefix", default="trace", help="writes <prefix>-price.csv/-wind.csv")

    return parser


def _resolve(args: argparse.Namespace, **defaults) -> dict:
    """defaults (DEFAULTS, then `defaults`) < config file < explicit flags"""
    values = {**DEFAULTS, **defaults}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _market(values: dict) -> tuple[PriceBounds, StorageSpec, PenaltyParams, DiscretizationConfig]:
    bounds = PriceBounds(values["pmin"], values["pmax"])
    spec = StorageSpec(
        values["capacity"],
        values["charge_rate"],
        values["discharge_rate"],
        values["initial_level"],
    )
    penalty = PenaltyParams(values["alpha1"], values["alpha2"])
    if values["eta"] is None:
        disc = DiscretizationConfig.for_capacity(spec.capacity, _DEFAULT.disc_levels)
    else:
        eta = values["eta"]
        # checked before rounding: a zero, nan or tiny eta gives no finite level count
        levels = spec.capacity / eta if eta > 0.0 else math.inf
        if not levels < math.inf:
            raise ValidationError(f"eta must be a positive quantum of the capacity, got {eta}")
        disc = DiscretizationConfig(eta, max(round(levels), 1))
        disc.check_capacity(spec.capacity)
    return bounds, spec, penalty, disc


def _parse_list(flag: str, text: str, cast: type = float) -> list:
    """A comma-separated list, or for integers also an inclusive 'lo-hi'
    range; raises ValidationError when it is malformed or empty."""
    try:
        if cast is int and "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [cast(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"{flag}: cannot parse {text!r}") from None
    if not values:
        raise ValidationError(f"{flag}: {text!r} is an empty list")
    return values


def _emit(text: str, out: str | None) -> None:
    """Print a report, and write it to `out` as well when that is given."""
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    # bounds count as explicit only when a flag or the config file sets
    # them; otherwise a CSV trace's observed range sets them
    values = _resolve(args, pmin=None, pmax=None)
    explicit = values["pmin"] is not None or values["pmax"] is not None
    for key in ("pmin", "pmax"):
        if values[key] is None:
            values[key] = DEFAULTS[key]
    bounds, spec, penalty, disc = _market(values)
    if args.price_csv or args.wind_csv:
        if not (args.price_csv and args.wind_csv):
            raise ValidationError("--price-csv and --wind-csv must be given together")
        trace, bounds = load_trace(
            args.price_csv,
            args.wind_csv,
            bounds=bounds if explicit else None,
            clip=args.clip_prices,
        )
    else:
        trace = gen_synthetic(
            values["seed"], values["horizon"], bounds, values["wind_capacity"]
        )

    policy = ThresholdPolicy.build(bounds, spec.capacity)
    cfg = StrategyConfig(policy, spec, offers=values["offers"], e_max=values["emax"])
    strategy = STRATEGIES[args.strategy](cfg, trace.outputs)

    result = simulate_run(trace, spec, penalty, strategy)
    opt = offline_opt_dp(trace, spec, disc).total_profit
    ratio = profit_ratio(opt, result.total_profit)
    out = {
        "strategy": args.strategy,
        "horizon": trace.horizon,
        "profit": result.total_profit,
        "offline_profit": opt,
        "empirical_cr": ratio_json(ratio),
    }
    if args.slots:
        columns = {
            "commitment": result.commitments,
            "over_commitment": result.over_commitments,
            "charge": result.charges,
            "discharge": result.discharges,
            "net_profit": result.profits,
            "storage_after": result.levels,
        }
        out["slots"] = [dict(zip(columns, row)) for row in zip(*columns.values())]
    _emit(json.dumps(out, indent=2), args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    values = _resolve(args)
    bounds, spec, penalty, disc = _market(values)
    cfg = ExperimentConfig(
        runs=values["runs"],
        horizon=values["horizon"],
        seed=values["seed"],
        bounds=bounds,
        spec=spec,
        penalty=penalty,
        offers=values["offers"],
        e_max=values["emax"],
        disc_levels=disc.levels,
        wind_capacity=values["wind_capacity"],
    )
    if args.sweep_offers:
        rows = run_offer_sweep(cfg, _parse_list("--sweep-offers", args.sweep_offers, int))
        if args.csv:
            with Path(args.csv).open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
        _emit(json.dumps(rows, indent=2), args.out)
        return EXIT_OK

    report = run_experiment(cfg, parallel=args.parallel)
    emit_report(report, json_path=args.out, csv_path=args.csv)
    print(report.to_json(), end="")
    return EXIT_OK


def _adversary_strategy(args, values, bounds, spec):
    if args.strategy in STRATEGIES:
        policy = ThresholdPolicy.build(bounds, spec.capacity)
        cfg = StrategyConfig(policy, spec, offers=values["offers"])
        bound = policy.cr_value if args.strategy == "socs" else None
        return STRATEGIES[args.strategy](cfg, ()), bound
    if args.strategy == "gmin":
        return fixed_threshold_strategy(bounds.p_min, spec), bounds.theta
    threshold = args.threshold
    if threshold is None:
        threshold = (bounds.p_min * bounds.p_max) ** 0.5
    if not bounds.p_min < threshold <= bounds.p_max:
        raise ValidationError(
            f"const threshold {threshold} must lie in (p_min, p_max]"
        )
    return fixed_threshold_strategy(threshold, spec), None


def _cmd_adversary(args: argparse.Namespace) -> int:
    # rate limits off unless a flag or the config file sets them: the
    # worst-case guarantees are stated for rate-unconstrained storage, so
    # the grid certifies that regime by default
    values = _resolve(args, charge_rate=None, discharge_rate=None)
    bounds = PriceBounds(values["pmin"], values["pmax"])
    capacity = values["capacity"]
    spec = StorageSpec(
        capacity,
        capacity if values["charge_rate"] is None else values["charge_rate"],
        capacity if values["discharge_rate"] is None else values["discharge_rate"],
        values["initial_level"],
    )
    grid = AdversaryGrid.geometric(
        bounds,
        spec.capacity,
        horizon=args.horizon,
        price_count=args.price_count,
        supply_count=args.supply_count,
        levels=args.levels,
        budget=args.budget,
    )
    strategy, bound = _adversary_strategy(args, values, bounds, spec)
    report = adversarial_search(grid, strategy, spec, theoretical_bound=bound)
    _emit(json.dumps(_worst_case_json(report), indent=2), args.out)
    return EXIT_OK


def _worst_case_json(report: WorstCaseReport) -> dict:
    out = {
        "instances": report.instances,
        "max_ratio": ratio_json(report.max_ratio),
        "theoretical_bound": report.theoretical_bound,
        "bucket_ratios": {
            f"{level:g}": ratio_json(r) for level, r in sorted(report.bucket_ratios.items())
        },
    }
    if report.argmax_instance is not None:
        out["argmax_instance"] = {
            "prices": list(report.argmax_instance.prices),
            "outputs": list(report.argmax_instance.outputs),
        }
    return out


def _cmd_cr_table(args: argparse.Namespace) -> int:
    lines = ["theta,cr"]
    for theta in _parse_list("--theta", args.theta):
        lines.append(f"{theta:g},{theoretical_cr(theta):.2f}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    values = _resolve(args)
    bounds = PriceBounds(values["pmin"], values["pmax"])
    trace = gen_synthetic(
        values["seed"], values["horizon"], bounds, values["wind_capacity"]
    )
    price_path = f"{args.out_prefix}-price.csv"
    wind_path = f"{args.out_prefix}-wind.csv"
    write_trace_csv(trace, price_path, wind_path)
    print(f"wrote {price_path} and {wind_path} ({trace.horizon} slots)")
    return EXIT_OK


COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "adversary": _cmd_adversary,
    "cr-table": _cmd_cr_table,
    "gen-trace": _cmd_gen_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
