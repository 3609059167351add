"""Command-line interface.

Subcommands mirror the experiment families: ``simulate`` (one trace, one
strategy), ``compare`` (full multi-run comparison), ``adversary``
(worst-case grid search), ``cr-table`` (guarantee formula over a theta
list), and ``gen-trace`` (the trace of compare's run 0 to CSV).

Exit codes: 0 success, 1 validation error, 2 I/O error or dead pool worker, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import sys
from collections import namedtuple
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .adversary import GRID_DEFAULTS, MAX_INSTANCES, AdversaryGrid, adversarial_search
from .errors import BudgetExceededError, TraceParseError, ValidationError
from .experiment import (
    STRATEGIES,
    ExperimentConfig,
    draw_instance,
    emit_report,
    run_experiment,
    run_offer_sweep,
)
from .market import PenaltyParams, PriceBounds, StorageSpec, scalar_columns, simulate_run
from .oracle import check_dp_cells, offline_opt_dp, profit_ratios, ratio_json
from .policy import theoretical_cr
from .strategies import (  # the *_strategy factories stay for bench/tracer.py to replace by name
    StrategyConfig,
    fixed_threshold_strategy,
    fonline_strategy,
    mocsmb_strategy,
    ocsmb_strategy,
    socs_columns,
    socs_strategy,
)
from .traces import load_trace, write_trace_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_BUDGET = 3

# mocsmb needs a predicted output per slot, which an adversary instance does not have
ADVERSARY_STRATEGIES = [name for name in STRATEGIES if name != "mocsmb"] + ["gmin", "const"]


# every setting of the config file and the flags: name -> (INI section, type,
# default, help); the flag is --name with "-" for "_", and the default is the
# library's, so that a setting left out means what it means there
_DEFAULT = ExperimentConfig()
Setting = namedtuple("Setting", "section type default help")
SETTINGS = {
    "pmin": Setting("market", float, _DEFAULT.bounds.p_min, "minimum clearing price"),
    "pmax": Setting("market", float, _DEFAULT.bounds.p_max, "maximum clearing price"),
    "capacity": Setting("storage", float, _DEFAULT.spec.capacity, "storage capacity in MWh"),
    "charge_rate": Setting("storage", float, _DEFAULT.spec.charge_rate, "max MWh in/slot"),
    "discharge_rate": Setting("storage", float, _DEFAULT.spec.discharge_rate, "max MWh out/slot"),
    "initial_level": Setting("storage", float, None, "initial level in MWh (default full)"),
    "alpha1": Setting("penalty", float, _DEFAULT.penalty.alpha1, "undelivered MWh penalty x price"),
    "alpha2": Setting("penalty", float, _DEFAULT.penalty.alpha2, "undelivered MWh penalty, added"),
    "runs": Setting("experiment", int, _DEFAULT.runs, "number of seeded runs"),
    "horizon": Setting("experiment", int, _DEFAULT.horizon, "slots of a synthetic trace"),
    "seed": Setting("experiment", int, _DEFAULT.seed, "base RNG seed"),
    "offers": Setting("experiment", int, _DEFAULT.offers, "offers per slot of the ladders"),
    "emax": Setting("experiment", float, _DEFAULT.e_max, "forecast error bound"),
    "levels": Setting("experiment", int, _DEFAULT.disc_levels, "oracle storage levels (C_d)"),
    "wind_capacity": Setting("experiment", float, _DEFAULT.wind_capacity, "wind capacity in MW"),
}


def load_config_file(path: str | Path) -> dict:
    """Read the INI config file into setting values; an unknown section or
    key (so also [DEFAULT]) or a value of the wrong type is an error."""
    parser = configparser.ConfigParser(default_section="")
    try:
        if not parser.read(path, encoding="utf-8-sig"):
            raise OSError(f"config file not found: {path}")
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:  # a file it cannot parse; the message spans lines
        raise ValidationError(f"config {path}: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"config {path}: not UTF-8 text") from None
    values = {}
    for section, items in sections.items():
        if section not in {setting.section for setting in SETTINGS.values()}:
            raise ValidationError(f"config {path}: unknown section [{section}]")
        for key, text in items:
            setting = SETTINGS.get(key)
            if setting is None or setting.section != section:
                raise ValidationError(f"config {path}: unknown key [{section}] {key}")
            try:
                values[key] = setting.type(text)
            except ValueError:
                raise ValidationError(
                    f"config {path}: [{section}] {key} is not a valid {setting.type.__name__}"
                ) from None
    return values


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """--config and the flags of the named settings, each None unless given"""
    parser.add_argument("--config", help="INI config file; flags override its values")
    for name in names:
        setting = SETTINGS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=setting.type, help=setting.help)


class _Parser(argparse.ArgumentParser):
    """Parse errors print one ``error:`` line, as every other error does; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first call: a parse only reads it."""
    parser = _Parser(
        prog="hourahead",
        description="Offering strategies for a storage-assisted renewable producer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = ("seed", "capacity", "charge_rate", "discharge_rate", "pmin", "pmax", "levels")
    sim = sub.add_parser("simulate", help="run one strategy over one trace")
    _add_settings(sim, *shared, "horizon", "offers", "emax")
    sim.add_argument("--out", help="output path (JSON report)")
    sim.add_argument("--strategy", default="socs", choices=list(STRATEGIES))
    sim.add_argument("--price-csv", help="price CSV (with --wind-csv); otherwise synthetic")
    sim.add_argument("--wind-csv", help="wind CSV")
    sim.add_argument("--clip-prices", action="store_true", help="clip out-of-bounds prices")
    sim.add_argument("--slots", action="store_true", help="include per-slot outcomes in output")

    cmp_ = sub.add_parser("compare", help="multi-run strategy comparison")
    _add_settings(cmp_, *shared, "runs", "horizon", "offers", "emax")
    cmp_.add_argument("--out", help="output path (JSON report)")
    cmp_.add_argument("--csv", help="per-run CSV table path")
    cmp_.add_argument("--parallel", action="store_true", help="split the runs over the usable CPUs")
    cmp_.add_argument(
        "--sweep-offers",
        help="offer-count sweep, e.g. '1-15' or '2,3,5,10'; emits one row per count",
    )

    adv = sub.add_parser("adversary", help="exhaustive worst-case grid search")
    _add_settings(adv, "capacity", "charge_rate", "discharge_rate", "pmin", "pmax", "offers")
    adv.add_argument("--out", help="output path (JSON report)")
    adv.add_argument(
        "--strategy",
        default="socs",
        choices=ADVERSARY_STRATEGIES,
        help="gmin: always-sell floor policy; const: fixed --threshold above pmin",
    )
    adv.add_argument("--horizon", type=int, help="grid horizon (<= 6)")
    adv.add_argument("--price-count", type=int, help="geometric price levels")
    adv.add_argument("--supply-count", type=int, help="supply levels")
    adv.add_argument("--levels", type=int, help="storage levels (C_d)")
    adv.set_defaults(**GRID_DEFAULTS)
    adv.add_argument("--budget", type=int, default=MAX_INSTANCES, help="max instances")
    adv.add_argument("--threshold", type=float, help="const only; default pmin*sqrt(pmax/pmin)")

    crt = sub.add_parser("cr-table", help="worst-case guarantee for a list of theta")
    crt.add_argument(
        "--theta",
        default="13.44,5.32,3.63,50",
        help="comma-separated fluctuation ratios",
    )
    crt.add_argument("--out", help="write the table to a CSV file as well")

    gen = sub.add_parser("gen-trace", help="write a synthetic trace as CSV files")
    _add_settings(gen, "seed", "pmin", "pmax", "horizon", "wind_capacity")
    gen.add_argument("--out-prefix", default="trace", help="writes <prefix>-price.csv/-wind.csv")

    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict, dict]:
    """Every setting's value (default < config file < flag) and those the file or a flag sets"""
    given = load_config_file(args.config) if args.config else {}
    given |= {key: flag for key, flag in vars(args).items() if key in SETTINGS and flag is not None}
    return {name: setting.default for name, setting in SETTINGS.items()} | given, given


def _experiment_config(values: dict) -> ExperimentConfig:
    """The experiment of the resolved settings: what simulate, compare and
    gen-trace draw their traces from and quantize the oracle by."""
    bounds = PriceBounds(values["pmin"], values["pmax"])
    spec = StorageSpec(
        values["capacity"],
        values["charge_rate"],
        values["discharge_rate"],
        values["initial_level"],
    )
    return ExperimentConfig(
        runs=values["runs"], horizon=values["horizon"], seed=values["seed"], bounds=bounds,
        spec=spec, penalty=PenaltyParams(values["alpha1"], values["alpha2"]),
        offers=values["offers"], e_max=values["emax"], disc_levels=values["levels"],
        wind_capacity=values["wind_capacity"],
    )  # fmt: skip


def _parse_list(flag: str, text: str, cast: type = float) -> list | range:
    """A comma-separated list, or for integers also an inclusive 'lo-hi'
    range, kept lazy; raises ValidationError when it is malformed or empty."""
    try:
        if cast is int and "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            values = range(int(lo), int(hi) + 1)
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
    values, given = _resolve(args)
    if args.offers is not None and args.strategy not in ("ocsmb", "mocsmb"):
        raise ValidationError(f"--offers is read only by ocsmb and mocsmb, not {args.strategy}")
    # bounds count only when a flag or the config file sets them;
    # otherwise the trace's observed range sets them and clips nothing
    explicit = bool({"pmin", "pmax"} & given.keys())
    if args.clip_prices and not (args.price_csv and explicit):
        raise ValidationError("--clip-prices is read only with --price-csv and --pmin or --pmax")
    if args.price_csv or args.wind_csv:
        if not (args.price_csv and args.wind_csv):
            raise ValidationError("--price-csv and --wind-csv must be given together")
        if args.seed is not None or args.horizon is not None:  # a config file's are compare's
            raise ValidationError("--seed and --horizon are not read with --price-csv/--wind-csv")
        if args.emax is not None and args.strategy != "mocsmb":  # nothing is drawn from a CSV
            raise ValidationError("--emax is read with --price-csv/--wind-csv only by mocsmb")
        bounds = PriceBounds(values["pmin"], values["pmax"]) if explicit else None
        trace, bounds = load_trace(args.price_csv, args.wind_csv, bounds, args.clip_prices)
        # the threshold curve is checked over the bounds the trace is played in
        cfg = _experiment_config(values | {"pmin": bounds.p_min, "pmax": bounds.p_max})
        predicted = trace.outputs
    else:
        # run 0 of compare with the same settings: the forecast and its
        # realization, drawn once the oracle's work guard lets it run
        cfg = _experiment_config(values)
        check_dp_cells(cfg.horizon, cfg.disc)
        trace, predicted = draw_instance(cfg, 0)

    # the oracle first, so that its guard fires before the strategy runs
    opt = offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit
    strategy = STRATEGIES[args.strategy](cfg.strategy, predicted)
    result = simulate_run(trace, cfg.spec, cfg.penalty, strategy)
    ratio = float(profit_ratios(opt, result.total_profit))
    out = {
        "strategy": args.strategy,
        "horizon": trace.horizon,
        "profit": result.total_profit,
        "offline_profit": opt,
        "empirical_cr": ratio_json(ratio),
    }
    if args.slots:
        keys = (
            "commitment", "over_commitment", "charge", "discharge", "net_profit", "storage_after"
        )
        out["slots"] = [dict(zip(keys, row)) for row in result.rows]
    _emit(json.dumps(out, indent=2), args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    values, _given = _resolve(args)
    cfg = _experiment_config(values)
    if args.sweep_offers:
        if args.offers is not None:  # a config file's is the plain comparison's
            raise ValidationError("--offers is not read by --sweep-offers, which sets the counts")
        counts = _parse_list("--sweep-offers", args.sweep_offers, int)
        rows = run_offer_sweep(cfg, counts, parallel=args.parallel)
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
    """The column form of the strategy to search and the ratio bound it is
    known to meet, or None."""
    if args.threshold is not None and args.strategy != "const":
        raise ValidationError(f"--threshold is read only by --strategy const, not {args.strategy}")
    if args.offers is not None and args.strategy != "ocsmb":  # a config file's is compare's
        raise ValidationError(f"--offers is read only by --strategy ocsmb, not {args.strategy}")
    if args.strategy in STRATEGIES:
        cfg = StrategyConfig(bounds, spec, offers=values["offers"])
        if args.strategy == "socs":
            return socs_columns(cfg), cfg.policy.cr_value
        return scalar_columns(STRATEGIES[args.strategy](cfg, ())), None
    if args.strategy == "gmin":
        return scalar_columns(fixed_threshold_strategy(bounds.p_min, spec)), bounds.theta
    if args.threshold is None:
        return scalar_columns(fonline_strategy(bounds, spec)), None
    if not bounds.p_min < args.threshold <= bounds.p_max:
        raise ValidationError(f"const threshold {args.threshold} must lie in (p_min, p_max]")
    return scalar_columns(fixed_threshold_strategy(args.threshold, spec)), None


def _cmd_adversary(args: argparse.Namespace) -> int:
    # rate limits off unless a flag or the config file sets them: the
    # worst-case guarantees are stated for rate-unconstrained storage, so
    # the grid certifies that regime by default
    values, given = _resolve(args)
    bounds = PriceBounds(values["pmin"], values["pmax"])
    capacity = values["capacity"]
    spec = StorageSpec(
        capacity,
        given.get("charge_rate", capacity),
        given.get("discharge_rate", capacity),
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
    report = adversarial_search(grid, strategy, spec)
    _emit(json.dumps(_worst_case_json(report, bound), indent=2), args.out)
    return EXIT_OK


def _worst_case_json(report, bound: float | None) -> dict:
    return {
        "instances": report.instances,
        "max_ratio": ratio_json(report.max_ratio),
        "theoretical_bound": bound,
        "bucket_ratios": {  # as %g where that reads back as the level
            (f"{z:g}" if float(f"{z:g}") == z else repr(z)): ratio_json(r)
            for z, r in report.bucket_ratios.items()
        },
        "argmax_instance": {
            "prices": list(report.argmax_instance.prices),
            "outputs": list(report.argmax_instance.outputs),
        },
    }


def _cmd_cr_table(args: argparse.Namespace) -> int:
    lines = ["theta,cr"]
    for theta in _parse_list("--theta", args.theta):
        lines.append(f"{theta:g},{theoretical_cr(theta):.2f}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    values, _given = _resolve(args)
    # the realized trace that synthetic simulate plays, run 0 of compare
    trace, _predicted = draw_instance(_experiment_config(values), 0)
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
    try:
        args = build_parser().parse_args(argv)
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
    except (OSError, BrokenExecutor) as exc:  # a parallel run's worker that died
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
