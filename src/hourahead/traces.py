"""Trace ingestion from CSV files and seeded synthetic generation.

File formats (hourly, aligned timestamps):

* price CSV: header ``timestamp,price``; ISO-8601 timestamps, each one
  hour after the one before, price in currency/MWh.
* wind CSV:  header ``timestamp,wind_mw``; same timestamp grid, decimal MW
  (slot energy in MWh equals MW x 1 h).
"""
from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TraceParseError, ValidationError
from .market import PriceBounds, Trace


# the sign each series' values must have: (test, what the error says)
_SIGNS = {"price": (lambda v: v > 0.0, "positive"), "wind_mw": (lambda v: v >= 0.0, "non-negative")}


def _csv_rows(path: Path) -> Iterator[list[str]]:
    """The rows of a UTF-8 CSV file, after a byte-order mark if it has one; a
    byte that is not UTF-8, or a row the csv module refuses (a field over its
    size limit, say), is a TraceParseError."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the bytes after the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise TraceParseError(f"{path}:{line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise TraceParseError(f"{path}:{reader.line_num}: {exc}") from None


def _read_series(path: str | Path, value_column: str) -> list[tuple[int, str, datetime, float]]:
    """The (line number, timestamp text, parsed timestamp, value) of each data
    row; blank lines are skipped."""
    path = Path(path)
    has_sign, sign = _SIGNS[value_column]
    rows: list[tuple[int, str, datetime, float]] = []
    reader = _csv_rows(path)
    header = next(reader, None)
    if header != ["timestamp", value_column]:
        raise TraceParseError(f"{path}:1: expected header 'timestamp,{value_column}', got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise TraceParseError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        stamp, raw = row
        try:
            when = datetime.fromisoformat(stamp)
        except ValueError:
            raise TraceParseError(
                f"{path}:{lineno}: invalid ISO-8601 timestamp {stamp!r}"
            ) from None
        try:
            value = float(raw)
        except ValueError:
            raise TraceParseError(
                f"{path}:{lineno}: invalid {value_column} value {raw!r}"
            ) from None
        if math.isnan(value) or math.isinf(value):
            raise TraceParseError(f"{path}:{lineno}: non-finite {value_column} value")
        if not has_sign(value):
            raise ValidationError(f"{path}:{lineno}: {value_column} must be {sign}, got {value}")
        rows.append((lineno, stamp, when, value))
    if not rows:
        raise TraceParseError(f"{path}: no data rows")
    return rows


def load_trace(
    price_path: str | Path,
    wind_path: str | Path,
    bounds: PriceBounds | None = None,
    clip: bool = False,
) -> tuple[Trace, PriceBounds]:
    """Load aligned hourly price and wind series.

    With explicit `bounds`, prices outside them fail (or are clipped when
    `clip` is set).  Without bounds, they are derived from the observed
    price range.  Errors name the offending file and line.
    """
    price_rows = _read_series(price_path, "price")
    wind_rows = _read_series(wind_path, "wind_mw")
    if len(price_rows) != len(wind_rows):
        raise TraceParseError(
            f"misaligned series: {len(price_rows)} price rows vs {len(wind_rows)} wind rows"
        )
    check_bounds = bounds is not None and not clip
    previous = None
    for (line, stamp, when, p), (wind_line, wind_stamp, *_) in zip(price_rows, wind_rows):
        if stamp != wind_stamp:
            raise TraceParseError(
                f"{wind_path}:{wind_line}: timestamp {wind_stamp!r} does not match "
                f"{price_path}:{line}, which has {stamp!r}"
            )
        # each row is played as the next one-hour slot, so rows must be one
        # hour apart; a naive and an offset timestamp do not subtract
        if previous and (when.tzinfo is None) != (previous.tzinfo is None):
            raise TraceParseError(f"{price_path}:{line}: {stamp!r} mixes naive and offset times")
        if previous and when - previous != timedelta(hours=1):
            raise TraceParseError(
                f"{price_path}:{line}: {stamp!r} is not one hour after the row before"
            )
        previous = when
        if check_bounds and not bounds.p_min <= p <= bounds.p_max:
            raise ValidationError(
                f"{price_path}:{line}: price {p} outside bounds "
                f"[{bounds.p_min}, {bounds.p_max}] and clipping is off"
            )
    prices = [p for *_, p in price_rows]
    winds = [w for *_, w in wind_rows]
    if bounds is None:
        bounds = PriceBounds(min(prices), max(prices))
    elif clip:
        prices = [min(max(p, bounds.p_min), bounds.p_max) for p in prices]
    return Trace(prices, winds), bounds


# shape of the synthetic price walk and wind process
PRICE_SIGMA = 0.15  # log-price random-walk step
WIND_MEAN_FRAC = 0.4  # long-run wind mean as a fraction of capacity
WIND_PHI = 0.85  # mean-reversion coefficient
WIND_SIGMA_FRAC = 0.12  # innovation scale as a fraction of capacity
DEFAULT_WIND_CAPACITY = 10.0  # MW, when no wind capacity is given
# longest synthetic trace; checked before anything is drawn
MAX_HORIZON = 10**6


def check_horizon(horizon: int) -> None:
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValidationError(f"horizon must be in [1, {MAX_HORIZON}], got {horizon}")


def check_error_bound(e_max: float) -> None:
    if not 0.0 <= e_max < 0.5:
        raise ValidationError(f"e_max must be in [0, 0.5), got {e_max}")


def check_wind_capacity(wind_capacity: float) -> None:
    if not 0.0 <= wind_capacity < math.inf:
        raise ValidationError(f"wind capacity must be non-negative and finite, got {wind_capacity}")


def synthesize(
    rng: np.random.Generator,
    horizon: int,
    bounds: PriceBounds,
    wind_capacity: float = DEFAULT_WIND_CAPACITY,
) -> Trace:
    """Draw one synthetic trace from an already-seeded generator.

    Prices follow a log random walk reflected into [p_min, p_max]; wind is a
    mean-reverting first-order autoregressive process clipped to
    [0, wind_capacity].  Raises ValidationError for a horizon outside
    [1, MAX_HORIZON].
    """
    check_horizon(horizon)
    check_wind_capacity(wind_capacity)
    p_min, p_max = bounds.p_min, bounds.p_max
    lo, hi = math.log(p_min), math.log(p_max)
    x = rng.uniform(lo, hi)
    price_steps = rng.standard_normal(horizon)
    prices = []
    # each clip min(max(a, lo), hi) is a conditional that picks the operand
    # the builtins pick (as lo <= hi), without their call cost
    for step in price_steps.tolist():
        x += PRICE_SIGMA * step
        x = hi if hi < x else (lo if x < lo else x)
        price = math.exp(x)
        prices.append(p_max if p_max < price else (p_min if price < p_min else price))

    mean = WIND_MEAN_FRAC * wind_capacity
    sigma = WIND_SIGMA_FRAC * wind_capacity
    wind_steps = rng.standard_normal(horizon)
    w = mean
    winds = []
    for step in wind_steps.tolist():
        w = mean + WIND_PHI * (w - mean) + sigma * step
        w = wind_capacity if wind_capacity < w else (0.0 if w < 0.0 else w)
        winds.append(w)
    return Trace(prices, winds)


def realize_outputs(
    rng: np.random.Generator, predicted: Sequence[float], error_bound: float
) -> tuple[float, ...]:
    """Draw realized outputs uniformly within the relative error band.

    Each realized value lies in [(1-e) * predicted, (1+e) * predicted].  A
    zero bound reproduces the prediction exactly while consuming the same
    number of draws, so changing the bound never shifts the stream.
    """
    check_error_bound(error_bound)
    factors = 1.0 + error_bound * rng.uniform(-1.0, 1.0, size=len(predicted))
    return tuple(u * f for u, f in zip(predicted, factors.tolist()))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a table as a CSV file: the one writer of every table the package writes."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(trace: Trace, price_path: str | Path, wind_path: str | Path) -> None:
    """Write a trace as the pair of hourly CSV files load_trace accepts, the
    first slot stamped 2015-01-01T00:00."""
    start = datetime(2015, 1, 1)
    stamps = [
        (start + timedelta(hours=i)).isoformat(timespec="minutes") for i in range(trace.horizon)
    ]
    write_csv(price_path, ["timestamp", "price"], zip(stamps, map(repr, trace.prices)))
    write_csv(wind_path, ["timestamp", "wind_mw"], zip(stamps, map(repr, trace.outputs)))
