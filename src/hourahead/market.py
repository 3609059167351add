"""Hour-ahead market: the slot rule, storage dynamics, and profit accounting.

The producer submits an offer book (a ``strategies.OfferBook``, which
settles itself) before each one-hour slot.  Offers whose price is at or
below the clearing price become a binding commitment; energy the producer
cannot deliver (beyond renewable output plus what the storage can
discharge) is the over-commitment and is penalized per MWh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class PriceBounds:
    """Clearing-price envelope [p_min, p_max]."""

    p_min: float
    p_max: float

    def __post_init__(self):
        if not 0.0 < self.p_min <= self.p_max < math.inf:
            raise ValidationError(
                f"price bounds must satisfy 0 < p_min <= p_max < inf, got "
                f"[{self.p_min}, {self.p_max}]"
            )
        if not math.isfinite(self.theta):
            raise ValidationError(
                f"price ratio p_max / p_min = {self.p_max} / {self.p_min} is not finite"
            )

    @property
    def theta(self) -> float:
        """Price fluctuation ratio p_max / p_min (>= 1)."""
        return self.p_max / self.p_min


@dataclass(frozen=True)
class Trace:
    """An input instance: the clearing price and renewable output per slot,
    as two equal-length tuples of floats."""

    prices: tuple[float, ...]
    outputs: tuple[float, ...]

    def __post_init__(self):
        prices = tuple(map(float, self.prices))
        outputs = tuple(map(float, self.outputs))
        if len(prices) != len(outputs):
            raise ValidationError(
                f"price series has {len(prices)} entries but output series has "
                f"{len(outputs)}"
            )
        if not prices:
            raise ValidationError("a trace needs at least one slot")
        if not all(map(math.isfinite, prices + outputs)):
            raise ValidationError("prices and renewable outputs must be finite")
        if min(prices) <= 0.0:
            raise ValidationError(f"price must be positive, got {min(prices)}")
        if min(outputs) < 0.0:
            raise ValidationError(f"renewable output must be non-negative, got {min(outputs)}")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "outputs", outputs)

    @property
    def horizon(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class StorageSpec:
    """Storage capacity, rate limits, and the level at the first slot."""

    capacity: float
    charge_rate: float
    discharge_rate: float
    initial_level: float | None = None  # None means full

    def __post_init__(self):
        if not 0.0 < self.capacity < math.inf:
            raise ValidationError(f"capacity must be positive and finite, got {self.capacity}")
        if not (0.0 <= self.charge_rate < math.inf and 0.0 <= self.discharge_rate < math.inf):
            raise ValidationError(
                f"charge/discharge rates must be non-negative and finite, got "
                f"{self.charge_rate}/{self.discharge_rate}"
            )
        if self.initial_level is None:
            object.__setattr__(self, "initial_level", self.capacity)
        if not 0.0 <= self.initial_level <= self.capacity:
            raise ValidationError(
                f"initial level {self.initial_level} outside [0, {self.capacity}]"
            )


@dataclass(frozen=True)
class PenaltyParams:
    """Over-commitment penalty alpha1 * p(t) + alpha2 per MWh undelivered."""

    alpha1: float = 1.2
    alpha2: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha1 < math.inf and 0.0 <= self.alpha2 < math.inf):
            raise ValidationError("penalty coefficients must be non-negative and finite")


@dataclass(frozen=True)
class RunResult:
    """The per-slot rows of a full simulation plus the accumulated profit.

    Row t is slot t's (commitment, over-commitment, charge, discharge, net
    profit, storage level after the slot); the over-commitment is the part of
    the commitment that could not be delivered.
    """

    rows: tuple[tuple[float, float, float, float, float, float], ...]
    total_profit: float


# A strategy maps (slot index, clearing price, renewable output, storage level)
# to an offer book, a ``strategies.OfferBook``: the protocol every book keeps
# is ``settle(price)``, the volume the clearing price commits, ``len``, its
# count of offers, and ``total_volume``, its settle at an infinite price.
# Strategies that must act before the price is revealed simply ignore the
# price argument.  A callback must be a pure function of those four
# arguments: the adversary calls it only through ``scalar_columns``, once per
# distinct (slot, price, output, level), and reuses the commitment for every
# instance that reaches that state.
OfferStrategy = Callable[[int, float, float, float], "OfferBook"]
# A strategy's column form maps (slot index, prices, outputs, levels), numpy
# columns that broadcast together, to the commitment of each state: what the
# callback's book settles to at the state's price.
ColumnStrategy = Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def settle_offer(book: "OfferBook", clearing_price: float) -> float:
    """Commitment volume of `book` at `clearing_price`."""
    return book.settle(clearing_price)


def scalar_columns(strategy: OfferStrategy) -> ColumnStrategy:
    """The column form of a callback: one call and one ``settle`` per state,
    in row-major order of the broadcast columns, as ``simulate_run`` settles."""

    def columns(t: int, prices, outputs, levels) -> np.ndarray:
        cols = np.broadcast_arrays(prices, outputs, levels)
        p, u, z = (col.ravel().tolist() for col in cols)
        x = [strategy(t, *state).settle(state[0]) for state in zip(p, u, z)]
        return np.array(x, dtype=float).reshape(cols[0].shape)

    return columns


def play_columns(x, spec: StorageSpec, penalty: PenaltyParams, prices, u, level) -> tuple:
    """The slot rule of ``simulate_run`` over numpy columns of commitments,
    prices, outputs and levels that broadcast together: returns the
    (over-commitment, charge, discharge, net profit, next level) columns, bit
    for bit, each conditional an ``np.where`` that picks the operand
    ``simulate_run`` picks."""
    rate_d, rate_c, capacity = spec.discharge_rate, spec.charge_rate, spec.capacity
    deliverable = u + np.where(rate_d < level, rate_d, level)
    over = np.where(x < deliverable, 0.0, x - deliverable)
    delivered = np.where(deliverable < x, deliverable, x)
    charge = np.where(u < delivered, 0.0, u - delivered)
    charge = np.where(charge < rate_c, charge, rate_c)
    discharge = np.where(delivered < u, 0.0, delivered - u)
    discharge = np.where(discharge < rate_d, discharge, rate_d)
    discharge = np.where(level < discharge, level, discharge)
    # at most the level discharges, so only the capacity clips the next level
    next_level = level + charge - discharge
    next_level = np.where(capacity < next_level, capacity, next_level)
    revenue, rate = prices * x, penalty.alpha1 * prices + penalty.alpha2
    profit = np.where(over > 0.0, revenue - rate * over, revenue)
    return over, charge, discharge, profit, next_level


def simulate_run(
    trace: Trace,
    spec: StorageSpec,
    penalty: PenaltyParams,
    strategy: OfferStrategy,
) -> RunResult:
    """Drive a strategy over a trace and accumulate the net profit.  Each slot
    settles the book offered at the level the slot before left, delivers at
    most output plus dischargeable storage, and evolves the storage on the
    delivered energy.  Pure: identical inputs give identical results."""
    rate_d, rate_c, capacity = spec.discharge_rate, spec.charge_rate, spec.capacity
    alpha1, alpha2 = penalty.alpha1, penalty.alpha2
    # the zero a surplus discharges and a deficit charges: min(rate, 0.0)
    zero_d = 0.0 if 0.0 < rate_d else rate_d
    zero_c = 0.0 if 0.0 < rate_c else rate_c
    level = spec.initial_level
    rows = []
    total = 0.0
    for t, (price, u) in enumerate(zip(trace.prices, trace.outputs)):
        x = strategy(t, price, u, level).settle(price)
        # each min and max is written out as a conditional that picks the
        # operand the builtin picks, signed zeros included, without the
        # builtin's call cost: min(a, b) is b if b < a else a, and
        # max(a - b, 0.0) is 0.0 if a < b else a - b; each branch below
        # computes only what its regime leaves non-trivial
        deliverable = u + (rate_d if rate_d < level else level)
        if x < deliverable:  # no over-commitment
            over, delivered, profit = 0.0, x, price * x
        else:  # a penalty only on what is undelivered: an infinite rate times 0.0 is NaN
            over = x - deliverable
            delivered = deliverable if deliverable < x else x
            profit = price * x - (alpha1 * price + alpha2) * over if over > 0.0 else price * x
        if u < delivered:  # a deficit discharges up to the discharge rate and the level
            charge = zero_c
            discharge = delivered - u
            discharge = discharge if discharge < rate_d else rate_d
            discharge = level if level < discharge else discharge
            next_level = level + charge - discharge  # within [0, level]
        else:  # surplus output charges up to the charge rate, spills beyond capacity
            # delivered == u falls here too: delivered - u is then +0.0, whose
            # min with the rates is zero_d, since no settle returns -0.0 or NaN
            charge = u - delivered
            charge = charge if charge < rate_c else rate_c
            discharge = zero_d
            next_level = level + charge - discharge
            next_level = capacity if capacity < next_level else next_level
        total += profit
        rows.append((x, over, charge, discharge, profit, next_level))
        level = next_level
    return RunResult(tuple(rows), total)
