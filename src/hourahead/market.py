"""Hour-ahead market settlement, storage dynamics, and profit accounting.

The producer submits an offer book before each one-hour slot.  Offers whose
price is at or below the clearing price become a binding commitment; energy
the producer cannot deliver (beyond renewable output plus what the storage
can discharge) is the over-commitment and is penalized per MWh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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

    def rate(self, price: float) -> float:
        return self.alpha1 * price + self.alpha2


@dataclass(frozen=True)
class OfferBook:
    """Offers for one slot as two equal-length tuples: positive prices in
    non-decreasing order and non-negative volumes.  An offer commits iff the
    clearing price reaches its price."""

    prices: tuple[float, ...]
    volumes: tuple[float, ...]

    def __post_init__(self):
        prices, volumes = self.prices, self.volumes
        if len(prices) != len(volumes):
            raise ValidationError(
                f"offer book has {len(prices)} prices but {len(volumes)} volumes"
            )
        if not prices:
            return
        if any(b < a for a, b in zip(prices, prices[1:])):
            raise ValidationError("offer book prices must be non-decreasing")
        if prices[0] <= 0.0:
            raise ValidationError(f"offer price must be positive, got {prices[0]}")
        if min(volumes) < 0.0:
            raise ValidationError(f"offer volume must be non-negative, got {min(volumes)}")

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def total_volume(self) -> float:
        return sum(self.volumes, 0.0)

    def settle(self, price: float) -> float:
        """Commitment volume: total volume of offers priced at or below `price`."""
        return sum((v for p, v in zip(self.prices, self.volumes) if p <= price), 0.0)


EMPTY_BOOK = OfferBook((), ())


@dataclass(frozen=True)
class RunResult:
    """Per-slot columns of a full simulation plus the accumulated profit.

    Slot t committed ``commitments[t]``, of which ``over_commitments[t]``
    could not be delivered, charged ``charges[t]``, discharged
    ``discharges[t]``, earned ``profits[t]`` and left the storage at
    ``levels[t]``.
    """

    commitments: tuple[float, ...]
    over_commitments: tuple[float, ...]
    charges: tuple[float, ...]
    discharges: tuple[float, ...]
    profits: tuple[float, ...]
    levels: tuple[float, ...]
    total_profit: float

    @property
    def horizon(self) -> int:
        return len(self.profits)

    def min_level(self, initial_level: float) -> float:
        return min((initial_level,) + self.levels)


# A strategy maps (slot index, clearing price, renewable output, storage level)
# to an offer book (an ``OfferBook`` or a ``strategies.Ladder``).  Strategies
# that must act before the price is revealed simply ignore the price argument.
# A callback must be a pure function of those four arguments: the adversary
# calls it once per distinct (slot, price, output, level) and reuses the book
# for every instance that reaches that state.
OfferStrategy = Callable[[int, float, float, float], OfferBook]


def settle_offer(book: OfferBook, clearing_price: float) -> float:
    """Commitment volume of `book` at `clearing_price`."""
    return book.settle(clearing_price)


def over_commitment(x: float, u: float, z: float, discharge_rate: float) -> float:
    """Committed volume beyond what output plus discharge can deliver."""
    return max(x - (u + min(z, discharge_rate)), 0.0)


def slot_profit(price: float, x: float, y: float, penalty: PenaltyParams) -> float:
    """Net profit of one slot: sale revenue minus over-commitment penalty."""
    return price * x - penalty.rate(price) * y


def evolve_storage(
    level: float, spec: StorageSpec, u: float, x: float
) -> tuple[float, float, float]:
    """Advance the storage level by one slot.

    Surplus output (u - x) charges up to the charge rate; deficit (x - u)
    discharges up to the discharge rate and the available level.  Charge
    beyond capacity is spilled.  Returns (next_level, charge, discharge).
    """
    charge = min(spec.charge_rate, max(u - x, 0.0))
    discharge = min(spec.discharge_rate, max(x - u, 0.0), level)
    next_level = min(max(level + charge - discharge, 0.0), spec.capacity)
    return next_level, charge, discharge


def play_slot(
    strategy: OfferStrategy,
    spec: StorageSpec,
    penalty: PenaltyParams,
    t: int,
    price: float,
    u: float,
    level: float,
) -> tuple[float, float, float, float, float, float]:
    """Play slot t from storage level `level`: obtain the offer book, settle
    it against the clearing price, compute the over-commitment, cap
    physically delivered energy at output plus dischargeable storage, and
    evolve the storage on the delivered energy.

    Returns (commitment, over-commitment, charge, discharge, net profit,
    next level), one row of ``RunResult``'s columns.
    """
    book = strategy(t, price, u, level)
    x = book.settle(price)
    y = over_commitment(x, u, level, spec.discharge_rate)
    delivered = min(x, u + min(level, spec.discharge_rate))
    next_level, charge, discharge = evolve_storage(level, spec, u, delivered)
    return x, y, charge, discharge, slot_profit(price, x, y, penalty), next_level


def simulate_run(
    trace: Trace,
    spec: StorageSpec,
    penalty: PenaltyParams,
    strategy: OfferStrategy,
) -> RunResult:
    """Drive a strategy over a trace, playing every slot with ``play_slot``
    and accumulating the net profit.  Pure: identical inputs give identical
    results.
    """
    level = spec.initial_level
    rows = []
    total = 0.0
    for t, (price, u) in enumerate(zip(trace.prices, trace.outputs)):
        row = play_slot(strategy, spec, penalty, t, price, u, level)
        total += row[4]
        level = row[5]
        rows.append(row)
    return RunResult(*zip(*rows), total)
