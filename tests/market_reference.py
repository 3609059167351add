"""Test-only reference for one market slot: the settlement, over-commitment,
storage step and profit as separate helpers, the slot rule of
``market.simulate_run`` as their composition, and the
``strategies.socs_strategy`` callback, all written with the builtin ``min``
and ``max``; the settlement of an offer book as an exact sum, and a book of
any number of offers, with the offers of a ``strategies.OfferBook`` one by one."""
from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter, sub

from hourahead import (
    OfferBook,
    PenaltyParams,
    StorageSpec,
    StrategyConfig,
    ValidationError,
)
from hourahead.market import OfferStrategy


def over_commitment(x: float, u: float, z: float, discharge_rate: float) -> float:
    """Committed volume beyond what output plus discharge can deliver."""
    return max(x - (u + min(z, discharge_rate)), 0.0)


def slot_profit(price: float, x: float, y: float, penalty: PenaltyParams) -> float:
    """Net profit of one slot: sale revenue minus over-commitment penalty,
    charged only where y > 0.0 (an infinite rate times 0.0 is NaN)."""
    if y > 0.0:
        return price * x - (penalty.alpha1 * price + penalty.alpha2) * y
    return price * x


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


def play_slot_reference(
    strategy: OfferStrategy,
    spec: StorageSpec,
    penalty: PenaltyParams,
    t: int,
    price: float,
    u: float,
    level: float,
) -> tuple[float, float, float, float, float, float]:
    """One slot of ``market.simulate_run`` as the composition of the helpers
    above, returning the slot's row of ``RunResult.rows``: settle
    the book, compute the over-commitment, cap delivery at output plus
    dischargeable storage, and step the storage on the delivered energy."""
    x = strategy(t, price, u, level).settle(price)
    y = over_commitment(x, u, level, spec.discharge_rate)
    delivered = min(x, u + min(level, spec.discharge_rate))
    next_level, charge, discharge = evolve_storage(level, spec, u, delivered)
    return x, y, charge, discharge, slot_profit(price, x, y, penalty), next_level


def socs_offer_reference(cfg: StrategyConfig, price: float, output: float, level: float) -> OfferBook:
    """``strategies.socs_strategy(cfg)``: sell down to the threshold level of the
    price, or only the surplus beyond the charge rate when the threshold at
    the post-charge level beats the price, capped at what is deliverable."""
    pol, spec = cfg.policy, cfg.spec
    p_min = pol.bounds.p_min
    z_plus = min(level + output, pol.capacity)
    candidate = pol.eval_g(z_plus)
    if candidate > price:
        volume = max(output - spec.charge_rate, 0.0)
    elif price <= p_min:
        volume = level + output - min(pol.c_th, level + spec.charge_rate)
    else:
        volume = level + output - min(pol.eval_g_inverse(price), level + spec.charge_rate)
    volume = min(volume, output + min(level, spec.discharge_rate))
    return OfferBook(price, max(volume, 0.0))


def offer_book_error(prices: tuple[float, ...], volumes: tuple[float, ...]) -> str | None:
    """The message ``ReferenceBook(prices, volumes)`` raises, or None: equal
    lengths, prices non-decreasing, a positive price and non-negative
    volumes, written plainly and each so that a NaN fails it."""
    if len(prices) != len(volumes):
        return f"offer book has {len(prices)} prices but {len(volumes)} volumes"
    if any(not a <= b for a, b in zip(prices, prices[1:])):
        return "offer book prices must be non-decreasing"
    if prices and not prices[0] > 0.0:
        return f"offer price must be positive, got {prices[0]}"
    bad = [v for v in volumes if not v >= 0.0]
    return f"offer volume must be non-negative, got {bad[0]}" if bad else None


def rounded(exact: Fraction) -> float:
    """An exact sum rounded once to the nearest float, an infinity past the largest."""
    try:
        return float(exact)  # int / int, correctly rounded
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def settle_reference(book, price: float) -> float:
    """A book's settle as the exact ``Fraction`` sum of the volumes priced at
    or below `price`, rounded once; inf where one of them is inf.  An
    ``OfferBook`` is laid out offer by offer first."""
    prices, volumes = ladder_book(book) if isinstance(book, OfferBook) else book
    committed = [v for p, v in zip(prices, volumes) if p <= price]
    return math.inf if math.inf in committed else rounded(sum(map(Fraction, committed), Fraction()))


class ReferenceBook(tuple):
    """An offer book of any number of offers, as the tuple (prices, volumes):
    ``offer_book_error``'s checks and ``settle_reference``'s exact sum."""

    __slots__ = ()
    prices, volumes = (property(itemgetter(i)) for i in range(2))

    def __new__(cls, prices: tuple[float, ...], volumes: tuple[float, ...]):
        error = offer_book_error(prices, volumes)
        if error is not None:
            raise ValidationError(error)
        return tuple.__new__(cls, (prices, volumes))

    def __len__(self) -> int:
        return len(self[0])

    @property
    def total_volume(self) -> float:
        return self.settle(math.inf)

    def settle(self, price: float) -> float:
        return settle_reference(self, price)


def any_book(prices: tuple[float, ...], volumes: tuple[float, ...]):
    """An ``OfferBook`` of at most one offer, no offer being a zero volume
    (at a price that then does not matter), a ``ReferenceBook`` of more."""
    if len(prices) > 1 or len(prices) != len(volumes):
        return ReferenceBook(prices, volumes)
    return OfferBook(*prices, *volumes) if prices else OfferBook(1.0, 0.0)


def ladder_book(book: OfferBook) -> ReferenceBook:
    """The book offer by offer: a positive floor volume at its price, then
    rung i of volume cum_i - cum_{i-1} at its price; the constructor checks
    that the prices never fall."""
    floor_price, floor, _pol, span, _top, rungs = book
    floored = floor > 0.0
    cums = [span * (i / rungs) for i in range(1, rungs + 1)]
    prices = (floor_price,) * floored + tuple(map(book._rung_price, range(1, rungs + 1)))
    volumes = (floor,) * floored + tuple(map(sub, cums, [0.0, *cums]))
    return ReferenceBook(prices, volumes)
