"""Test-only reference for one market slot: the settlement, over-commitment,
storage step and profit as separate helpers, the slot rule of
``market.simulate_run`` as their composition, and the
``strategies.socs_strategy`` callback, all written with the builtin ``min``
and ``max``, and the settlement of an offer book as an exact sum."""
from __future__ import annotations

import math
from fractions import Fraction

from hourahead import EMPTY_BOOK, OfferBook, PenaltyParams, StorageSpec, StrategyConfig
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
    above, returning the slot's row of ``RunResult``'s columns: settle
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
    volume = max(volume, 0.0)
    if volume == 0.0:
        return EMPTY_BOOK
    return OfferBook((price,), (volume,))


def offer_book_error(prices: tuple[float, ...], volumes: tuple[float, ...]) -> str | None:
    """The message ``OfferBook(prices, volumes)`` raises, or None: its checks
    in their order, written plainly, with no path of their own for one offer
    and each written so that a NaN fails it."""
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


def settle_reference(book: OfferBook, price: float) -> float:
    """``OfferBook.settle`` as the exact ``Fraction`` sum of the volumes priced
    at or below `price`, rounded once; inf where one of them is inf."""
    committed = [v for p, v in zip(book.prices, book.volumes) if p <= price]
    return math.inf if math.inf in committed else rounded(sum(map(Fraction, committed), Fraction()))
