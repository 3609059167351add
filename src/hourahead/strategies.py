"""Offering strategies: threshold-based sellers and the simple baselines.

Each factory returns the strategy itself: a per-slot callback for
``simulate_run`` that binds the run's constants once (``socs_columns`` is
socs over numpy columns of states, for the worst-case search).  The three
threshold strategies share the same curve:

* ``socs_strategy``   - next-slot price and output are both known; submits a
  single offer at the clearing price.
* ``ocsmb_strategy``  - price unknown; hedges by laddering the sellable energy
  over m offers priced along the threshold curve.
* ``mocsmb_strategy`` - output known only within a relative error band; runs
  the ladder on the conservative low end of the band so a short output can
  never leave a commitment unfilled.

Baselines: a fixed-threshold seller (``fonline_strategy``) and the no-storage
clairvoyant total (``nostorage_profit``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter, sub
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .market import (
    EMPTY_BOOK,
    ColumnStrategy,
    OfferBook,
    OfferStrategy,
    PriceBounds,
    StorageSpec,
    Trace,
)
from .policy import ThresholdPolicy


# work guard: offers per slot, each a rung the laddered strategies build
MAX_OFFERS = 10_000
DEFAULT_OFFERS = 10  # when no offer count is given


@dataclass(frozen=True)
class StrategyConfig:
    """Price bounds, storage, and the knobs of the laddered strategies; the
    threshold curve ``policy`` is built from them, over the storage capacity."""

    bounds: PriceBounds
    spec: StorageSpec
    offers: int = DEFAULT_OFFERS  # max offers per slot (m); 1 means the floor offer only
    e_max: float = 0.0  # output forecast error bound, < 0.5
    policy: ThresholdPolicy = field(init=False)

    def __post_init__(self):
        if not 1 <= self.offers <= MAX_OFFERS:
            raise ValidationError(f"offer count must be in [1, {MAX_OFFERS}], got {self.offers}")
        if not 0.0 <= self.e_max < 0.5:
            raise ValidationError(f"e_max must be in [0, 0.5), got {self.e_max}")
        object.__setattr__(self, "policy", ThresholdPolicy.build(self.bounds, self.spec.capacity))


class Ladder(tuple):
    """The ocsmb offer book in closed form: a floor offer of ``floor_volume``
    at p_min (when positive), then ``rungs`` slices cum_i - cum_{i-1} of
    ``span``, where cum_i = span * (i / rungs) and rung i is priced at
    g(max(top - cum_i, 0)).  Rung prices never fall as i grows, so a
    clearing price commits a prefix of the book: ``settle`` guesses its
    length k from one ``eval_g_inverse``, prices the edge rungs with ``eval_g``
    only where rounding could move k (see the policy's ``_z_tol``), and sums
    the prefix in book order (cum_k with no floor), bit for bit what settling
    the materialized book (``prices``, ``volumes``) gives.

    Built as the tuple of its five fields, so it costs what that tuple costs
    plus its checks; ``len`` counts offers, as for ``OfferBook``."""

    __slots__ = ()
    policy, floor_volume, span, top, rungs = (property(itemgetter(i)) for i in range(5))

    def __new__(cls, policy, floor_volume: float, span: float, top: float, rungs: int):
        if not (floor_volume >= 0.0 and span >= 0.0 and 0 <= rungs <= MAX_OFFERS
                and (span > 0.0 or not rungs)):  # fmt: skip
            raise ValidationError(
                f"ladder needs floor volume and span >= 0 and 0 to {MAX_OFFERS} rungs over a "
                f"positive span, got {floor_volume}, {span}, {rungs}"
            )
        return tuple.__new__(cls, (policy, floor_volume, span, top, rungs))

    def _rung_price(self, i: int) -> float:
        pol, _floor, span, top, rungs = self
        z = top - span * (i / rungs)
        return pol.eval_g(0.0 if z < 0.0 else z)  # max(z, 0.0), as in market.simulate_run

    @property
    def prices(self) -> tuple[float, ...]:
        floor = (self.policy.bounds.p_min,) if self.floor_volume > 0.0 else ()
        return floor + tuple(map(self._rung_price, range(1, self.rungs + 1)))

    @property
    def volumes(self) -> tuple[float, ...]:
        _pol, floor, span, _top, rungs = self
        cums = [span * (i / rungs) for i in range(1, rungs + 1)]
        return ((floor,) if floor > 0.0 else ()) + tuple(map(sub, cums, [0.0, *cums]))

    def __len__(self) -> int:
        return (self.floor_volume > 0.0) + self.rungs

    @property
    def total_volume(self) -> float:
        return sum(self.volumes, 0.0)

    def settle(self, price: float) -> float:
        """Commitment volume: the floor and the rungs priced at or below
        `price`, added up in book order from 0.0 as ``OfferBook.settle`` does."""
        pol, floor, span, top, rungs = self
        bounds = pol.bounds
        if price < bounds.p_min:
            return 0.0
        k = rungs
        certified = False
        if rungs and price <= bounds.p_max:  # rung i commits iff top - cum_i >= g^-1(price)
            level = pol.eval_g_inverse(price)
            guess = (top - level) / span * rungs
            k = rungs if guess >= rungs else int(guess) if guess > 0.0 else 0
            # rounding moves no rung across g^-1(price) from further than _z_tol
            tol = pol._z_tol
            margin = tol / span * rungs
            certified = (level > tol and 0.0 <= top <= pol.capacity
                         and (not k or guess - k > margin)
                         and (k == rungs or k + 1 - guess > margin))  # fmt: skip
        if not certified:  # price the edge rungs, written out as in _rung_price
            eval_g = pol.eval_g
            while k < rungs:
                z = top - span * ((k + 1) / rungs)
                if eval_g(0.0 if z < 0.0 else z) > price:
                    break
                k += 1
            while k:
                z = top - span * (k / rungs)
                if eval_g(0.0 if z < 0.0 else z) <= price:
                    break
                k -= 1
        if not floor > 0.0:  # each cum_i - cum_{i-1} is exact (Sterbenz), so the sum is cum_k
            return span * (k / rungs) if k else 0.0
        total = floor
        sold = 0.0
        for i in range(1, k + 1):
            cum = span * (i / rungs)
            total += cum - sold
            sold = cum
        return total


def socs_strategy(cfg: StrategyConfig) -> OfferStrategy:
    """Single offer for the known-price, known-output setting.

    The candidate price is the threshold at the post-charge level
    min(level + output, capacity).  If the market beats it, sell down to the
    level where the threshold matches the clearing price (never retaining
    more than the storage can hold after charging); otherwise sell only the
    surplus that cannot be charged.  The volume is capped at what is
    physically deliverable, so the commitment can always be met.
    """
    pol, spec = cfg.policy, cfg.spec
    eval_g, eval_g_inverse = pol.eval_g, pol.eval_g_inverse
    capacity, rate_c, rate_d = spec.capacity, spec.charge_rate, spec.discharge_rate

    def socs(t: int, price: float, output: float, level: float) -> OfferBook:
        # each min and max is a conditional that picks the operand the builtin
        # picks, signed zeros included, as in market.simulate_run
        stock = level + output
        if eval_g(capacity if capacity < stock else stock) > price:
            volume = output - rate_c
        else:
            # the level kept: the threshold level of the price, at most level + r_c
            kept = eval_g_inverse(price)
            reach = level + rate_c
            volume = stock - (reach if reach < kept else kept)
        deliverable = output + (rate_d if rate_d < level else level)
        volume = deliverable if deliverable < volume else volume
        volume = 0.0 if volume < 0.0 else volume
        if volume == 0.0:
            return EMPTY_BOOK
        return OfferBook((price,), (volume,))

    return socs


def _at_distinct(f, values: np.ndarray) -> np.ndarray:
    """f of each element, called once per distinct bit pattern in order of
    first appearance, so a raise is the one an element-wise loop meets first."""
    flat = values.ravel()
    _bits, first, inverse = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    order = np.argsort(first)
    out = np.empty(len(first))
    out[order] = [f(v) for v in flat[first[order]].tolist()]
    return out[inverse].reshape(values.shape)


def socs_columns(cfg: StrategyConfig) -> ColumnStrategy:
    """``socs_strategy(cfg)`` followed by ``settle(price)`` over numpy columns,
    bit for bit: the callback's expressions with each conditional an
    ``np.where``, and ``eval_g`` and ``eval_g_inverse`` called once per
    distinct argument, raising where the callback would (numpy's exp and
    log differ from ``math``'s in the last bits)."""
    pol, spec = cfg.policy, cfg.spec
    p_min = cfg.bounds.p_min
    capacity, rate_c, rate_d = spec.capacity, spec.charge_rate, spec.discharge_rate

    def socs(t: int, prices, outputs, levels) -> np.ndarray:
        stock = levels + outputs
        hold = _at_distinct(pol.eval_g, np.where(capacity < stock, capacity, stock)) > prices
        # a holding state inverts p_min, which never raises, in place of its price
        kept = _at_distinct(pol.eval_g_inverse, np.where(hold, p_min, prices))
        reach = levels + rate_c
        volume = np.where(hold, outputs - rate_c, stock - np.where(reach < kept, reach, kept))
        deliverable = outputs + np.where(rate_d < levels, rate_d, levels)
        volume = np.where(deliverable < volume, deliverable, volume)
        return np.where(volume > 0.0, volume, 0.0)  # an empty book settles to 0.0

    return socs


def ocsmb_strategy(cfg: StrategyConfig) -> OfferStrategy:
    """Offer ladder for the unknown-price setting.

    Energy that should be sold at any price goes into one offer at p_min:
    the spill above the threshold level when the (chargeable) supply pushes
    past it, or else the surplus the charger cannot absorb.  The rest of the
    deliverable energy is split into m-1 equal slices priced along the
    threshold curve, so higher clearing prices unlock deeper slices.  The
    book never exceeds deliverable energy, hence an exact-output run never
    over-commits.  The clearing price is ignored: the book is fixed before
    settlement.
    """
    pol, spec, rungs = cfg.policy, cfg.spec, cfg.offers - 1
    c_th, rate_c, rate_d = pol.c_th, spec.charge_rate, spec.discharge_rate

    def ocsmb(t: int, price: float, output: float, level: float) -> Ladder:
        # each min and max written out as in market.simulate_run
        deliverable = output + (rate_d if rate_d < level else level)
        if (rate_c if rate_c < output else output) + level > c_th:
            floor_volume = output + level - c_th
            floor_volume = deliverable if deliverable < floor_volume else floor_volume
            span = output + rate_d if output + rate_d < c_th else c_th
            span = deliverable - floor_volume if deliverable - floor_volume < span else span
            top = c_th
        else:
            floor_volume = 0.0 if output < rate_c else output - rate_c
            span = deliverable - floor_volume
            top = level + output - floor_volume
        return Ladder(pol, floor_volume, span, top, rungs if span > 0.0 else 0)

    return ocsmb


def mocsmb_strategy(cfg: StrategyConfig, predicted: Sequence[float]) -> OfferStrategy:
    """The ocsmb ladder fed with the low end (1 - e_max) * predicted[t] of the
    output forecast band; it never sees the realized output."""
    ocsmb = ocsmb_strategy(cfg)
    low = [(1.0 - cfg.e_max) * u for u in predicted]
    return lambda t, price, output, level: ocsmb(t, price, low[t], level)


def fonline_strategy(bounds: PriceBounds, spec: StorageSpec) -> OfferStrategy:
    # storage-level-oblivious baseline: everything at the geometric mean of the
    # bounds, written p_min * sqrt(theta) so that no product under- or overflows
    return fixed_threshold_strategy(bounds.p_min * math.sqrt(bounds.theta), spec)


def fixed_threshold_strategy(threshold: float, spec: StorageSpec) -> OfferStrategy:
    """Offer all deliverable energy at one fixed price (min spelled as in simulate_run)."""
    rate_d = spec.discharge_rate

    def fixed_threshold(t: int, price: float, output: float, level: float) -> OfferBook:
        available = output + (rate_d if rate_d < level else level)
        if available <= 0.0:
            return EMPTY_BOOK
        return OfferBook((threshold,), (available,))

    return fixed_threshold


def nostorage_profit(trace: Trace) -> float:
    """Clairvoyant optimum without storage: sell the full output every slot."""
    return sum(p * u for p, u in zip(trace.prices, trace.outputs))
