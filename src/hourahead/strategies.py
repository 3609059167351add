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
from operator import itemgetter, mul
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
from .oracle import profit_sum
from .policy import ThresholdPolicy
from .traces import check_error_bound


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
        check_error_bound(self.e_max)
        object.__setattr__(self, "policy", ThresholdPolicy.build(self.bounds, self.spec.capacity))


class Ladder(tuple):
    """The ocsmb offer book in closed form: a floor offer of ``floor_volume``
    at p_min (when positive), then ``rungs`` slices cum_i - cum_{i-1} of
    ``span``, where cum_i = span * (i / rungs) and rung i is priced at
    g(max(top - cum_i, 0)).  Rung prices never fall as i grows, so a
    clearing price commits a prefix of the book: ``settle`` guesses its
    length k from ``eval_g_inverse``'s formula, inlined, prices the edge rungs
    with ``eval_g`` only where rounding could move k (see the policy's
    ``z_tol``), and returns floor + cum_k: every rung is exact (Sterbenz), so
    that is the correctly rounded sum of the prefix.

    The tuple of its five fields; ``ocsmb_strategy`` skips the checking ``__new__``
    where floor and span are >= 0, all its config leaves open; ``len`` counts offers."""

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

    def __len__(self) -> int:
        return (self.floor_volume > 0.0) + self.rungs

    @property
    def total_volume(self) -> float:
        return self.settle(math.inf)  # every rung commits

    def settle(self, price: float) -> float:
        """Commitment volume: the correctly rounded sum of the floor and the
        rungs priced at or below `price`."""
        pol, floor, span, top, rungs = self
        p_min, p_max, c_th, slope, tol, capacity, _z_lo, _z_hi, _c_l, _p_hi = pol._curve
        if price < p_min:
            return 0.0
        k = rungs
        certified = False
        if rungs and price <= p_max:  # rung i commits iff top - cum_i >= g^-1(price)
            level = c_th - slope * math.log(price / p_min)  # eval_g_inverse(price), in its range
            guess = (top - level) / span * rungs
            k = rungs if guess >= rungs else int(guess) if guess > 0.0 else 0
            # rounding moves no rung across g^-1(price) from further than tol
            margin = tol / span * rungs
            certified = (level > tol and 0.0 <= top <= capacity
                         and (not k or guess - k > margin)
                         and (k == rungs or k + 1 - guess > margin))  # fmt: skip
        if not certified:  # price the edge rungs
            while k < rungs and self._rung_price(k + 1) <= price:
                k += 1
            while k and self._rung_price(k) > price:
                k -= 1
        # the rungs cum_i - cum_{i-1} add up to cum_k exactly; + 0.0 turns a -0.0 floor into 0.0
        return floor + (span * (k / rungs) if k else 0.0)


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
    p_min, _p_max, c_th, slope, _tol, capacity, z_lo, z_hi, c_l, p_hi = pol._curve
    rate_c, rate_d = spec.charge_rate, spec.discharge_rate
    exp, log, new = math.exp, math.log, tuple.__new__

    def socs(t: int, price: float, output: float, level: float) -> OfferBook:
        # each min and max is a conditional that picks the operand the builtin
        # picks, signed zeros included, as in market.simulate_run; eval_g and
        # eval_g_inverse are written out behind their range checks, and are
        # called only to raise their errors
        stock = level + output
        z = capacity if capacity < stock else stock
        if not z_lo <= z <= z_hi:  # NaN fails too
            pol.eval_g(z)  # raises
        z = 0.0 if z < 0.0 else z
        if (p_min if z >= c_th else p_min * exp((c_th - z) * c_th / c_l)) > price:
            volume = output - rate_c
        else:
            # the level kept: the threshold level of the price, at most level + r_c
            if not p_min <= price <= p_hi:  # NaN fails too
                pol.eval_g_inverse(price)  # raises
            kept = c_th - slope * log(price / p_min)
            reach = level + rate_c
            volume = stock - (reach if reach < kept else kept)
        deliverable = output + (rate_d if rate_d < level else level)
        volume = deliverable if deliverable < volume else volume
        volume = 0.0 if volume < 0.0 else volume
        if volume == 0.0:
            return EMPTY_BOOK
        if price > 0.0 and volume >= 0.0:  # passes OfferBook's checks, without its frame
            return new(OfferBook, ((price,), (volume,)))
        return OfferBook((price,), (volume,))  # raises

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
    new = tuple.__new__

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
        if floor_volume + span > deliverable:  # span = fl(d - f) > d - f: one float down is not
            span = math.nextafter(span, 0.0)
        if floor_volume >= 0.0 and span >= 0.0:  # Ladder's checks that cfg does not settle
            return new(Ladder, (pol, floor_volume, span, top, rungs if span > 0.0 else 0))
        return Ladder(pol, floor_volume, span, top, rungs if span > 0.0 else 0)  # raises

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
    rate_d, new = spec.discharge_rate, tuple.__new__

    def fixed_threshold(t: int, price: float, output: float, level: float) -> OfferBook:
        available = output + (rate_d if rate_d < level else level)
        if available <= 0.0:
            return EMPTY_BOOK
        if threshold > 0.0 and available >= 0.0:  # passes OfferBook's checks, without its frame
            return new(OfferBook, ((threshold,), (available,)))
        return OfferBook((threshold,), (available,))  # raises

    return fixed_threshold


def nostorage_profit(trace: Trace) -> float:
    """Clairvoyant optimum without storage: sell the full output every slot."""
    return profit_sum(map(mul, trace.prices, trace.outputs))
