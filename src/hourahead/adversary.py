"""Worst-case certification: exhaustive search plus step-function numerics.

The search enumerates every (price, supply) trace over a small quantized
grid, measures the clairvoyant-to-strategy profit ratio on each, and
reports the maximum together with the ratio bucketed by the minimum
storage level the strategy reached.  The step-function helpers evaluate
the closed-form local ratio of a discretized threshold curve and the
step lengths that equalize it.

The grid is evaluated with array operations, bit for bit as one
``simulate_run`` and one ``offline_opt_dp`` per instance would (numpy's
float64 + - * / round as Python's floats do):

* The strategy walks the tree of slot-choice prefixes in
  ``itertools.product`` order.  A prefix's state is its storage level, its
  running profit and its running minimum level, and the storage level takes
  few distinct values per slot, so the strategy and ``market.play_slot`` run
  once per (distinct level, slot choice) and numpy gathers the children.
* The oracle's values from slot s on depend only on the slot choices from s
  on, so ``oracle.grid_step`` builds them once per suffix of slot choices:
  a table walked back from v_T = 0, each slot tiling the rows once per slot
  choice, up to the earliest slot s >= 1 whose table fits in CHUNK_CELLS
  (suffix, level) cells.  Each chunk of at most CHUNK_CELLS (instance,
  level) cells gathers its instances' rows and steps through the leading
  slots s-1 ... 0 only, and the ratios, min-level buckets and the first
  argmax are reduced per chunk, so no array spans the whole grid times the
  storage levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InstanceTooLargeError, ValidationError
from .market import (  # simulate_run stays for bench/tracer.py to replace by name
    OfferStrategy,
    PenaltyParams,
    PriceBounds,
    StorageSpec,
    Trace,
    play_slot,
    simulate_run,
)
from .oracle import (  # offline_opt_dp stays for bench/tracer.py to replace by name
    DiscretizationConfig,
    _count_text,
    _quantize,
    check_dp_cells,
    grid_step,
    offline_opt_dp,
    overflow_is_an_error,
    profit_ratios,
)
from .policy import ThresholdPolicy


@dataclass(frozen=True)
class StepFunction:
    """A threshold curve as price steps over storage-level intervals.

    ``prices`` are non-increasing; ``lengths`` are the interval widths and
    sum to the capacity.  Zero-width steps are allowed (they carry a price
    but no energy).
    """

    prices: tuple[float, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.prices) != len(self.lengths):
            raise ValidationError("prices and lengths must have equal length")
        if len(self.prices) < 2:
            raise ValidationError("a step function needs at least two steps")
        for a, b in zip(self.prices, self.prices[1:]):
            if b > a:
                raise ValidationError("step prices must be non-increasing")
        if any(l < 0.0 for l in self.lengths):
            raise ValidationError("step lengths must be non-negative")

    @property
    def n(self) -> int:
        return len(self.prices)

    @property
    def capacity(self) -> float:
        return sum(self.lengths)

    def boundaries(self) -> tuple[float, ...]:
        total, out = 0.0, []
        for l in self.lengths:
            total += l
            out.append(total)
        return tuple(out)

    @classmethod
    def from_policy(cls, policy: ThresholdPolicy, interior_steps: int = 200) -> "StepFunction":
        """Discretize a threshold curve into equal steps below the threshold
        level plus the flat tail.  Each step carries the price at its upper
        boundary; a zero-width first step carries p_max so the step prices
        span the full price range.
        """
        if interior_steps < 1:
            raise ValidationError("need at least one interior step")
        if policy.c_th <= 0.0:  # degenerate flat curve (theta == 1)
            return cls((policy.bounds.p_max, policy.bounds.p_min), (0.0, policy.capacity))
        width = policy.c_th / interior_steps
        prices = [policy.bounds.p_max]
        lengths = [0.0]
        prices.extend(policy.eval_g(i * width) for i in range(1, interior_steps + 1))
        lengths.extend([width] * interior_steps)
        prices.append(policy.bounds.p_min)
        lengths.append(policy.l_n)
        return cls(tuple(prices), tuple(lengths))


def local_cr_closed_form(sf: StepFunction, i: int) -> float:
    """Worst-case profit ratio over instances that drain the level to the
    top of step i (1-indexed, 1 <= i <= n-1)."""
    n = sf.n
    if not 1 <= i <= n - 1:
        raise ValidationError(f"step index {i} outside [1, {n - 1}]")
    capacity = sf.capacity
    interior = sum(sf.prices[k] * sf.lengths[k] for k in range(i, n - 1))
    numerator = sf.prices[i - 1] * capacity + interior
    denominator = interior + sf.prices[n - 1] * sf.lengths[n - 1]
    return numerator / denominator


def step_lengths_from_equalization(
    step_prices: tuple[float, ...], capacity: float, l_n: float
) -> tuple[float, ...]:
    """Interior step lengths (indices 2..n-1) that equalize the local ratios.

    l_i = ((p_{i-1} - p_i) / p_i) * (p_n * C * l_n) / (p_{n-1} * C - p_n * l_n).
    """
    n = len(step_prices)
    if n < 3:
        return ()
    for a, b in zip(step_prices, step_prices[1:]):
        if b > a:
            raise ValidationError("step prices must be non-increasing")
    if not 0.0 < l_n < capacity:
        raise ValidationError(f"last step length {l_n} outside (0, {capacity})")
    denom = step_prices[n - 2] * capacity - step_prices[n - 1] * l_n
    if abs(denom) < 1e-12 * step_prices[n - 1] * capacity:
        raise ValidationError("degenerate denominator in equalized step lengths")
    coef = step_prices[n - 1] * capacity * l_n / denom
    return tuple(
        (step_prices[i - 1] - step_prices[i]) / step_prices[i] * coef for i in range(1, n - 1)
    )


# cells (suffixes or instances x storage levels) of the suffix table and of
# one chunk of the grid DP
CHUNK_CELLS = 2**14
# default budget of a grid: the most instances it may hold
MAX_INSTANCES = 10**7
# work guard of a whole grid's oracle: instances x slots x (levels + 1)
MAX_GRID_CELLS = 10**9
# the default grid shape, of AdversaryGrid.geometric and the CLI flags alike
GRID_DEFAULTS = {"horizon": 3, "price_count": 4, "supply_count": 3, "levels": 4}


def _check_size(
    horizon: int, price_count: int, supply_count: int, disc: DiscretizationConfig, budget: int
) -> None:
    """Refuse a grid shape before it is built: the horizon first (it bounds the
    count's cost), then the level counts, the budget and the oracle's work."""
    if not 1 <= horizon <= 6:
        raise ValidationError(f"grid horizon must be in [1, 6], got {horizon}")
    if price_count < 1 or supply_count < 1:
        raise ValidationError("grid needs at least one price and one supply level")
    count = (price_count * supply_count) ** horizon
    if count > budget:
        raise BudgetExceededError(
            f"grid holds {_count_text(count)} instances, budget is {_count_text(budget)}"
        )
    check_dp_cells(horizon, disc)
    cells = count * horizon * (disc.levels + 1)
    if cells > MAX_GRID_CELLS:
        raise InstanceTooLargeError(
            f"{_count_text(count)} instances x {horizon} slots x {disc.levels + 1} storage "
            f"levels = {_count_text(cells)} cells exceed the grid guard {MAX_GRID_CELLS}"
        )


@dataclass(frozen=True)
class AdversaryGrid:
    """Finite instance space: every combination of the per-slot levels."""

    horizon: int
    price_levels: tuple[float, ...]
    supply_levels: tuple[float, ...]
    disc: DiscretizationConfig
    budget: int = MAX_INSTANCES

    def __post_init__(self):
        shape = (self.horizon, len(self.price_levels), len(self.supply_levels))
        _check_size(*shape, self.disc, self.budget)
        if any(p <= 0.0 for p in self.price_levels):
            raise ValidationError("price levels must be positive")
        if any(u < 0.0 for u in self.supply_levels):
            raise ValidationError("supply levels must be non-negative")
        if not all(map(math.isfinite, (*self.price_levels, *self.supply_levels))):
            raise ValidationError("price and supply levels must be finite")

    @property
    def instance_count(self) -> int:
        return (len(self.price_levels) * len(self.supply_levels)) ** self.horizon

    @classmethod
    def geometric(
        cls,
        bounds: PriceBounds,
        capacity: float,
        horizon: int = GRID_DEFAULTS["horizon"],
        price_count: int = GRID_DEFAULTS["price_count"],
        supply_count: int = GRID_DEFAULTS["supply_count"],
        levels: int = GRID_DEFAULTS["levels"],
        budget: int = MAX_INSTANCES,
    ) -> "AdversaryGrid":
        """Geometric price ladder p_min * theta^(k/(K-1)) and supply levels on
        the storage grid.  Worst cases concentrate at threshold crossings,
        which geometric spacing tracks.
        """
        theta = bounds.theta
        disc = DiscretizationConfig(levels)
        _check_size(horizon, 1 if theta == 1.0 else price_count, supply_count, disc, budget)
        if price_count == 1 or theta == 1.0:
            prices = (bounds.p_min,)
        else:
            prices = tuple(
                bounds.p_min * theta ** (k / (price_count - 1)) for k in range(price_count)
            )
        eta = disc.quantum(capacity)
        supplies = tuple(i * eta for i in range(supply_count))
        return cls(horizon, prices, supplies, disc, budget)


@dataclass
class WorstCaseReport:
    """Outcome of an exhaustive search over a grid."""

    max_ratio: float
    argmax_instance: Trace
    bucket_ratios: dict[float, float]
    instances: int


def _slot_table(strategy, spec, penalty, choices, t: int, level: np.ndarray):
    """One ``play_slot`` per (distinct level, slot choice) of slot t.

    Levels are grouped by their exact bits, so -0.0 and 0.0 stay apart.
    Returns each level's group index and the net profit and next level per
    (group, slot choice).
    """
    _bits, first, group = np.unique(level.view(np.int64), return_index=True, return_inverse=True)
    step = np.array(
        [
            [play_slot(strategy, spec, penalty, t, p, u, z)[4:] for p, u in choices]
            for z in level[first].tolist()
        ],
        dtype=float,
    )
    return group, step[..., 0], step[..., 1]


def _prefix_states(strategy: OfferStrategy, spec: StorageSpec, choices: list, horizon: int):
    """The strategy over every prefix of slot choices, in product order.

    Returns the running profit and running minimum level of each of the
    S**(T-1) prefixes of T-1 slots, and the last slot's ``_slot_table``.
    """
    penalty = PenaltyParams()
    level = np.array([spec.initial_level], dtype=float)
    total = np.zeros(1)
    low = level
    for t in range(horizon - 1):
        group, profit, after = _slot_table(strategy, spec, penalty, choices, t, level)
        total = np.repeat(total, len(choices)) + profit[group].ravel()
        level = after[group].ravel()
        low = np.minimum(np.repeat(low, len(choices)), level)
    return (total, low, *_slot_table(strategy, spec, penalty, choices, horizon - 1, level))


@overflow_is_an_error()
def adversarial_search(
    grid: AdversaryGrid, strategy: OfferStrategy, spec: StorageSpec
) -> WorstCaseReport:
    """Measure the profit ratio on every instance of the grid.

    Returns the maximum ratio, the first maximizing trace in
    ``itertools.product`` order, and the per-bucket maxima keyed by the
    minimum storage level the strategy reached (grid units, rounded), with
    the oracle on the grid's storage quantization and the default penalty.
    `strategy` must be a pure function of its arguments (see
    ``market.OfferStrategy``): it is called once per distinct state.  The
    grid checked its size and the oracle's work when it was built.
    """
    eta, u_units, rc, rd, k0 = _quantize(grid.supply_levels, spec, grid.disc)
    n, horizon = grid.disc.levels, grid.horizon

    # slot choices in itertools.product order of (price, supply)
    choices = [(float(p), float(u)) for p in grid.price_levels for u in grid.supply_levels]
    width = len(choices)
    total, low, group, last_profit, last_level = _prefix_states(strategy, spec, choices, horizon)
    # the oracle's columns per slot choice
    choice_units = u_units * len(grid.price_levels)
    price_col = np.array([p for p, _u in choices])
    unit_col = np.array(choice_units, dtype=float)
    # clipped as Python ints, so a huge supply cannot make the array uint64 or object
    cap_col = np.array([min(rc, u) for u in choice_units])
    strides = [width ** (horizon - 1 - t) for t in range(horizon)]

    # v_s over every suffix of slot choices from slot s on, in product order,
    # built backwards from v_T = 0 while it fits in CHUNK_CELLS (s >= 1)
    table, s = np.zeros((1, n + 1)), horizon
    while s > 1 and width * table.size <= CHUNK_CELLS:
        s -= 1
        c = np.repeat(np.arange(width), len(table))[:, None]
        step = grid_step((len(c), n + 1), rd, eta)
        table, _best = step(np.tile(table, (width, 1)), price_col[c], unit_col[c], cap_col[c])

    best = -math.inf
    argmax = 0
    buckets: dict[float, float] = {}
    count = grid.instance_count
    rows = min(max(CHUNK_CELLS // (n + 1), 1), count)
    step = grid_step((rows, n + 1), rd, eta)
    for start in range(0, count, rows):
        idx = np.arange(start, min(start + rows, count))
        # each instance's suffix from slot s, then its leading slots s-1 ... 0
        v = table[idx % len(table)]
        if len(v) < rows:  # the last chunk
            step = grid_step(v.shape, rd, eta)
        for t in reversed(range(s)):
            c = (idx // strides[t] % width)[:, None]
            v, _best = step(v, price_col[c], unit_col[c], cap_col[c])
        parent, last = np.divmod(idx, width)
        g = group[parent]
        lowest = np.minimum(low[parent], last_level[g, last])
        ratio = profit_ratios(v[:, n - k0], total[parent] + last_profit[g, last])

        # round(x) * eta as Python takes it: half to even, and never -0.0
        # (so the sign of a zero minimum level does not matter)
        keys = np.rint(lowest / eta) * eta + 0.0
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        peaks = np.full(len(uniq), -math.inf)
        np.maximum.at(peaks, inverse, ratio)
        # strict: the first instance in enumeration order keeps a tie
        for j in np.argsort(first).tolist():
            key, peak = uniq[j].item(), peaks[j].item()
            if peak > buckets.get(key, -math.inf):
                buckets[key] = peak
        top = int(ratio.argmax())
        if ratio[top] > best:
            best = ratio[top].item()
            argmax = start + top

    combo = [choices[argmax // stride % width] for stride in strides]
    return WorstCaseReport(
        max_ratio=best,
        argmax_instance=Trace(*zip(*combo)),
        bucket_ratios=buckets,
        instances=count,
    )
