"""Worst-case certification by exhaustive search.

The search enumerates every (price, supply) trace over a small quantized
grid, measures the clairvoyant-to-strategy profit ratio on each, and
reports the maximum together with the ratio bucketed by the minimum
storage level the strategy reached.

The grid is evaluated with array operations (numpy's float64 + - * / round
as Python's floats do), bit for bit as one ``simulate_run`` and one per-level
grid DP per instance would, and as ``offline_opt_dp`` up to rounding:

* The strategy walks the tree of slot-choice prefixes in
  ``itertools.product`` order.  A prefix's state is its storage level, its
  running profit and its running minimum level, and the storage level takes
  few distinct values per slot, so each slot steps the numpy columns of its
  (distinct level, slot choice) states once: the strategy's column form
  (``strategies.socs_columns``, or ``market.scalar_columns`` of a callback)
  gives their commitments and ``market.play_columns`` their profits and next
  levels, and numpy gathers the children.
* The oracle's values from slot s on depend only on the slot choices from s
  on, so ``oracle.grid_step`` builds them once per suffix of slot choices:
  a table walked back from v_T = 0, each slot tiling the rows once per slot
  choice, up to the earliest slot s >= 1 whose table fits in CHUNK_CELLS
  (suffix, level) cells.  The instances fall into blocks of the table's
  length that share their choices in the leading slots s-1 ... 0, and a
  chunk is as many whole blocks as fit in CHUNK_CELLS cells: the table,
  tiled once, steps through slots s-1 ... 1 with one choice column per
  block, and through slot 0 at the initial level only.  A chunk's
  instances read their prefixes' running profits and minimum-level indices
  and the last slot's rows from the slice of prefixes that covers them.
  The ratios, the min-level buckets (by grid index) and the first argmax are
  reduced per chunk, so no array spans the whole grid times the storage
  levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InstanceTooLargeError, ValidationError
from .market import (  # simulate_run stays for bench/tracer.py to replace by name
    ColumnStrategy,
    PenaltyParams,
    PriceBounds,
    StorageSpec,
    Trace,
    play_columns,
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


def _slot_table(strategy: ColumnStrategy, spec, penalty, prices, supplies, t: int, levels):
    """Slot t from each of the distinct ``levels`` times the slot choices
    (``prices``, ``supplies``): the net profit and next level per (level,
    slot choice)."""
    z = levels[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # quiet, as simulate_run's floats are
        x = strategy(t, prices, supplies, z)
        *_, profit, after = play_columns(x, spec, penalty, prices, supplies, z)
    return profit, after


def _prefix_states(strategy: ColumnStrategy, spec: StorageSpec, prices, supplies, horizon: int):
    """The strategy over every prefix of slot choices, in product order.

    A slot's prefixes reach few distinct levels, grouped by their exact bits
    (so -0.0 and 0.0 stay apart) in bit order.  Returns the running profit,
    the running minimum level and the level's group of each of the S**(T-1)
    prefixes of T-1 slots, and the last slot's ``_slot_table`` per group.
    """
    penalty, width = PenaltyParams(), len(prices)
    levels = np.array([spec.initial_level], dtype=float)
    group = np.zeros(1, dtype=np.intp)
    total = np.zeros(1)
    low = levels
    for t in range(horizon - 1):
        profit, after = _slot_table(strategy, spec, penalty, prices, supplies, t, levels)
        total = np.repeat(total, width) + profit[group].ravel()
        low = np.minimum(np.repeat(low, width), after[group].ravel())
        # every (group, choice) is reached, so the table holds the next distinct levels
        bits, inverse = np.unique(after.ravel().view(np.int64), return_inverse=True)
        levels = bits.view(np.float64)
        group = inverse.reshape(-1, width)[group].ravel()
    last = _slot_table(strategy, spec, penalty, prices, supplies, horizon - 1, levels)
    return (total, low, group, *last)


@overflow_is_an_error()
def adversarial_search(
    grid: AdversaryGrid, strategy: ColumnStrategy, spec: StorageSpec
) -> WorstCaseReport:
    """Measure the profit ratio on every instance of the grid.

    Returns the maximum ratio, the first maximizing trace in
    ``itertools.product`` order, and the per-bucket maxima keyed, in level
    order, by the minimum storage level the strategy reached (grid units,
    rounded), with the oracle on the grid's storage quantization and the
    default penalty.  `strategy` is a strategy's column form
    (``strategies.socs_columns``, or ``market.scalar_columns`` of a callback)
    and must be a pure function of its arguments (see
    ``market.ColumnStrategy``): it is called once per slot, over the slot's
    distinct states.  The grid checked its size and the oracle's work when it
    was built.
    """
    eta, u_units, rc, rd, k0 = _quantize(grid.supply_levels, spec, grid.disc)
    n, horizon = grid.disc.levels, grid.horizon

    # the slot choices' columns, in itertools.product order of (price, supply)
    price_col = np.repeat(np.array(grid.price_levels, dtype=float), len(grid.supply_levels))
    supply_col = np.tile(np.array(grid.supply_levels, dtype=float), len(grid.price_levels))
    width = len(price_col)
    total, low, group, last_profit, last_level = _prefix_states(
        strategy, spec, price_col, supply_col, horizon
    )
    # the grid index of a level, rounded as Python rounds: half to even; a
    # level lies in [0, C], so the index lies in [0, n].  Rounding is
    # monotone, so an instance's minimum level has the smaller of the indices
    # of its prefix's minimum and of its last level
    low, last_low = (np.rint(level / eta).astype(np.intp) for level in (low, last_level))
    # the oracle's columns per slot choice
    choice_units = u_units * len(grid.price_levels)
    unit_col = np.array(choice_units, dtype=float)
    # clipped as Python ints, so a huge supply cannot make the array uint64 or object
    cap_col = np.array([min(rc, u) for u in choice_units])
    strides = [width ** (horizon - 1 - t) for t in range(horizon)]

    # v_s over every suffix of slot choices from slot s on, in product order,
    # built backwards from v_T = 0 while it fits in CHUNK_CELLS (s >= 1)
    table, s = np.zeros((1, n + 1)), horizon
    c = np.arange(width)[:, None, None]
    while s > 1 and width * table.size <= CHUNK_CELLS:
        s -= 1
        step = grid_step((width, *table.shape), rd, eta)
        table, _best = step(np.tile(table, (width, 1, 1)), price_col[c], unit_col[c], cap_col[c])
        table = table.reshape(-1, n + 1)

    best = -math.inf
    argmax = 0
    # per grid index of the minimum level: the peak ratio, -inf where none is reached
    peaks = np.full(n + 1, -math.inf)
    # instance b*len(table) + r has the suffix row r and block b's choices
    # in its leading slots s-1 ... 0; a chunk is whole blocks
    blocks = width**s
    tiled = np.tile(table, (min(max(CHUNK_CELLS // table.size, 1), blocks), 1, 1))
    for b0 in range(0, blocks, len(tiled)):
        b = np.arange(b0, min(b0 + len(tiled), blocks))
        v = tiled[: len(b)]
        if b0 == 0 or len(b) < len(tiled):  # the first and the last chunk
            step = grid_step(v.shape, rd, eta)
            at_k0 = grid_step(v.shape, rd, eta, k0)
        for t in reversed(range(s)):
            c = (b // width ** (s - 1 - t) % width)[:, None, None]
            v, _best = (step if t else at_k0)(v, price_col[c], unit_col[c], cap_col[c])
        # instance i is prefix i // width's last slot choice i % width, so the
        # chunk's instances [i0, i1) are cut from its prefixes' rows
        i0, i1 = b0 * len(table), (b0 + len(b)) * len(table)
        p0, p1 = i0 // width, -(-i1 // width)
        cut = slice(i0 - p0 * width, i1 - p0 * width)
        g = group[p0:p1]
        ratio = profit_ratios(v.ravel(), (total[p0:p1, None] + last_profit[g]).ravel()[cut])
        i = np.minimum(low[p0:p1, None], last_low[g]).ravel()[cut]  # the minimum level's index
        np.maximum.at(peaks, i, ratio)
        top = int(ratio.argmax())
        if ratio[top] > best:
            best = ratio[top].item()
            argmax = i0 + top

    # the buckets reached, in level order; no key j * eta is -0.0
    buckets = {j * eta: peaks[j].item() for j in np.flatnonzero(peaks > -math.inf).tolist()}
    combo = [argmax // stride % width for stride in strides]
    return WorstCaseReport(
        max_ratio=best,
        argmax_instance=Trace(price_col[combo].tolist(), supply_col[combo].tolist()),
        bucket_ratios=buckets,
        instances=grid.instance_count,
    )
