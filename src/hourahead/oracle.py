"""Clairvoyant benchmarks over a quantized storage grid.

The optimum with full knowledge of prices and outputs is computed by
backward value iteration over storage levels {0, eta, ..., C}.  Inputs
(output series, rates, initial level) are floored onto the grid, so the
result is a lower bound on the continuous optimum; the gap shrinks
linearly in eta.  The test suite checks it against a brute-force
enumerator over the same quantized world on tiny instances.

Landing on level m from level k commits j = u + k - m units, so

    v_t(k) = p*eta*(u + k) + max over m in [k - r_d, k + min(r_c, u)] ∩ [0, n]
             of (v_{t+1}(m) - p*eta*m).

By induction from v_T = 0, v_t is concave and piecewise linear: pieces of
whole levels whose slopes, falling, are later slots' prices times eta.  The
key's rightmost argmax z* is the length of the pieces of slope >= p, and a
window's max is at z* clipped into it, m = min(max(k - r_d, z*), k + min(r_c,
u)), ties going to the larger m (the smaller commitment).  So v_t is v_{t+1}
less its first b = min(r_c, u, z*) levels, plus a piece of slope p and length
r_d + b after the slopes >= p, cut back to n levels: the backward pass only
compares prices and adds lengths.
"""
from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError, ValidationError
from .market import StorageSpec, Trace


def ratio_json(value: float) -> float | str:
    """A profit ratio as a JSON or CSV value: the number, or "unbounded" for inf."""
    return "unbounded" if value == math.inf else value


@dataclass(frozen=True)
class DiscretizationConfig:
    """The storage grid: levels {0, eta, ..., C}, levels + 1 in all."""

    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValidationError(f"level count must be >= 1, got {self.levels}")

    def quantum(self, capacity: float) -> float:
        """The energy quantum eta = C / levels of the grid over a capacity C."""
        eta = capacity / self.levels
        if eta == 0.0:  # a capacity below levels times the least float
            raise ValidationError(f"{self.levels} levels leave no quantum of {capacity} MWh")
        return eta


@dataclass(frozen=True)
class OptResult:
    """An optimal feasible plan: profit, commitments, and the level path."""

    total_profit: float
    commitment_path: tuple[float, ...]
    level_path: tuple[float, ...]  # horizon + 1 entries, starting level first


def _units(value: float, eta: float, most: float = math.inf) -> int:
    # floor onto the grid, clipped to `most` before the int conversion (so
    # only an output, which is not clipped, can count to inf); the epsilon
    # keeps grid-aligned floats from dropping a unit through rounding noise
    units = min(value / eta + 1e-9, most)
    if units == math.inf:
        raise ValidationError(f"an output of {value} MWh is no finite count of {eta} MWh quanta")
    return max(int(math.floor(units)), 0)


def _quantize(outputs: Sequence[float], spec: StorageSpec, disc: DiscretizationConfig):
    eta, n = disc.quantum(spec.capacity), disc.levels
    # _units per output (all >= 0) as one array expression; tolist() keeps counts past int64 exact
    with np.errstate(over="ignore"):
        counts = np.floor(np.asarray(outputs, dtype=float) / eta + 1e-9).tolist()
    try:
        u_units = list(map(int, counts))
    except OverflowError:  # an inf count: _units raises for the first one
        u_units = [_units(u, eta) for u in outputs]
    # a rate beyond the grid moves no further than the grid: clipping keeps
    # the oracle's window, and its work, O(levels) whatever rate / eta is
    rc = _units(spec.charge_rate, eta, n)
    rd = _units(spec.discharge_rate, eta, n)
    k0 = _units(spec.initial_level, eta, n)
    return eta, u_units, rc, rd, k0


# work guard of the grid DP: slots x (levels + 1)
MAX_DP_CELLS = 10**7


def _count_text(n: int) -> str:
    """A count as an error line prints it: exact below 10**12, else as 10^k.k"""
    return str(n) if n < 10**12 else f"10^{math.log10(n):.1f}"  # log10 takes any int


def check_dp_cells(horizon: int, disc: DiscretizationConfig) -> None:
    """Raise InstanceTooLargeError beyond MAX_DP_CELLS slots x (levels + 1)."""
    cells = horizon * (disc.levels + 1)
    if cells > MAX_DP_CELLS:
        raise InstanceTooLargeError(
            f"{_count_text(horizon)} slots x {_count_text(disc.levels + 1)} storage levels = "
            f"{_count_text(cells)} cells exceed the oracle guard {MAX_DP_CELLS}; "
            "use fewer storage levels"
        )


def grid_step(shape: tuple[int, ...], rd: int, eta: float, level: int | None = None):
    """The grid DP's backward step over levels 0 ... n, as a function
    ``step(v, p, uq, cap)`` for one instance, ``shape`` (n+1,), or a batch,
    ``shape`` (..., n+1).

    ``v`` holds v_{t+1} over j = n - k, the levels counted from the top, so
    a first argmax is the rightmost one in k.  The slot's price ``p``,
    output in grid units as a float ``uq`` (exact below 2**53 units; no
    int64 overflow above) and ``cap = min(r_c, output units)`` are Python
    scalars for one instance, or columns over the batch axes.  ``step``
    returns v_t, shaped like ``v`` (given a ``level`` k, v_t(k) alone), and
    the rightmost argmax m* of each window key, both v_t(k) and m* with a
    last axis of length 1, m* as the flat index i*(n+1) + n - m* of row i.
    Every row sees the same operations in the same order, so its values do
    not depend on the batch it is in.
    """
    j = np.arange(math.prod(shape)).reshape(shape)  # flat index of level n - j
    base = j[..., :1]
    # n - k in every row, so the key has v's shape whatever the columns' shape
    below_top = np.broadcast_to(np.arange(shape[-1]), shape)
    if level is not None:  # the one level's flat index in each row
        j = base + (shape[-1] - 1 - level)
    highest = j + rd  # the lowest next level k - r_d

    def step(v, p, uq, cap):
        # window key: v_{t+1}(m) - p*eta*m plus the constant p*eta*(u + n),
        # computed as the value of landing on m from the top level k = n.
        # Rounded like the values below, it ranks near-ties as they do more
        # often than the plain difference: over 300 synthetic 360 x 400 runs
        # no total, against 2, came out one ulp off the per-action DP
        key = np.add(uq, below_top)
        key *= eta
        key *= p
        key += v
        # rightmost argmax of the concave key, clipped into each window:
        # min(max(k - r_d, m*), k + min(r_c, u)) counted from the top
        best = base + key.argmax(axis=-1, keepdims=True)
        m = np.maximum(np.minimum(highest, best), j - cap)
        # commits u + k - m units: p * ((u + (m - j)) * eta) + v_{t+1}(m)
        # the key is spent: its buffer takes v_t, unless v_t is one level
        v_next = np.add(uq, m - j, out=key if level is None else None)
        v_next *= eta
        v_next *= p
        v_next += v.ravel()[m]  # a fancy-index gather beats np.take into a buffer
        return v_next, best

    return step


_PROFIT_OVERFLOW = "a profit is not finite: prices times outputs overflow float64"


@contextlib.contextmanager
def overflow_is_an_error():
    """numpy's float64 overflow as a ValidationError, not a warning: a grid DP
    whose window keys overflow can return a finite total below the optimum."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValidationError(_PROFIT_OVERFLOW) from None


def _trim(lengths: list[int], neg_slopes: list[float], units: int, end: int) -> None:
    """Remove ``units`` levels from the first (``end`` 0) or last (-1) pieces."""
    while units:
        length = lengths[end]
        if units < length:
            lengths[end] = length - units
            return
        del lengths[end], neg_slopes[end]
        units -= length


def offline_opt_dp(trace: Trace, spec: StorageSpec, disc: DiscretizationConfig) -> OptResult:
    """Maximum clairvoyant sale revenue over the quantized storage grid.

    Commitments are grid multiples within [0, min(level, discharge) + output]
    so the plan never over-commits.  v_t is stepped as concave pieces by exact
    comparisons (see the module docstring); each spans a level, so T slots of
    n levels cost at most T * (n + 1) piece steps.  Raises InstanceTooLargeError
    beyond MAX_DP_CELLS slots x (levels + 1), ValidationError on an overflow.
    """
    check_dp_cells(trace.horizon, disc)
    eta, u_units, rc, rd, k0 = _quantize(trace.outputs, spec, disc)
    caps = [u if u < rc else rc for u in u_units]  # min and max as conditionals: see simulate_run
    # v_{t+1} from level 0 up: lengths[i] levels of slope -neg[i] * eta each;
    # neg rises, so bisect counts the pieces of slope >= p
    lengths, neg, argmaxes = [disc.levels], [-0.0], []
    for t in reversed(range(trace.horizon)):
        p = trace.prices[t]
        z = sum(lengths[: bisect.bisect_right(neg, -p)])
        argmaxes.append(z)
        drop = z if z < caps[t] else caps[t]
        _trim(lengths, neg, drop, 0)
        if rd + drop:
            i = bisect.bisect_right(neg, -p)
            lengths.insert(i, rd + drop)
            neg.insert(i, -p)
        _trim(lengths, neg, rd, -1)  # n + rd levels back to n

    k, commitments, levels = k0, [], [k0 * eta]
    for t, z in enumerate(reversed(argmaxes)):
        m = z if k - rd < z else k - rd
        if k + caps[t] < m:
            m = k + caps[t]
        commitments.append((u_units[t] + k - m) * eta)
        k = m
        levels.append(k * eta)
    total = 0.0
    for c, p in zip(reversed(commitments), reversed(trace.prices)):
        total = c * p + total  # slot by slot from the last, as v_t is built
    check_profits(total)
    return OptResult(total, tuple(commitments), tuple(levels))


def check_profits(*profits: float | np.ndarray) -> None:
    """Raise ValidationError unless every profit (a float or an array) is finite."""
    if not all(np.isfinite(p).all() for p in profits):
        raise ValidationError(_PROFIT_OVERFLOW)


def profit_ratios(opt_profit: np.ndarray, strategy_profit: np.ndarray) -> np.ndarray:
    """Optimum over strategy profit, elementwise: 1.0 where both earn nothing,
    math.inf where only the optimum does, and ValidationError where a profit
    is not finite.  Earning is relative: above 1e-12 of a positive optimum."""
    check_profits(opt_profit, strategy_profit)
    earns = strategy_profit > 1e-12 * np.maximum(opt_profit, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # quiet, as Python floats are
        ratio = opt_profit / np.where(earns, strategy_profit, 1.0)
    return np.where(earns, ratio, np.where(opt_profit <= 0.0, 1.0, math.inf))


def profit_ratio(opt_profit: float, strategy_profit: float) -> float:
    """``profit_ratios`` for one run."""
    return float(profit_ratios(np.float64(opt_profit), np.float64(strategy_profit)))
