"""Clairvoyant benchmarks over a quantized storage grid.

The optimum with full knowledge of prices and outputs is computed by
backward value iteration over storage levels {0, eta, ..., C}.  Inputs
(output series, rates, initial level) are floored onto the grid, so the
result is a lower bound on the continuous optimum; the gap shrinks
linearly in eta.  The test suite checks it against a brute-force
enumerator over the same quantized world on tiny instances.

Each slot of the value iteration is one sliding-window max.  Landing on
level m from level k commits j = u + k - m units, so

    v_t(k) = p*eta*(u + k) + max over m in [k - r_d, k + min(r_c, u)] ∩ [0, n]
             of (v_{t+1}(m) - p*eta*m).

The key v_{t+1}(m) - p*eta*m is concave in m, by induction from v_T = 0: a
window max of a concave sequence is concave in k, and so is that plus the
linear p*eta*(u + k).  So each window's max is the key's rightmost global
argmax m* clipped into the window, m = min(max(k - r_d, m*), k + min(r_c, u)),
with ties going to the larger m (the smaller commitment); the kept value is
recomputed as p * (j * eta) + v_{t+1}(m).  T slots over n levels cost O(T * n).
"""
from __future__ import annotations

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


def grid_step(shape: tuple[int, ...], rd: int, eta: float):
    """The grid DP's backward step over levels 0 ... n, as a function
    ``step(v, p, uq, cap)`` for one instance, ``shape`` (n+1,), or a batch
    of R instances, ``shape`` (R, n+1).

    ``v`` holds v_{t+1} over j = n - k, the levels counted from the top, so
    a first argmax is the rightmost one in k.  The slot's price ``p``,
    output in grid units as a float ``uq`` (exact below 2**53 units; no
    int64 overflow above) and ``cap = min(r_c, output units)`` are Python
    scalars for one instance, or (R, 1) columns.  ``step`` returns v_t,
    shaped like ``v``, and the rightmost argmax m* of each window key,
    shaped (1,) or (R, 1), as the flat index i*(n+1) + n - m* of row i.
    Every row sees the same operations in the same order, so its values do
    not depend on the batch it is in.
    """
    j = np.arange(math.prod(shape)).reshape(shape)  # flat index of level n - j
    base = j[..., :1]
    below_top = np.arange(shape[-1])  # n - k, the same in every row
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
        v_next = np.add(uq, m - j, out=key)  # the key is spent
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


@overflow_is_an_error()
def offline_opt_dp(trace: Trace, spec: StorageSpec, disc: DiscretizationConfig) -> OptResult:
    """Maximum clairvoyant sale revenue over the quantized storage grid.

    Commitments are grid multiples within [0, min(level, discharge) + output]
    so the plan never over-commits.  One argmax and one clip per slot (see the
    module docstring): the next level from k is the rightmost argmax m* of the
    concave key clipped into [k - r_d, k + min(r_c, u)], committing u + k - m
    units, so ties go to the smaller commitment.  Costs O(T * n) for T slots
    and n levels, whatever the rates are relative to eta; raises
    InstanceTooLargeError beyond MAX_DP_CELLS slots x (levels + 1).
    """
    check_dp_cells(trace.horizon, disc)
    eta, u_units, rc, rd, k0 = _quantize(trace.outputs, spec, disc)
    n = disc.levels
    caps = [min(rc, u) for u in u_units]
    step = grid_step((n + 1,), rd, eta)
    v = np.zeros(n + 1)
    bests = []
    for t in reversed(range(trace.horizon)):
        v, best = step(v, trace.prices[t], float(u_units[t]), caps[t])
        bests.append(best)

    total = float(v[n - k0])
    k = k0
    commitments = []
    levels = [k0 * eta]
    for t, best in enumerate((n - np.concatenate(bests[::-1])).tolist()):
        # the same clip as m[k] in the backward pass, for this slot's k only
        m = min(max(k - rd, best), k + caps[t])
        commitments.append((u_units[t] + k - m) * eta)
        k = m
        levels.append(k * eta)
    return OptResult(total, tuple(commitments), tuple(levels))


def check_profits(*profits: float | np.ndarray) -> None:
    """Raise ValidationError unless every profit (a float or an array) is finite."""
    if not all(np.isfinite(p).all() for p in profits):
        raise ValidationError(_PROFIT_OVERFLOW)


def profit_ratios(opt_profit: np.ndarray, strategy_profit: np.ndarray) -> np.ndarray:
    """Optimum over strategy profit, elementwise: 1.0 where both earn nothing,
    math.inf where only the optimum does, and ValidationError where a profit
    is not finite."""
    check_profits(opt_profit, strategy_profit)
    earns = strategy_profit > 1e-12
    with np.errstate(over="ignore", invalid="ignore"):  # quiet, as Python floats are
        ratio = opt_profit / np.where(earns, strategy_profit, 1.0)
    return np.where(earns, ratio, np.where(opt_profit <= 1e-12, 1.0, math.inf))


def profit_ratio(opt_profit: float, strategy_profit: float) -> float:
    """``profit_ratios`` for one run."""
    return float(profit_ratios(np.float64(opt_profit), np.float64(strategy_profit)))
