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
    """Energy quantum eta and the number of storage levels above zero."""

    eta: float
    levels: int

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")
        if self.levels < 1:
            raise ValidationError(f"level count must be >= 1, got {self.levels}")

    @classmethod
    def for_capacity(cls, capacity: float, levels: int = 400) -> "DiscretizationConfig":
        if levels < 1:  # before dividing by it
            raise ValidationError(f"level count must be >= 1, got {levels}")
        return cls(eta=capacity / levels, levels=levels)

    def check_capacity(self, capacity: float) -> None:
        if abs(self.levels * self.eta - capacity) > 1e-9 * capacity:
            raise ValidationError(
                f"{self.levels} levels of {self.eta} MWh do not tile a capacity "
                f"of {capacity} MWh"
            )


@dataclass(frozen=True)
class OptResult:
    """An optimal feasible plan: profit, commitments, and the level path."""

    total_profit: float
    commitment_path: tuple[float, ...]
    level_path: tuple[float, ...]  # horizon + 1 entries, starting level first


def _units(value: float, eta: float) -> int:
    # floor onto the grid; the epsilon keeps grid-aligned floats from
    # dropping a unit through rounding noise
    return max(int(math.floor(value / eta + 1e-9)), 0)


def _quantize(outputs: Sequence[float], spec: StorageSpec, disc: DiscretizationConfig):
    disc.check_capacity(spec.capacity)
    eta = disc.eta
    u_units = [_units(u, eta) for u in outputs]
    # a rate beyond the grid moves no further than the grid: clipping keeps
    # the oracle's window, and its work, O(levels) whatever rate / eta is
    rc = min(_units(spec.charge_rate, eta), disc.levels)
    rd = min(_units(spec.discharge_rate, eta), disc.levels)
    k0 = min(_units(spec.initial_level, eta), disc.levels)
    return u_units, rc, rd, k0


# work guard of the grid DP: slots x (levels + 1)
MAX_DP_CELLS = 10**7


def check_dp_cells(horizon: int, disc: DiscretizationConfig) -> None:
    """Raise InstanceTooLargeError beyond MAX_DP_CELLS slots x (levels + 1)."""
    cells = horizon * (disc.levels + 1)
    if cells > MAX_DP_CELLS:
        raise InstanceTooLargeError(
            f"{horizon} slots x {disc.levels + 1} storage levels = {cells} cells "
            f"exceed the oracle guard {MAX_DP_CELLS}; use a larger eta"
        )


def grid_dp(prices, units, caps, rd: int, n: int, eta: float):
    """Backward pass of the grid DP, for one instance or a batch.

    Slot t's columns are the price ``prices[t]``, the output in grid units
    as a float ``units[t]`` (exact below 2**53 units; no int64 overflow
    above) and ``caps[t] = min(r_c, output units)``: Python scalars for one
    instance, (N, 1) arrays for a batch of N.  Returns v_0 over the levels
    0 ... n, shaped (n+1,) or (N, n+1), and the rightmost argmax m* of each
    slot's window key, shaped (T,) or (N, T).

    The arrays run over j = n - k, the levels counted from the top, so a
    first argmax is the rightmost one in k.  Row i of a batch holds flat
    indices i*(n+1) + j, so each clip and gather is one op over the batch.
    """
    width = n + 1
    shape = np.shape(units[0])[:1] + (width,)
    j = np.arange(math.prod(shape)).reshape(shape)  # flat index of level n - j
    base = j[..., :1]
    below_top = j - base  # n - k
    highest = j + rd  # the lowest next level k - r_d
    v = np.zeros(shape)
    bests = []
    for t in reversed(range(len(prices))):
        p, uq = prices[t], units[t]
        # window key: v_{t+1}(m) - p*eta*m plus the constant p*eta*(u + n),
        # computed as the value of landing on m from the top level k = n.
        # Rounded like the values below, it ranks near-ties as they do more
        # often than the plain difference: over 300 synthetic 360 x 400 runs
        # no total, against 2, came out one ulp off the per-action DP
        key = p * ((uq + below_top) * eta) + v
        # rightmost argmax of the concave key, clipped into each window:
        # min(max(k - r_d, m*), k + min(r_c, u)) counted from the top
        best = base + key.argmax(axis=-1, keepdims=True)
        m = np.maximum(np.minimum(highest, best), j - caps[t])
        v = p * ((uq + (m - j)) * eta) + v.ravel()[m]  # commits u + k - m units
        bests.append(best)
    bests.reverse()
    return v[..., ::-1], n - (np.concatenate(bests, axis=-1) - base)


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
    u_units, rc, rd, k0 = _quantize(trace.outputs, spec, disc)
    eta, n = disc.eta, disc.levels
    caps = [min(rc, u) for u in u_units]
    v, bests = grid_dp(trace.prices, [float(u) for u in u_units], caps, rd, n, eta)

    total = float(v[k0])
    k = k0
    commitments = []
    levels = [k0 * eta]
    for t, best in enumerate(bests.tolist()):
        # the same clip as m[k] in the backward pass, for this slot's k only
        m = min(max(k - rd, best), k + caps[t])
        commitments.append((u_units[t] + k - m) * eta)
        k = m
        levels.append(k * eta)
    return OptResult(total, tuple(commitments), tuple(levels))


def profit_ratios(opt_profit: np.ndarray, strategy_profit: np.ndarray) -> np.ndarray:
    """Optimum over strategy profit, elementwise: 1.0 where both earn
    nothing, and math.inf where only the strategy does."""
    earns = strategy_profit > 1e-12
    with np.errstate(over="ignore", invalid="ignore"):  # quiet, as Python floats are
        ratio = opt_profit / np.where(earns, strategy_profit, 1.0)
    return np.where(earns, ratio, np.where(opt_profit <= 1e-12, 1.0, math.inf))


def profit_ratio(opt_profit: float, strategy_profit: float) -> float:
    """``profit_ratios`` for one run."""
    return float(profit_ratios(np.float64(opt_profit), np.float64(strategy_profit)))
