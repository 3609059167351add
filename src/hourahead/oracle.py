"""Clairvoyant benchmarks over a quantized storage grid.

The optimum with full knowledge of prices and outputs is computed by
backward value iteration over storage levels {0, eta, ..., C}.  Inputs
(output series, rates, initial level) are floored onto the grid, so the
result is a lower bound on the continuous optimum; the gap shrinks
linearly in eta.  A brute-force enumerator over the same quantized world
serves as an independent check on tiny instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError, ValidationError
from .market import OfferStrategy, PenaltyParams, StorageSpec, Trace, simulate_run


class UnboundedRatio:
    """Sentinel for a profit ratio with a zero denominator but positive optimum."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unbounded"


UNBOUNDED = UnboundedRatio()


def ratio_json(value: float | UnboundedRatio) -> float | str:
    """A profit ratio as a JSON or CSV value: the number, or "unbounded"."""
    return "unbounded" if isinstance(value, UnboundedRatio) else value


@dataclass(frozen=True)
class DiscretizationConfig:
    """Energy quantum eta and the number of storage levels above zero."""

    eta: float
    levels: int

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValidationError(f"eta must be positive, got {self.eta}")
        if self.levels < 1:
            raise ValidationError(f"level count must be >= 1, got {self.levels}")

    @classmethod
    def for_capacity(cls, capacity: float, levels: int = 400) -> "DiscretizationConfig":
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


def _quantize(trace: Trace, spec: StorageSpec, disc: DiscretizationConfig):
    disc.check_capacity(spec.capacity)
    eta = disc.eta
    u_units = [_units(u, eta) for u in trace.outputs()]
    rc = _units(spec.charge_rate, eta)
    rd = min(_units(spec.discharge_rate, eta), disc.levels)
    k0 = min(_units(spec.initial_level, eta), disc.levels)
    return u_units, rc, rd, k0


def _step(k: int, j: int, uq: int, rc: int, n: int) -> int:
    """Next level index after committing j units with uq units of output."""
    if j <= uq:
        return min(k + min(rc, uq - j), n)
    return k - (j - uq)


def offline_opt_dp(trace: Trace, spec: StorageSpec, disc: DiscretizationConfig) -> OptResult:
    """Maximum clairvoyant sale revenue over the quantized storage grid.

    Commitments are grid multiples within [0, min(level, discharge) + output]
    so the plan never over-commits.  Ties between equal-profit actions break
    toward the smaller commitment.
    """
    u_units, rc, rd, k0 = _quantize(trace, spec, disc)
    eta, n = disc.eta, disc.levels
    prices = trace.prices()
    horizon = trace.horizon

    v = np.zeros(n + 1)
    karr = np.arange(n + 1)
    acts: list[np.ndarray] = []
    for t in reversed(range(horizon)):
        p = prices[t]
        uq = u_units[t]
        best = np.full(n + 1, -np.inf)
        act = np.zeros(n + 1, dtype=np.int64)
        # commit j <= uq: the remainder charges (smaller j only spills more,
        # so j below uq - rc is dominated and skipped)
        for j in range(max(0, uq - rc), uq + 1):
            landing = np.minimum(karr + (uq - j), n)
            val = p * (j * eta) + v[landing]
            better = val > best
            np.copyto(best, val, where=better)
            act[better] = j
        # commit beyond the output: discharge d units, needs level >= d
        for d in range(1, rd + 1):
            j = uq + d
            val = p * (j * eta) + v[: n + 1 - d]
            seg_best = best[d:]
            seg_act = act[d:]
            better = val > seg_best
            np.copyto(seg_best, val, where=better)
            seg_act[better] = j
        v = best
        acts.append(act)
    acts.reverse()

    total = float(v[k0])
    k = k0
    commitments = []
    levels = [k0 * eta]
    for t in range(horizon):
        j = int(acts[t][k])
        commitments.append(j * eta)
        k = _step(k, j, u_units[t], rc, n)
        levels.append(k * eta)
    return OptResult(total, tuple(commitments), tuple(levels))


# guards for the brute-force enumerator
MAX_EXHAUSTIVE_HORIZON = 6
MAX_EXHAUSTIVE_LEVELS = 8
MAX_EXHAUSTIVE_ACTIONS = 12


def offline_opt_exhaustive(
    trace: Trace, spec: StorageSpec, disc: DiscretizationConfig
) -> OptResult:
    """Brute-force enumeration of every quantized commitment sequence.

    Only for tiny instances; raises InstanceTooLargeError beyond the guards.
    """
    u_units, rc, rd, k0 = _quantize(trace, spec, disc)
    eta, n = disc.eta, disc.levels
    prices = trace.prices()
    horizon = trace.horizon

    if horizon > MAX_EXHAUSTIVE_HORIZON:
        raise InstanceTooLargeError(
            f"horizon {horizon} exceeds exhaustive guard {MAX_EXHAUSTIVE_HORIZON}"
        )
    if n > MAX_EXHAUSTIVE_LEVELS:
        raise InstanceTooLargeError(
            f"{n} levels exceed exhaustive guard {MAX_EXHAUSTIVE_LEVELS}"
        )
    for t, uq in enumerate(u_units):
        count = min(n, rd) + uq + 1
        if count > MAX_EXHAUSTIVE_ACTIONS:
            raise InstanceTooLargeError(
                f"slot {t + 1} admits {count} actions, guard is {MAX_EXHAUSTIVE_ACTIONS}"
            )

    def recurse(t: int, k: int) -> tuple[float, tuple[int, ...]]:
        if t == horizon:
            return 0.0, ()
        p = prices[t]
        uq = u_units[t]
        best_val = -math.inf
        best_seq: tuple[int, ...] = ()
        for j in range(min(k, rd) + uq + 1):
            k2 = _step(k, j, uq, rc, n)
            sub, seq = recurse(t + 1, k2)
            val = p * (j * eta) + sub
            if val > best_val:
                best_val = val
                best_seq = (j,) + seq
        return best_val, best_seq

    total, seq = recurse(0, k0)
    k = k0
    levels = [k0 * eta]
    for t, j in enumerate(seq):
        k = _step(k, j, u_units[t], rc, n)
        levels.append(k * eta)
    return OptResult(total, tuple(j * eta for j in seq), tuple(levels))


def empirical_cr(
    trace: Trace,
    spec: StorageSpec,
    penalty: PenaltyParams,
    strategy: OfferStrategy,
    disc: DiscretizationConfig,
) -> float | UnboundedRatio:
    """Clairvoyant-optimum profit divided by the strategy's profit.

    Returns the UNBOUNDED sentinel when the strategy earns nothing on an
    instance with positive optimum, and 1.0 when both earn nothing.
    """
    opt = offline_opt_dp(trace, spec, disc).total_profit
    run = simulate_run(trace, spec, penalty, strategy)
    return profit_ratio(opt, run.total_profit)


def profit_ratio(opt_profit: float, strategy_profit: float) -> float | UnboundedRatio:
    if strategy_profit > 1e-12:
        return opt_profit / strategy_profit
    if opt_profit <= 1e-12:
        return 1.0
    return UNBOUNDED
