"""Test-only references for the oracle and the worst-case search.

* ``offline_opt_exhaustive`` enumerates every commitment sequence of the
  oracle's quantized world, on tiny instances.
* ``offline_opt_dp_reference`` is ``offline_opt_dp``'s recursion over
  concave pieces written with the builtin ``min`` and ``max``, which the
  oracle spells as conditionals that pick the same operand.
* ``offline_opt_grid`` is the per-level grid DP that ``offline_opt_dp``
  replaces with concave pieces: one ``oracle.grid_step`` per slot over all
  n + 1 levels, O(T * n).  Its float argmax is the one the batched search
  takes, so the search matches it bit for bit; ``offline_opt_dp`` finds the
  exact argmax, and on exact ties (repeated prices) may take another equally
  optimal plan whose total differs in the last bit.
* ``profit_ratio`` is ``oracle.profit_ratios`` for one run, as ``simulate``
  calls it.
* ``empirical_cr`` is the profit ratio of one strategy on one instance.
* ``adversarial_search_reference`` is the worst-case search as one
  ``offline_opt_grid`` and one ``simulate_run`` per instance.
"""
from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from hourahead import (
    BudgetExceededError,
    DiscretizationConfig,
    InstanceTooLargeError,
    PenaltyParams,
    StorageSpec,
    Trace,
    offline_opt_dp,
    simulate_run,
)
from hourahead.adversary import AdversaryGrid, WorstCaseReport
from hourahead.market import OfferStrategy
from hourahead.oracle import (
    OptResult,
    _quantize,
    check_dp_cells,
    check_profits,
    grid_step,
    overflow_is_an_error,
    profit_ratios,
)

def _step(k: int, j: int, uq: int, rc: int, n: int) -> int:
    """Next level index after committing j units with uq units of output."""
    if j <= uq:
        return min(k + min(rc, uq - j), n)
    return k - (j - uq)


# size guards of the brute-force enumerator
MAX_EXHAUSTIVE_HORIZON = 6
MAX_EXHAUSTIVE_LEVELS = 8
MAX_EXHAUSTIVE_ACTIONS = 12


def offline_opt_exhaustive(
    trace: Trace, spec: StorageSpec, disc: DiscretizationConfig
) -> OptResult:
    """Brute-force enumeration of every quantized commitment sequence.

    Only for tiny instances; raises InstanceTooLargeError beyond the guards.
    """
    eta, u_units, rc, rd, k0 = _quantize(trace.outputs, spec, disc)
    n = disc.levels
    prices = trace.prices
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


def _trim_reference(lengths: list[int], neg_slopes: list[float], units: int, end: int) -> None:
    """``oracle._trim``: remove ``units`` levels from the first or last pieces."""
    while units:
        cut = min(units, lengths[end])
        lengths[end] -= cut
        units -= cut
        if not lengths[end]:
            del lengths[end], neg_slopes[end]


def offline_opt_dp_reference(
    trace: Trace, spec: StorageSpec, disc: DiscretizationConfig
) -> OptResult:
    """``oracle.offline_opt_dp`` with the builtin ``min`` and ``max``: the
    same backward pass over concave pieces and the same forward clip."""
    check_dp_cells(trace.horizon, disc)
    eta, u_units, rc, rd, k0 = _quantize(trace.outputs, spec, disc)
    lengths, neg, argmaxes = [disc.levels], [-0.0], []
    for t in reversed(range(trace.horizon)):
        p = trace.prices[t]
        z = sum(lengths[: bisect.bisect_right(neg, -p)])
        argmaxes.append(z)
        drop = min(rc, u_units[t], z)
        _trim_reference(lengths, neg, drop, 0)
        if rd + drop:
            i = bisect.bisect_right(neg, -p)
            lengths.insert(i, rd + drop)
            neg.insert(i, -p)
        _trim_reference(lengths, neg, rd, -1)

    k, commitments, levels = k0, [], [k0 * eta]
    for t, z in enumerate(reversed(argmaxes)):
        m = min(max(k - rd, z), k + min(rc, u_units[t]))
        commitments.append((u_units[t] + k - m) * eta)
        k = m
        levels.append(k * eta)
    total = 0.0
    for c, p in zip(reversed(commitments), reversed(trace.prices)):
        total = c * p + total
    check_profits(total)
    return OptResult(total, tuple(commitments), tuple(levels))


@overflow_is_an_error()
def offline_opt_grid(trace: Trace, spec: StorageSpec, disc: DiscretizationConfig) -> OptResult:
    """The grid DP over every level: the next level from k is the rightmost
    float argmax m* of the concave key clipped into [k - r_d, k + min(r_c, u)],
    committing u + k - m units.  Raises ValidationError where a window key
    overflows, even if the optimum is finite."""
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


def profit_ratio(opt_profit: float, strategy_profit: float) -> float:
    """``profit_ratios`` of one run's two floats, as ``simulate`` calls it."""
    return float(profit_ratios(opt_profit, strategy_profit))


def empirical_cr(
    trace: Trace,
    spec: StorageSpec,
    penalty: PenaltyParams,
    strategy: OfferStrategy,
    disc: DiscretizationConfig,
) -> float:
    """Clairvoyant-optimum profit divided by the strategy's profit.

    Returns math.inf when the strategy earns nothing on an instance with
    positive optimum, and 1.0 when both earn nothing.
    """
    opt = offline_opt_dp(trace, spec, disc).total_profit
    run = simulate_run(trace, spec, penalty, strategy)
    return profit_ratio(opt, run.total_profit)


def adversarial_search_reference(
    grid: AdversaryGrid,
    strategy: OfferStrategy,
    spec: StorageSpec,
) -> WorstCaseReport:
    """``adversary.adversarial_search`` instance by instance: one Trace, one
    per-level grid DP and one simulation per grid instance, in product order."""
    disc = grid.disc
    eta = disc.quantum(spec.capacity)
    penalty = PenaltyParams()
    if grid.instance_count > grid.budget:
        raise BudgetExceededError(
            f"grid holds {grid.instance_count} instances, budget is {grid.budget}"
        )

    slot_choices = list(itertools.product(grid.price_levels, grid.supply_levels))
    best = -math.inf
    argmax: Trace | None = None
    buckets: dict[float, float] = {}
    count = 0
    for combo in itertools.product(slot_choices, repeat=grid.horizon):
        trace = Trace(*zip(*combo))
        opt = offline_opt_grid(trace, spec, disc).total_profit
        run = simulate_run(trace, spec, penalty, strategy)
        ratio = profit_ratio(opt, run.total_profit)
        count += 1
        bucket = round(min((spec.initial_level,) + run.levels) / eta) * eta
        # strict: the first instance in enumeration order keeps a tie
        if ratio > buckets.get(bucket, -math.inf):
            buckets[bucket] = ratio
        if ratio > best:
            best = ratio
            argmax = trace
    return WorstCaseReport(
        max_ratio=best,
        argmax_instance=argmax,
        bucket_ratios=dict(sorted(buckets.items())),  # in level order
        instances=count,
    )
