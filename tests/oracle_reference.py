"""Test-only references: a brute-force enumerator over the oracle DP's
quantized world, the profit ratio of one strategy on one instance, and the
worst-case search as one ``offline_opt_dp`` and one ``simulate_run`` per
instance."""
from __future__ import annotations

import itertools
import math

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
from hourahead.oracle import OptResult, _quantize, profit_ratio

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
    u_units, rc, rd, k0 = _quantize(trace.outputs, spec, disc)
    eta, n = disc.eta, disc.levels
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
    oracle DP and one simulation per grid instance, in product order."""
    disc = grid.disc
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
        opt = offline_opt_dp(trace, spec, disc).total_profit
        run = simulate_run(trace, spec, penalty, strategy)
        ratio = profit_ratio(opt, run.total_profit)
        count += 1
        bucket = round(run.min_level(spec.initial_level) / disc.eta) * disc.eta
        # strict: the first instance in enumeration order keeps a tie
        if ratio > buckets.get(bucket, -math.inf):
            buckets[bucket] = ratio
        if ratio > best:
            best = ratio
            argmax = trace
    return WorstCaseReport(
        max_ratio=best,
        argmax_instance=argmax,
        bucket_ratios=buckets,
        instances=count,
    )
