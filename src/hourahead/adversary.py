"""Worst-case certification: exhaustive search plus step-function numerics.

The search enumerates every (price, supply) trace over a small quantized
grid, measures the clairvoyant-to-strategy profit ratio on each, and
reports the maximum together with the ratio bucketed by the minimum
storage level the strategy reached.  The step-function helpers evaluate
the closed-form local ratio of a discretized threshold curve and the
step lengths that equalize it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BudgetExceededError, ValidationError
from .market import OfferStrategy, PenaltyParams, PriceBounds, StorageSpec, Trace, simulate_run
from .oracle import DiscretizationConfig, UnboundedRatio, offline_opt_dp, profit_ratio
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


@dataclass(frozen=True)
class AdversaryGrid:
    """Finite instance space: every combination of the per-slot levels."""

    horizon: int
    price_levels: tuple[float, ...]
    supply_levels: tuple[float, ...]
    disc: DiscretizationConfig
    budget: int = 10_000_000

    def __post_init__(self):
        if not 1 <= self.horizon <= 6:
            raise ValidationError(f"grid horizon must be in [1, 6], got {self.horizon}")
        if not self.price_levels or not self.supply_levels:
            raise ValidationError("grid needs at least one price and one supply level")
        if any(p <= 0.0 for p in self.price_levels):
            raise ValidationError("price levels must be positive")
        if any(u < 0.0 for u in self.supply_levels):
            raise ValidationError("supply levels must be non-negative")

    @property
    def instance_count(self) -> int:
        return (len(self.price_levels) * len(self.supply_levels)) ** self.horizon

    @classmethod
    def geometric(
        cls,
        bounds: PriceBounds,
        capacity: float,
        horizon: int = 3,
        price_count: int = 4,
        supply_count: int = 3,
        levels: int = 4,
        budget: int = 10_000_000,
    ) -> "AdversaryGrid":
        """Geometric price ladder p_min * theta^(k/(K-1)) and supply levels on
        the storage grid.  Worst cases concentrate at threshold crossings,
        which geometric spacing tracks.
        """
        theta = bounds.theta
        if price_count == 1 or theta == 1.0:
            prices = (bounds.p_min,)
        else:
            prices = tuple(
                bounds.p_min * theta ** (k / (price_count - 1)) for k in range(price_count)
            )
        disc = DiscretizationConfig.for_capacity(capacity, levels)
        supplies = tuple(i * disc.eta for i in range(supply_count))
        return cls(horizon, prices, supplies, disc, budget)


@dataclass
class WorstCaseReport:
    """Outcome of an exhaustive search over a grid."""

    max_ratio: float | UnboundedRatio
    argmax_instance: Trace | None
    theoretical_bound: float | None
    bucket_ratios: dict[float, float | UnboundedRatio] = field(default_factory=dict)
    instances: int = 0

    def exceeds_bound(self, slack: float = 0.05) -> bool:
        if self.theoretical_bound is None:
            return False
        if isinstance(self.max_ratio, UnboundedRatio):
            return True
        return self.max_ratio > self.theoretical_bound * (1.0 + slack)


def _ratio_gt(a: float | UnboundedRatio, b: float | UnboundedRatio | None) -> bool:
    if b is None:
        return True
    if isinstance(a, UnboundedRatio):
        return not isinstance(b, UnboundedRatio)
    if isinstance(b, UnboundedRatio):
        return False
    return a > b


def adversarial_search(
    grid: AdversaryGrid,
    strategy: OfferStrategy,
    spec: StorageSpec,
    theoretical_bound: float | None = None,
) -> WorstCaseReport:
    """Measure the profit ratio on every instance of the grid.

    Returns the maximum ratio, the maximizing trace, and the per-bucket
    maxima keyed by the minimum storage level the strategy reached (grid
    units, rounded), with the oracle on the grid's storage quantization and
    the default penalty.  Raises BudgetExceededError before enumerating a
    grid larger than the configured budget.
    """
    disc = grid.disc
    penalty = PenaltyParams()
    if grid.instance_count > grid.budget:
        raise BudgetExceededError(
            f"grid holds {grid.instance_count} instances, budget is {grid.budget}"
        )

    slot_choices = list(itertools.product(grid.price_levels, grid.supply_levels))
    best: float | UnboundedRatio | None = None
    argmax: Trace | None = None
    buckets: dict[float, float | UnboundedRatio] = {}
    count = 0
    for combo in itertools.product(slot_choices, repeat=grid.horizon):
        trace = Trace.from_series([c[0] for c in combo], [c[1] for c in combo])
        opt = offline_opt_dp(trace, spec, disc).total_profit
        run = simulate_run(trace, spec, penalty, strategy)
        ratio = profit_ratio(opt, run.total_profit)
        count += 1
        bucket = round(run.min_level(spec.initial_level) / disc.eta) * disc.eta
        if _ratio_gt(ratio, buckets.get(bucket)):
            buckets[bucket] = ratio
        if _ratio_gt(ratio, best):
            best = ratio
            argmax = trace
    assert best is not None
    return WorstCaseReport(
        max_ratio=best,
        argmax_instance=argmax,
        theoretical_bound=theoretical_bound,
        bucket_ratios=buckets,
        instances=count,
    )
