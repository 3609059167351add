"""Test-only step-function numerics of the threshold curve.

The paper proves socs's ratio best possible by cutting the threshold curve
into price steps and equalizing the local ratio of each step.  These helpers
check that argument numerically:

* ``StepFunction`` is a threshold curve as price steps over storage-level
  intervals, and ``StepFunction.from_policy`` discretizes a policy's curve.
* ``local_cr_closed_form`` is the closed-form local ratio of one step.
* ``step_lengths_from_equalization`` gives the interior step lengths that
  equalize the local ratios.
"""
from __future__ import annotations

from dataclasses import dataclass

from hourahead import ThresholdPolicy, ValidationError


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
