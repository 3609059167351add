"""Adaptive price threshold over the storage level.

The policy maps the (post-charge) storage level to the minimum acceptable
sale price: exponential in the level until the threshold level ``c_th`` is
reached, then flat at ``p_min``.  Its shape is what makes the known-price
strategy worst-case optimal, and the guaranteed profit ratio has a closed
form in the price fluctuation ratio theta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .market import PriceBounds


def theoretical_cr(theta: float) -> float:
    """Optimal worst-case profit ratio achievable for fluctuation ratio theta.

    Equals (2 + ln(theta) + sqrt(ln(theta)^2 + 4 ln(theta))) / 2.  Natural
    logarithm; strictly increasing in theta; equals 1 at theta == 1.
    """
    if theta < 1.0:
        raise ValidationError(f"theta must be >= 1, got {theta}")
    log_t = math.log(theta)
    return (2.0 + log_t + math.sqrt(log_t * log_t + 4.0 * log_t)) / 2.0


def c_threshold(capacity: float, theta: float) -> float:
    """Storage level beyond which the policy sells at any price.

    Equals capacity * (1 - 1 / theoretical_cr(theta)); zero when theta == 1.
    """
    if capacity <= 0.0:
        raise ValidationError(f"capacity must be positive, got {capacity}")
    return capacity - capacity / theoretical_cr(theta)


@dataclass(frozen=True)
class CrReport:
    """One row of the guarantee table: fluctuation ratio and its bound."""

    theta: float
    theoretical_cr: float


def cr_table(thetas: list[float]) -> list[CrReport]:
    """Guarantee bound for each fluctuation ratio, table form."""
    return [CrReport(theta, theoretical_cr(theta)) for theta in thetas]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Frozen threshold curve for one (price bounds, capacity) pair.

    ``c_th`` is the sell-at-any-price level, ``l_n = capacity - c_th`` the
    width of the flat tail, and ``cr_value = capacity / l_n`` the worst-case
    profit ratio the curve guarantees.
    """

    bounds: PriceBounds
    capacity: float
    c_th: float
    l_n: float
    cr_value: float

    @classmethod
    def build(cls, bounds: PriceBounds, capacity: float) -> "ThresholdPolicy":
        cr = theoretical_cr(bounds.theta)
        c_th = c_threshold(capacity, bounds.theta)
        return cls(
            bounds=bounds,
            capacity=capacity,
            c_th=c_th,
            l_n=capacity - c_th,
            cr_value=cr,
        )

    def eval_g(self, z: float) -> float:
        """Threshold price at storage level z.

        Continuous, non-increasing, ``p_max`` at 0 and ``p_min`` from
        ``c_th`` on.
        """
        if z < -1e-12 * self.capacity or z > self.capacity * (1.0 + 1e-12):
            raise ValidationError(f"level {z} outside [0, {self.capacity}]")
        z = max(z, 0.0)
        p_min = self.bounds.p_min
        if z >= self.c_th:
            return p_min
        return p_min * math.exp((self.c_th - z) * self.c_th / (self.capacity * self.l_n))

    def eval_g_inverse(self, price: float) -> float:
        """Storage level at which the threshold price equals `price`.

        Defined for price in (p_min, p_max]; the flat tail makes the inverse
        non-unique at p_min.
        """
        p_min, p_max = self.bounds.p_min, self.bounds.p_max
        if price <= p_min or price > p_max * (1.0 + 1e-12):
            raise ValidationError(
                f"price {price} outside the invertible range ({p_min}, {p_max}]"
            )
        return self.c_th - (self.capacity * self.l_n / self.c_th) * math.log(price / p_min)
