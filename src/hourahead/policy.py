"""Adaptive price threshold over the storage level.

The policy maps the (post-charge) storage level to the minimum acceptable
sale price: exponential in the level until the threshold level ``c_th`` is
reached, then flat at ``p_min``.  Its shape is what makes the known-price
strategy worst-case optimal, and the guaranteed profit ratio has a closed
form in the price fluctuation ratio theta.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError
from .market import PriceBounds


def theoretical_cr(theta: float) -> float:
    """Optimal worst-case profit ratio achievable for fluctuation ratio theta.

    Equals (2 + ln(theta) + sqrt(ln(theta)^2 + 4 ln(theta))) / 2.  Natural
    logarithm; strictly increasing in theta; equals 1 at theta == 1.
    """
    if not 1.0 <= theta < math.inf:
        raise ValidationError(f"theta must be finite and >= 1, got {theta}")
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

    def __post_init__(self):
        # eval_g's and eval_g_inverse's constants, set once as the fields are (a
        # write to __dict__ would slow every lookup); at theta == 1 (c_th == 0)
        # the slope is 0.0, so every price in range inverts to c_th
        c, c_th, c_l, bounds = self.capacity, self.c_th, self.capacity * self.l_n, self.bounds
        if not (math.isfinite(c * c) and c_l >= sys.float_info.min):  # NaN fails too
            raise ValidationError(f"capacity {c} is too large or too small for the threshold curve")
        p_hi = bounds.p_max * (1.0 + 1e-12)
        slope = c_l / c_th if c_th else 0.0
        # _z_tol: 10^6 times the few eps * (C + slope * (ln theta + 2)) by which
        # rounding can move a threshold level; inf where a subnormal p_min
        # rounds p_min * exp(a) to a coarse absolute grid
        normal = bounds.p_min >= sys.float_info.min
        z_tol = 1e-9 * (c + slope * (3.0 * math.log(bounds.theta) + 4.0)) if normal else math.inf
        values = -1e-12 * c, c * (1.0 + 1e-12), c_l, p_hi, slope, z_tol
        for name, value in zip(("_z_lo", "_z_hi", "_c_l", "_p_hi", "_slope", "_z_tol"), values):
            object.__setattr__(self, name, value)

    @classmethod
    def build(cls, bounds: PriceBounds, capacity: float) -> "ThresholdPolicy":
        cr = theoretical_cr(bounds.theta)
        c_th = c_threshold(capacity, bounds.theta)
        return cls(bounds=bounds, capacity=capacity, c_th=c_th, l_n=capacity - c_th, cr_value=cr)

    def eval_g(self, z: float) -> float:
        """Threshold price at storage level z.

        Continuous, non-increasing, ``p_max`` at 0 and ``p_min`` from
        ``c_th`` on.
        """
        if not self._z_lo <= z <= self._z_hi:  # NaN fails too
            raise ValidationError(f"level {z} outside [0, {self.capacity}]")
        if z < 0.0:  # max(z, 0.0) without the builtin's call cost
            z = 0.0
        p_min = self.bounds.p_min
        if z >= self.c_th:
            return p_min
        return p_min * math.exp((self.c_th - z) * self.c_th / self._c_l)

    def eval_g_inverse(self, price: float) -> float:
        """Storage level at which the threshold price equals `price`.

        Defined for price in [p_min, p_max]; p_min, where the flat tail
        starts, inverts to its least level c_th.
        """
        p_min = self.bounds.p_min
        if not p_min <= price <= self._p_hi:  # NaN fails too
            raise ValidationError(f"price {price} outside g's range [{p_min}, {self.bounds.p_max}]")
        return self.c_th - self._slope * math.log(price / p_min)
