"""Shared defaults for the test suite: one parameterization used throughout.

Storage of 20 MWh at 10 MWh/h rates, prices in [10, 40] (theta = 4), wind
plant of 10 MW, loss-making over-commitment penalty.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from hourahead import PenaltyParams, PriceBounds, StorageSpec, ThresholdPolicy, Trace
from hourahead.traces import realize_outputs, synthesize


@pytest.fixture
def bounds() -> PriceBounds:
    return PriceBounds(10.0, 40.0)


@pytest.fixture
def spec() -> StorageSpec:
    return StorageSpec(20.0, 10.0, 10.0)


@pytest.fixture
def penalty() -> PenaltyParams:
    return PenaltyParams()


@pytest.fixture
def policy(bounds, spec) -> ThresholdPolicy:
    return ThresholdPolicy.build(bounds, spec.capacity)


def synthetic_trace(seed: int, horizon: int, bounds: PriceBounds) -> Trace:
    return synthesize(np.random.default_rng(seed), horizon, bounds, 10.0)


def forecast_and_realized(
    seed: int, horizon: int, bounds: PriceBounds, e_max: float
) -> tuple[Trace, Trace]:
    """A forecast trace plus the realized trace within the error band."""
    rng = np.random.default_rng(seed)
    forecast = synthesize(rng, horizon, bounds, 10.0)
    realized = realize_outputs(rng, forecast.outputs, e_max)
    return forecast, Trace(forecast.prices, realized)


def non_negative(high: float):
    """Hypothesis floats in [0, high] that include -0.0, which the builtin
    min and max pass on when it ties with 0.0."""
    return st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, high))
