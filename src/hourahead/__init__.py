"""Online offering strategies for a storage-assisted renewable producer.

Library layout:

* ``market``     - data model, settlement, storage dynamics, simulation loop
* ``policy``     - adaptive price threshold over the storage level
* ``strategies`` - the online strategies and the fixed-threshold baselines
* ``oracle``     - clairvoyant optimum over a quantized storage grid
* ``adversary``  - exhaustive worst-case search over small instance grids
* ``traces``     - CSV ingestion and seeded synthetic generation
* ``experiment`` - multi-run orchestration and report emission
* ``cli``        - the ``hourahead`` command-line interface
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    InstanceTooLargeError,
    TraceParseError,
    ValidationError,
)
from .market import (
    EMPTY_BOOK,
    OfferBook,
    PenaltyParams,
    PriceBounds,
    RunResult,
    StorageSpec,
    Trace,
    settle_offer,
    simulate_run,
)
from .oracle import DiscretizationConfig, OptResult, offline_opt_dp
from .policy import ThresholdPolicy, c_threshold, theoretical_cr
from .strategies import Ladder, StrategyConfig, nostorage_profit

__all__ = [
    "BudgetExceededError",
    "DiscretizationConfig",
    "EMPTY_BOOK",
    "InstanceTooLargeError",
    "Ladder",
    "OfferBook",
    "OptResult",
    "PenaltyParams",
    "PriceBounds",
    "RunResult",
    "StorageSpec",
    "StrategyConfig",
    "Trace",
    "TraceParseError",
    "ThresholdPolicy",
    "ValidationError",
    "c_threshold",
    "nostorage_profit",
    "offline_opt_dp",
    "settle_offer",
    "simulate_run",
    "theoretical_cr",
]
