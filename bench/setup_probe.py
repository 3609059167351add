"""Fresh-interpreter set-up of one benchmark workload.

Usage: python3 bench/setup_probe.py <workload> <hourahead argv...>

Imports the package and builds what the workload needs before its first
instance: the parsed command line, the experiment config or adversary grid,
and the threshold policy. It prints the seconds that took, from the first
line of this script, and exits; run.py reports the median over several
fresh interpreters as the ``setup_s`` metric.
"""
from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hourahead import cli  # noqa: E402
from hourahead.adversary import AdversaryGrid  # noqa: E402
from hourahead.experiment import ExperimentConfig  # noqa: E402
from hourahead.market import PriceBounds  # noqa: E402
from hourahead.policy import ThresholdPolicy  # noqa: E402

workload, argv = sys.argv[1], sys.argv[2:]
args = cli.build_parser().parse_args(argv)
if workload == "adversary":
    bounds = PriceBounds(args.pmin, args.pmax)
    AdversaryGrid.geometric(
        bounds, args.capacity, horizon=args.horizon, levels=args.levels, budget=args.budget
    )
    ThresholdPolicy.build(bounds, args.capacity)
else:
    cfg = ExperimentConfig(
        runs=args.runs,
        horizon=args.horizon,
        seed=args.seed,
        bounds=PriceBounds(args.pmin, args.pmax),
    )
    ThresholdPolicy.build(cfg.bounds, cfg.spec.capacity)
print(perf_counter() - START)
