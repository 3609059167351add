"""The benchmark's tracer replaces package attributes by name; each must exist.

A clean-up that drops an import no package code calls (the strategy
factories in ``cli``, say), or an offer book that lacks what the tracer
reads from every book (``len``, ``total_volume``, ``settle_offer``), would
make every traced benchmark batch fail while the rest of this suite stays
green.
"""
import importlib.util
from pathlib import Path

import pytest

from hourahead import StrategyConfig, ThresholdPolicy, simulate_run
from hourahead.experiment import STRATEGIES, ExperimentConfig, draw_instance

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_callable(tracer):
    hooks = [(module, attr) for module, attr, _span in tracer.ENTRY_POINTS + tracer.FACTORIES]
    assert hooks
    missing = [f"{m.__name__}.{attr}" for m, attr in hooks if not callable(getattr(m, attr, None))]
    assert missing == []


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_traced_callback_runs_like_untraced(name, tracer, tmp_path):
    cfg = ExperimentConfig(horizon=48, seed=7)
    policy = ThresholdPolicy.build(cfg.bounds, cfg.spec.capacity)
    strat_cfg = StrategyConfig(policy, cfg.spec, offers=cfg.offers, e_max=cfg.e_max)
    trace, predicted = draw_instance(cfg, 0)
    callback = STRATEGIES[name](strat_cfg, predicted)
    recorder = tracer.Tracer(tmp_path)
    traced = simulate_run(trace, cfg.spec, cfg.penalty, recorder.wrap_callback(name, callback))
    assert traced == simulate_run(trace, cfg.spec, cfg.penalty, callback)
    assert len(recorder.spans()) == trace.horizon
