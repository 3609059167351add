"""The benchmark's tracer replaces package attributes by name; each must exist
and be the one the package calls.

A clean-up that drops an import no package code calls (the strategy
factories in ``cli``, say), or an offer book that lacks what the tracer
reads from every book (``len``, ``total_volume``, ``settle_offer``), would
make every traced benchmark batch fail while the rest of this suite stays
green. One that calls a function other than the one the tracer wraps (the
oracle, say, or a strategy factory bound before the tracer swaps it) would
run untraced, and the per-layer counts of a traced run would read 0.
"""
import importlib.util
from pathlib import Path

import pytest

from hourahead import cli, simulate_run
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
    trace, predicted = draw_instance(cfg, 0)
    callback = STRATEGIES[name](cfg.strategy, predicted)
    recorder = tracer.Tracer(tmp_path)
    traced = simulate_run(trace, cfg.spec, cfg.penalty, recorder.wrap_callback(name, callback))
    assert traced == simulate_run(trace, cfg.spec, cfg.penalty, callback)
    assert len(recorder.spans()) == trace.horizon


def traced_metrics(tracer, tmp_path, argv: list[str]) -> dict[str, float]:
    """The tracer's per-layer metrics of one in-process command-line run."""
    recorder = tracer.Tracer(tmp_path)
    recorder.install()
    try:
        assert cli.main(argv) == 0
    finally:
        recorder.uninstall()
    return recorder.layer_metrics(1.0)


COMPARE = ["compare", "--runs", "1", "--horizon", "24", "--seed", "7"]


def test_traced_compare_counts(tracer, tmp_path):
    m = traced_metrics(tracer, tmp_path, COMPARE)
    assert (m["oracle.calls"], m["oracle.cells"], m["market.calls"]) == (1, 24 * 401, 4)
    assert [m[f"strategies.{name}.books"] for name in tracer.STRATEGIES] == [24] * 4
    # offers per book and the committed share of what was offered, as the
    # tracer reads them from each book (len, total_volume, settle_offer): 6 of
    # socs's 24 books and 2 of fonline's offer a zero volume, which counts 0 offers
    assert (m["strategies.socs.offers_per_book"], m["strategies.socs.fill_ratio"]) == (0.75, 1.0)
    fonline = m["strategies.fonline.offers_per_book"], m["strategies.fonline.fill_ratio"]
    assert fonline == (22 / 24, 0.18691859126298715)


def test_traced_sweep_counts(tracer, tmp_path):
    # one oracle call and socs plus three ladders, each through a traced name
    m = traced_metrics(tracer, tmp_path, COMPARE + ["--sweep-offers", "1-3"])
    assert (m["oracle.calls"], m["market.calls"]) == (1, 4)
    assert (m["strategies.socs.books"], m["strategies.ocsmb.books"]) == (24, 3 * 24)


def test_traced_adversary_counts(tracer, tmp_path):
    argv = ["adversary", "--horizon", "2", "--capacity", "4", "--levels", "4"]
    assert traced_metrics(tracer, tmp_path, argv)["adversary.instances"] == 144
