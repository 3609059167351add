"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The synthetic suite used
throughout is the default parameterization: 20 MWh storage at 10 MWh/h,
prices in [10, 40], 10 MW wind.
"""
import math
import time
from dataclasses import replace

import numpy as np

from hourahead import (
    DiscretizationConfig,
    PenaltyParams,
    PriceBounds,
    StorageSpec,
    StrategyConfig,
    ThresholdPolicy,
    Trace,
    offline_opt_dp,
    simulate_run,
    theoretical_cr,
)
from hourahead.adversary import AdversaryGrid, StepFunction, adversarial_search, local_cr_closed_form
from hourahead.cli import main
from hourahead.strategies import (
    fixed_threshold_strategy,
    mocsmb_strategy,
    ocsmb_strategy,
    socs_strategy,
)
from hourahead.traces import realize_outputs, synthesize

from oracle_reference import empirical_cr, offline_opt_exhaustive

SUITE_BOUNDS = PriceBounds(10.0, 40.0)
SUITE_SPEC = StorageSpec(20.0, 10.0, 10.0)
SUITE_PENALTY = PenaltyParams()
SUITE_POLICY = ThresholdPolicy.build(SUITE_BOUNDS, SUITE_SPEC.capacity)


def suite_instance(seed, horizon=48, e_max=0.0):
    """Forecast and realized trace of the default synthetic suite."""
    rng = np.random.default_rng(seed)
    forecast = synthesize(rng, horizon, SUITE_BOUNDS, 10.0)
    realized = realize_outputs(rng, forecast.outputs, e_max)
    return forecast, Trace(forecast.prices, realized)


def report(criterion, detail, elapsed):
    print(f"\n[PASS] criterion {criterion}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_cr_closed_form(capsys):
    start = time.time()
    table = {13.44: 4.37, 5.32: 3.38, 3.63: 2.95, 50.0: 5.74}
    for theta, expected in table.items():
        assert abs(theoretical_cr(theta) - expected) <= 0.005
    assert main(["cr-table"]) == 0
    out = capsys.readouterr().out
    for row in ("13.44,4.37", "5.32,3.38", "3.63,2.95", "50,5.74"):
        assert row in out
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "guarantee formula reproduces all published ratios within 0.005", elapsed)


def test_criterion_2_threshold_identities(capsys):
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        capacity = float(rng.uniform(0.5, 100.0))
        theta = float(rng.uniform(1.01, 100.0))
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * theta), capacity)
        p_max = pol.bounds.p_max
        assert abs(pol.eval_g(0.0) - p_max) <= 1e-9 * p_max
        assert pol.eval_g(pol.c_th) == pol.bounds.p_min
        values = [pol.eval_g(capacity * k / 9999) for k in range(10000)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        for frac in rng.uniform(0.0, 1.0, 10):
            z = float(frac) * pol.c_th
            price = pol.eval_g(z)
            if price > pol.bounds.p_min:
                back = pol.eval_g_inverse(price)
                assert abs(back - z) <= 1e-9 * max(z, 1.0)
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        report(2, "curve identities hold for 50 random (capacity, theta) pairs", elapsed)


def test_criterion_3_no_over_commitment(capsys):
    start = time.time()
    slots_per_config = 10_000
    horizon = 100
    runs = slots_per_config // horizon

    checked = 0
    for run in range(runs):
        _, trace = suite_instance(run, horizon)
        cfg = StrategyConfig(SUITE_POLICY, SUITE_SPEC)
        result = simulate_run(trace, SUITE_SPEC, SUITE_PENALTY, socs_strategy(cfg))
        assert all(y == 0.0 for y in result.over_commitments)
        checked += result.horizon

    for e_max in (0.1, 0.3, 0.49):
        for run in range(runs):
            forecast, trace = suite_instance(run + 1000, horizon, e_max)
            cfg = StrategyConfig(SUITE_POLICY, SUITE_SPEC, offers=10, e_max=e_max)
            result = simulate_run(
                trace, SUITE_SPEC, SUITE_PENALTY, mocsmb_strategy(cfg, forecast.outputs)
            )
            assert all(y == 0.0 for y in result.over_commitments)
            checked += result.horizon

    elapsed = time.time() - start
    with capsys.disabled():
        report(3, f"zero over-commitment on {checked} slots (exact and banded output)", elapsed)


def test_criterion_4_oracle_soundness(capsys):
    start = time.time()
    # part 1: value iteration equals brute force, exactly, on tiny instances
    rng = np.random.default_rng(77)
    for _ in range(1000):
        horizon = int(rng.integers(1, 5))
        levels = int(rng.integers(1, 7))
        eta = float(rng.choice([0.25, 0.5, 1.0]))
        spec = StorageSpec(
            levels * eta,
            float(rng.uniform(0.0, levels * eta)),
            float(rng.uniform(0.0, levels * eta)),
            float(rng.uniform(0.0, levels * eta)),
        )
        u_cap = max((12 - 1 - levels) * eta, eta)
        trace = Trace(
            rng.uniform(1.0, 50.0, horizon).tolist(),
            rng.uniform(0.0, u_cap, horizon).tolist(),
        )
        disc = DiscretizationConfig(levels)
        assert (
            offline_opt_dp(trace, spec, disc).total_profit
            == offline_opt_exhaustive(trace, spec, disc).total_profit
        )

    # part 2: the quantized optimum plus one quantum per slot dominates every
    # strategy on synthetic runs
    horizon = 120
    disc = DiscretizationConfig(100)
    slack = SUITE_BOUNDS.p_max * disc.quantum(SUITE_SPEC.capacity) * horizon
    cfg = StrategyConfig(SUITE_POLICY, SUITE_SPEC, offers=10, e_max=0.1)
    for run in range(200):
        forecast, trace = suite_instance(run, horizon, e_max=0.1)
        opt = offline_opt_dp(trace, SUITE_SPEC, disc).total_profit
        strategies = (
            socs_strategy(cfg),
            ocsmb_strategy(cfg),
            mocsmb_strategy(cfg, forecast.outputs),
        )
        for strategy in strategies:
            profit = simulate_run(trace, SUITE_SPEC, SUITE_PENALTY, strategy).total_profit
            assert opt + slack >= profit
    elapsed = time.time() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(4, "DP == exhaustive on 1000 instances; DP dominates on 200 runs", elapsed)


def test_criterion_5_worst_case_certification(capsys):
    start = time.time()
    capacity = 4.0
    details = []
    for theta in (2.0, 4.0, 10.0):
        bounds = PriceBounds(10.0, 10.0 * theta)
        # rate-unconstrained storage, starting full: the analyzed regime
        spec = StorageSpec(capacity, capacity, capacity)
        pol = ThresholdPolicy.build(bounds, capacity)
        grid = AdversaryGrid.geometric(
            bounds, capacity, horizon=4, price_count=4, supply_count=3, levels=4
        )
        rep = adversarial_search(grid, socs_strategy(StrategyConfig(pol, spec)), spec)
        assert rep.max_ratio < math.inf
        assert rep.max_ratio <= pol.cr_value * 1.05
        assert max(rep.bucket_ratios.values()) == rep.max_ratio
        details.append(f"theta={theta:g}: {rep.max_ratio:.3f} <= {pol.cr_value:.3f}*1.05")

    # stubborn fixed threshold above p_min: earns nothing on an all-low trace
    spec = StorageSpec(capacity, capacity, capacity)
    low_trace = Trace([10.0] * 4, [1.0] * 4)
    disc = DiscretizationConfig(4)
    ratio = empirical_cr(
        low_trace, spec, SUITE_PENALTY, fixed_threshold_strategy(20.0, spec), disc
    )
    assert ratio == math.inf

    # always-sell floor policy: never worse than theta
    bounds = PriceBounds(10.0, 40.0)
    grid = AdversaryGrid.geometric(bounds, capacity, horizon=4, levels=4)
    rep = adversarial_search(grid, fixed_threshold_strategy(bounds.p_min, spec), spec)
    assert rep.max_ratio <= bounds.theta + 1e-9

    elapsed = time.time() - start
    with capsys.disabled():
        report(5, "; ".join(details) + "; pathologies behave as predicted", elapsed)


def test_criterion_6_multi_offer_bound(capsys):
    start = time.time()
    theta = SUITE_BOUNDS.theta
    cr = theoretical_cr(theta)
    horizon = 48
    disc = DiscretizationConfig(100)
    counts = (2, 3, 5, 10)
    worst = {m: 0.0 for m in counts}
    totals = {m: 0.0 for m in counts}
    socs_total = 0.0
    for run in range(500):
        _, trace = suite_instance(run, horizon)
        opt = offline_opt_dp(trace, SUITE_SPEC, disc).total_profit
        socs_total += simulate_run(
            trace, SUITE_SPEC, SUITE_PENALTY, socs_strategy(StrategyConfig(SUITE_POLICY, SUITE_SPEC))
        ).total_profit
        for m in counts:
            cfg = StrategyConfig(SUITE_POLICY, SUITE_SPEC, offers=m)
            profit = simulate_run(
                trace, SUITE_SPEC, SUITE_PENALTY, ocsmb_strategy(cfg)
            ).total_profit
            assert profit > 0.0
            worst[m] = max(worst[m], opt / profit)
            totals[m] += profit
    for m in counts:
        bound = (1.0 + cr * theta / m**2) * cr
        assert worst[m] < bound
    assert totals[3] >= 0.9 * socs_total
    elapsed = time.time() - start
    detail = ", ".join(f"m={m}: {worst[m]:.3f}<{(1 + cr * theta / m**2) * cr:.2f}" for m in counts)
    with capsys.disabled():
        report(6, f"ratio bounds hold on 500 instances ({detail}); "
                  f"m=3 earns {totals[3] / socs_total:.1%} of known-price", elapsed)


def test_criterion_7_forecast_error_bound(capsys):
    start = time.time()
    horizon = 48
    for e_max in (0.1, 0.2, 0.4):
        cfg = StrategyConfig(SUITE_POLICY, SUITE_SPEC, offers=10, e_max=e_max)
        for run in range(500):
            forecast, trace = suite_instance(run, horizon, e_max)
            exact = simulate_run(trace, SUITE_SPEC, SUITE_PENALTY, ocsmb_strategy(cfg))
            hedged = simulate_run(
                trace, SUITE_SPEC, SUITE_PENALTY, mocsmb_strategy(cfg, forecast.outputs)
            )
            assert hedged.total_profit >= (1.0 - 2.0 * e_max) * exact.total_profit - 1e-9

    # zero error: bit-identical offer books across a state sweep
    from hourahead.strategies import mocsmb_offers, ocsmb_offers

    cfg = StrategyConfig(SUITE_POLICY, SUITE_SPEC, offers=10, e_max=0.2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = float(rng.uniform(0.0, 10.0))
        z = float(rng.uniform(0.0, 20.0))
        assert mocsmb_offers(replace(cfg, e_max=0.0), u, z) == ocsmb_offers(cfg, u, z)
    elapsed = time.time() - start
    with capsys.disabled():
        report(7, "hedged ladder beats the (1 - 2 e_max) floor on every instance; "
                  "zero error gives identical books", elapsed)


def test_criterion_8_local_ratio_numerics(capsys):
    start = time.time()
    details = []
    for theta in (2.0, 10.0, 50.0):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * theta), 20.0)
        sf = StepFunction.from_policy(pol, interior_steps=200)
        ratios = [local_cr_closed_form(sf, i) for i in range(1, sf.n)]
        spread = (max(ratios) - min(ratios)) / min(ratios)
        cr = theoretical_cr(theta)
        assert spread <= 0.02
        assert abs(max(ratios) - cr) <= 0.02 * cr
        details.append(f"theta={theta:g}: spread={spread:.2%}")
    elapsed = time.time() - start
    with capsys.disabled():
        report(8, "local ratios equalize within 2% and match the closed form: "
                  + ", ".join(details), elapsed)


def test_criterion_9_reproducibility(tmp_path, capsys):
    start = time.time()
    args = ["compare", "--runs", "100", "--horizon", "360", "--seed", "7"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    third = tmp_path / "parallel.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert main(args + ["--out", str(third), "--parallel"]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == third.read_bytes()
    elapsed = time.time() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(9, "100x360 comparison is byte-identical across reruns and "
                  "across serial/parallel execution", elapsed)
