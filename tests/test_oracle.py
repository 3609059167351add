import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hourahead import (
    DiscretizationConfig,
    InstanceTooLargeError,
    StorageSpec,
    Trace,
    ValidationError,
    offline_opt_dp,
    simulate_run,
)
from hourahead import oracle
from hourahead.experiment import ExperimentConfig, draw_instance
from hourahead.market import EMPTY_BOOK, OfferBook
from hourahead.oracle import _quantize, profit_ratios, ratio_json
from hourahead.strategies import StrategyConfig, socs_strategy

from conftest import non_negative, synthetic_trace
from oracle_reference import (
    empirical_cr,
    offline_opt_dp_reference,
    offline_opt_exhaustive,
    profit_ratio,
)


def random_tiny_instance(rng):
    horizon = int(rng.integers(1, 5))
    levels = int(rng.integers(1, 7))
    eta = float(rng.choice([0.25, 0.5, 1.0]))
    capacity = levels * eta
    spec = StorageSpec(
        capacity,
        float(rng.uniform(0.0, capacity)),
        float(rng.uniform(0.0, capacity)),
        float(rng.uniform(0.0, capacity)),
    )
    # keep the per-slot action count within the exhaustive guard
    u_cap = max((12 - 1 - levels) * eta, eta)
    trace = Trace(
        rng.uniform(1.0, 50.0, horizon).tolist(),
        rng.uniform(0.0, u_cap, horizon).tolist(),
    )
    return trace, spec, DiscretizationConfig(levels)


class TestDiscretization:
    def test_tiles_capacity(self):
        eta, *_units = _quantize([], StorageSpec(20.0, 10.0, 10.0), DiscretizationConfig(400))
        assert (eta, 400 * eta) == (0.05, 20.0)

    def test_quantum_follows_the_spec(self):
        # one grid over two capacities: each spec is quantized by its own C / levels
        disc = DiscretizationConfig(4)
        trace = Trace([10.0, 20.0], [2.0, 0.0])
        for capacity in (4.0, 8.0):
            spec = StorageSpec(capacity, capacity, capacity, 0.0)
            assert _quantize(trace.outputs, spec, disc)[0] == capacity / 4
            assert offline_opt_dp(trace, spec, disc).total_profit == 40.0

    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            DiscretizationConfig(-1)

    def test_zero_levels_rejected_before_dividing(self):
        with pytest.raises(ValidationError, match="level count must be >= 1"):
            DiscretizationConfig(0)

    def test_rejects_a_zero_quantum(self):
        # 4 levels of the least positive float round down to a quantum of 0.0
        with pytest.raises(ValidationError, match="no quantum"):
            DiscretizationConfig(4).quantum(5e-324)


class TestQuantizeMatchesUnits:
    """_quantize floors every output in one array expression: the ints of
    _units per output, and _units' error for the first output that overflows."""

    SPEC, DISC = StorageSpec(20.0, 10.0, 10.0), DiscretizationConfig(400)  # eta 0.05

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                non_negative(1e3),
                st.integers(0, 10**6).map(lambda k: k * 0.05),  # on the grid
                st.integers(1, 10**6).map(lambda k: math.nextafter(k * 0.05, 0.0)),
                st.integers(0, 10**6).map(lambda k: math.nextafter(k * 0.05, 1.0)),
                st.floats(2.0**63 * 0.05, 8e306),  # counts beyond int64, still finite
            ),
            max_size=12,
        )
    )
    @example([0.0, -0.0, 0.05, 0.1, 0.15000000000000002, 0.3, 2.0**63 * 0.05, 1e30 * 0.05])
    def test_counts_equal_per_output_units(self, outputs):
        eta, counts, *_ = _quantize(outputs, self.SPEC, self.DISC)
        assert counts == [oracle._units(u, eta) for u in outputs]
        assert all(type(c) is int for c in counts)

    @pytest.mark.parametrize("outputs", [[1e308], [1.0, 1e308, 1.7e308], [1.7e308, 1e308]])
    def test_overflow_raises_the_units_error(self, outputs):
        first = next(u for u in outputs if u / 0.05 == math.inf)
        with pytest.raises(ValidationError) as expected:
            oracle._units(first, 0.05)
        for errstate in (np.errstate(), oracle.overflow_is_an_error()):
            with pytest.raises(ValidationError) as raised, errstate:
                _quantize(outputs, self.SPEC, self.DISC)
            assert str(raised.value) == str(expected.value)


class TestOfflineOptimum:
    def test_charge_then_sell(self):
        trace = Trace([10.0, 20.0], [1.0, 0.0])
        spec = StorageSpec(1.0, 1.0, 1.0, 0.0)
        disc = DiscretizationConfig(4)
        result = offline_opt_dp(trace, spec, disc)
        assert result.total_profit == 20.0
        assert result.commitment_path == (0.0, 1.0)
        assert result.level_path == (0.0, 1.0, 0.0)

    def test_ties_defer_the_sale(self):
        # selling now or next slot earns the same: the smaller commitment wins
        trace = Trace([10.0, 10.0], [0.0, 0.0])
        spec = StorageSpec(2.0, 2.0, 2.0, 2.0)
        result = offline_opt_dp(trace, spec, DiscretizationConfig(4))
        assert result.total_profit == 20.0
        assert result.commitment_path == (0.0, 2.0)

    def test_single_slot_closed_form(self):
        trace = Trace([25.0], [3.0])
        spec = StorageSpec(20.0, 10.0, 4.0, 10.0)
        disc = DiscretizationConfig(80)
        result = offline_opt_dp(trace, spec, disc)
        assert result.total_profit == pytest.approx(25.0 * (3.0 + min(10.0, 4.0)))

    def test_constant_price_sells_everything(self):
        # grid-aligned inputs, generous rates: profit is price times all energy
        trace = Trace([15.0] * 4, [2.0, 1.0, 0.0, 3.0])
        spec = StorageSpec(8.0, 8.0, 8.0, 4.0)
        disc = DiscretizationConfig(16)
        result = offline_opt_dp(trace, spec, disc)
        assert result.total_profit == pytest.approx(15.0 * (6.0 + 4.0))

    def test_agrees_with_exhaustive(self):
        rng = np.random.default_rng(42)
        for _ in range(250):
            trace, spec, disc = random_tiny_instance(rng)
            a = offline_opt_dp(trace, spec, disc)
            b = offline_opt_exhaustive(trace, spec, disc)
            assert a.total_profit == b.total_profit

    def test_path_is_feasible_and_penalty_free(self, penalty):
        rng = np.random.default_rng(7)
        for _ in range(40):
            trace, spec, disc = random_tiny_instance(rng)
            result = offline_opt_dp(trace, spec, disc)

            def replay(t, price, output, level):
                x = result.commitment_path[t]
                return OfferBook((price,), (x,)) if x > 0 else EMPTY_BOOK

            run = simulate_run(trace, spec, penalty, replay)
            assert all(over == 0.0 for _x, over, *_ in run.rows)
            assert run.total_profit == pytest.approx(result.total_profit, rel=1e-9, abs=1e-9)

    def test_monotone_in_resources(self):
        trace = Trace([10.0, 30.0, 20.0], [1.0, 0.5, 2.0])
        base = offline_opt_dp(
            trace, StorageSpec(4.0, 1.0, 1.0, 2.0), DiscretizationConfig(16)
        ).total_profit
        richer = [
            (StorageSpec(6.0, 1.0, 1.0, 2.0), DiscretizationConfig(24)),
            (StorageSpec(4.0, 2.0, 1.0, 2.0), DiscretizationConfig(16)),
            (StorageSpec(4.0, 1.0, 2.0, 2.0), DiscretizationConfig(16)),
            (StorageSpec(4.0, 1.0, 1.0, 3.0), DiscretizationConfig(16)),
        ]
        for spec, disc in richer:
            assert offline_opt_dp(trace, spec, disc).total_profit >= base

    def test_monotone_in_inputs(self):
        spec = StorageSpec(4.0, 1.0, 1.0, 2.0)
        disc = DiscretizationConfig(16)
        trace = Trace([10.0, 30.0, 20.0], [1.0, 0.5, 2.0])
        base = offline_opt_dp(trace, spec, disc).total_profit
        higher_p = Trace([12.0, 31.0, 20.0], [1.0, 0.5, 2.0])
        higher_u = Trace([10.0, 30.0, 20.0], [1.5, 0.5, 2.5])
        assert offline_opt_dp(higher_p, spec, disc).total_profit >= base
        assert offline_opt_dp(higher_u, spec, disc).total_profit >= base

    def test_refinement_never_decreases(self, bounds):
        spec = StorageSpec(20.0, 10.0, 10.0)
        trace = synthetic_trace(21, 36, bounds)
        coarse = offline_opt_dp(trace, spec, DiscretizationConfig(50))
        fine = offline_opt_dp(trace, spec, DiscretizationConfig(100))
        assert fine.total_profit >= coarse.total_profit
        gap_bound = bounds.p_max * (20.0 / 50) * trace.horizon
        assert fine.total_profit - coarse.total_profit < gap_bound

    def test_dominates_strategies(self, bounds, spec, penalty):
        disc = DiscretizationConfig(100)
        for seed in range(10):
            trace = synthetic_trace(seed, 60, bounds)
            opt = offline_opt_dp(trace, spec, disc).total_profit
            strat = simulate_run(
                trace, spec, penalty, socs_strategy(StrategyConfig(bounds, spec))
            ).total_profit
            assert opt + bounds.p_max * disc.quantum(spec.capacity) * trace.horizon >= strat


def per_action_dp(prices, outputs, rc, rd, k0, eta, n):
    """Reference grid DP with one vector update per commitment: the direct
    form of the window identity, O(T * n * (rc + rd))."""
    v = np.zeros(n + 1)
    karr = np.arange(n + 1)
    for p, uq in zip(reversed(prices), reversed(outputs)):
        best = np.full(n + 1, -np.inf)
        # commit j <= uq: the remainder charges up to rc and spills beyond n
        for j in range(max(0, uq - rc), uq + 1):
            best = np.maximum(best, p * (j * eta) + v[np.minimum(karr + (uq - j), n)])
        # commit uq + d: discharge d units, which needs level >= d
        for d in range(1, min(rd, n) + 1):
            best[d:] = np.maximum(best[d:], p * ((uq + d) * eta) + v[: n + 1 - d])
        v = best
    return float(v[k0])


@st.composite
def grid_instances(draw):
    """Grid-aligned instances, with rates and outputs from 0 to beyond n units."""
    n = draw(st.integers(1, 30))
    horizon = draw(st.integers(1, 8))
    units = st.integers(0, 2 * n + 2)
    return (
        n,
        draw(st.sampled_from([0.25, 0.5, 1.0])),
        draw(units),
        draw(units),
        draw(st.integers(0, n)),
        draw(st.lists(st.floats(1.0, 50.0), min_size=horizon, max_size=horizon)),
        draw(st.lists(units, min_size=horizon, max_size=horizon)),
    )


@settings(max_examples=150, deadline=None)
@given(instance=grid_instances())
@example(instance=(4, 0.5, 0, 0, 0, [10.0, 20.0], [0, 0]))
@example(instance=(3, 1.0, 9, 9, 3, [5.0, 30.0, 12.0], [7, 0, 9]))
@example(instance=(5, 0.25, 11, 0, 5, [40.0, 10.0], [12, 0]))
def test_window_dp_matches_per_action_dp(instance):
    n, eta, rc, rd, k0, prices, outputs = instance
    trace = Trace(prices, [u * eta for u in outputs])
    spec = StorageSpec(n * eta, rc * eta, rd * eta, k0 * eta)
    result = offline_opt_dp(trace, spec, DiscretizationConfig(n))
    expected = per_action_dp(prices, outputs, rc, rd, k0, eta, n)
    assert result.total_profit == pytest.approx(expected, rel=1e-12)

    # replay the plan on the grid: no over-commitment, and it earns the total
    k, earned = k0, 0.0
    assert result.level_path[0] == k0 * eta
    for t, (p, uq, x) in enumerate(zip(prices, outputs, result.commitment_path)):
        j = round(x / eta)
        assert x == j * eta
        assert 0 <= j <= uq + min(k, rd)
        k = min(k + min(rc, uq - j), n) if j <= uq else k - (j - uq)
        assert result.level_path[t + 1] == k * eta
        earned += p * x
    assert earned == pytest.approx(result.total_profit, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(instance=grid_instances())
@example(instance=(4, 1.0, 0, 1, 4, [1.0, 2.0, 3.0, 4.0, 5.0], [0] * 5))  # a piece per level
def test_pieces_tile_the_grid(instance):
    # after every slot the pieces cover the n levels, each at least one level,
    # slopes falling: so there are never more than n + 1 of them
    n, eta, rc, rd, k0, prices, outputs = instance
    trace = Trace(prices, [u * eta for u in outputs])
    spec = StorageSpec(n * eta, rc * eta, rd * eta, k0 * eta)
    counts = []

    def trim(lengths, neg_slopes, units, end):
        real_trim(lengths, neg_slopes, units, end)
        if end == -1:  # the slot's last trim
            assert sum(lengths) == n and min(lengths) >= 1
            assert neg_slopes == sorted(neg_slopes)
            counts.append(len(lengths))

    real_trim = oracle._trim
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_trim", trim)
        offline_opt_dp(trace, spec, DiscretizationConfig(n))
    assert len(counts) == trace.horizon and max(counts) <= n + 1


def _bits(result):
    """An OptResult's floats by their bits, so that -0.0 and 0.0 differ."""
    return (
        result.total_profit.hex(),
        [x.hex() for x in result.commitment_path],
        [x.hex() for x in result.level_path],
    )


@settings(max_examples=300, deadline=None)
@given(instance=grid_instances())
@example(instance=(4, 1.0, 0, 1, 4, [1.0, 2.0, 3.0, 4.0, 5.0], [0] * 5))  # a piece per level
@example(instance=(3, 1.0, 9, 9, 3, [5.0, 30.0, 12.0], [7, 0, 9]))  # rates beyond the grid
def test_matches_the_builtin_min_max_reference(instance):
    # the conditionals pick the operand min and max pick, so every bit agrees
    n, eta, rc, rd, k0, prices, outputs = instance
    trace = Trace(prices, [u * eta for u in outputs])
    spec = StorageSpec(n * eta, rc * eta, rd * eta, k0 * eta)
    disc = DiscretizationConfig(n)
    assert _bits(offline_opt_dp(trace, spec, disc)) == _bits(
        offline_opt_dp_reference(trace, spec, disc)
    )


def test_matches_the_builtin_min_max_reference_on_seed_7_runs():
    cfg = ExperimentConfig(horizon=360, seed=7)  # 400 levels
    for run in range(40):
        trace, _ = draw_instance(cfg, run)
        assert _bits(offline_opt_dp(trace, cfg.spec, cfg.disc)) == _bits(
            offline_opt_dp_reference(trace, cfg.spec, cfg.disc)
        ), run


@pytest.mark.parametrize("run", range(5))
def test_matches_the_linear_program(run):
    # the quantized instance as an LP over x_t, the energy stored in slot t:
    # slot t sells (u_t - x_t), x_t in [-r_d, min(r_c, u_t)] quanta, and every
    # level k0 + x_0 + ... + x_t lies in [0, n].  Its rows are intervals of
    # ones, a totally unimodular matrix, so the LP optimum is the grid optimum
    optimize = pytest.importorskip("scipy.optimize")
    cfg = ExperimentConfig(horizon=360, seed=7)  # 400 levels
    trace, _ = draw_instance(cfg, run)
    eta, u_units, rc, rd, k0 = _quantize(trace.outputs, cfg.spec, cfg.disc)
    n, horizon = cfg.disc.levels, trace.horizon
    prices = np.array(trace.prices)
    prefix = np.tril(np.ones((horizon, horizon)))
    lp = optimize.linprog(
        prices,  # minimize the value of what is stored instead of sold
        A_ub=np.vstack([prefix, -prefix]),
        b_ub=np.repeat([(n - k0) * eta, k0 * eta], horizon),
        bounds=[(-rd * eta, min(rc, u) * eta) for u in u_units],
        method="highs",
    )
    assert lp.status == 0
    expected = prices @ (np.array(u_units) * eta) - lp.fun
    got = offline_opt_dp(trace, cfg.spec, cfg.disc).total_profit
    assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(instance=grid_instances())
def test_value_is_concave_in_initial_level(instance):
    # the window-max step rests on v_0 being discretely concave in k0
    n, eta, rc, rd, _k0, prices, outputs = instance
    trace = Trace(prices, [u * eta for u in outputs])
    disc = DiscretizationConfig(n)
    values = [
        offline_opt_dp(trace, StorageSpec(n * eta, rc * eta, rd * eta, k * eta), disc).total_profit
        for k in range(n + 1)
    ]
    scale = max(prices) * eta * (n + sum(outputs))
    for a, b, c in zip(values, values[1:], values[2:]):
        assert a - 2.0 * b + c <= 1e-9 * scale


class TestExhaustiveGuards:
    def test_horizon_guard(self):
        trace = Trace([10.0] * 7, [0.0] * 7)
        with pytest.raises(InstanceTooLargeError):
            offline_opt_exhaustive(trace, StorageSpec(2.0, 1.0, 1.0), DiscretizationConfig(2))

    def test_level_guard(self):
        trace = Trace([10.0], [0.0])
        with pytest.raises(InstanceTooLargeError):
            offline_opt_exhaustive(
                trace, StorageSpec(9.0, 1.0, 1.0), DiscretizationConfig(9)
            )

    def test_action_guard(self):
        trace = Trace([10.0], [20.0])
        with pytest.raises(InstanceTooLargeError):
            offline_opt_exhaustive(
                trace, StorageSpec(4.0, 1.0, 1.0), DiscretizationConfig(4)
            )

    def test_empty_availability(self):
        trace = Trace([10.0, 20.0], [0.0, 0.0])
        spec = StorageSpec(4.0, 1.0, 1.0, 0.0)
        result = offline_opt_exhaustive(trace, spec, DiscretizationConfig(4))
        assert result.total_profit == 0.0


# profits at the ratio's branches: nothing earned, the least positive and
# negative floats, and an optimum of 3.0 with its earning threshold 1e-12 * 3.0
# and the floats next to it
PROFIT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 3.0, 3e-12]
PROFIT_EDGES += [math.nextafter(3e-12, 1.0), math.nextafter(3e-12, 0.0), -3e-12]


class TestEmpiricalRatio:
    def test_self_replay_is_one(self, bounds, spec, penalty):
        disc = DiscretizationConfig(100)
        trace = synthetic_trace(3, 40, bounds)
        opt = offline_opt_dp(trace, spec, disc)

        def replay(t, price, output, level):
            x = opt.commitment_path[t]
            return OfferBook((price,), (x,)) if x > 0 else EMPTY_BOOK

        ratio = empirical_cr(trace, spec, penalty, replay, disc)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_ratio_floor(self, bounds, spec, penalty):
        # the clairvoyant plan can lose at most one quantum per slot
        disc = DiscretizationConfig(100)
        for seed in range(6):
            trace = synthetic_trace(seed, 48, bounds)
            ratio = empirical_cr(
                trace, spec, penalty, socs_strategy(StrategyConfig(bounds, spec)), disc
            )
            profit = simulate_run(
                trace, spec, penalty, socs_strategy(StrategyConfig(bounds, spec))
            ).total_profit
            eps = bounds.p_max * disc.quantum(spec.capacity) * trace.horizon / profit
            assert ratio >= 1.0 - eps

    def test_unbounded_sentinel(self, penalty):
        trace = Trace([10.0, 10.0], [1.0, 1.0])
        spec = StorageSpec(4.0, 1.0, 1.0, 2.0)
        disc = DiscretizationConfig(8)

        def silent(t, price, output, level):
            return EMPTY_BOOK

        assert empirical_cr(trace, spec, penalty, silent, disc) == math.inf

    def test_both_zero_is_one(self):
        assert profit_ratio(0.0, 0.0) == 1.0

    def test_branches_at_the_earning_threshold(self):
        # a strategy earns above 1e-12 of a positive optimum, at any scale
        for opt in (3.0, 3e-300, 3e300):
            threshold = 1e-12 * opt
            earning = math.nextafter(threshold, math.inf)
            assert profit_ratio(opt, earning) == opt / earning
            assert profit_ratio(opt, threshold) == math.inf
            assert profit_ratio(opt, 0.0) == math.inf
        # a least positive optimum is something to earn; none or less is nothing
        assert profit_ratio(5e-324, 0.0) == math.inf
        assert profit_ratio(0.0, -0.0) == profit_ratio(-1.0, 0.0) == 1.0
        assert profit_ratio(0.0, 5e-324) == 0.0  # any profit earns against none
        assert type(profit_ratio(3.0, 2.0)) is float

    @settings(max_examples=300)
    @given(
        opt=st.one_of(st.sampled_from(PROFIT_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
        profits=st.lists(
            st.one_of(st.sampled_from(PROFIT_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1,
            max_size=6,
        ),
    )
    @example(opt=1e308, profits=[1e-11, -1e308, 1e296, math.nextafter(1e296, 1e300), -0.0])
    @example(opt=-1.0, profits=[0.0, -0.0, 5e-324, -5e-324, -1.0])
    def test_batched_ratios_equal_one_at_a_time(self, opt, profits):
        batched = profit_ratios(opt, np.array(profits)).tolist()
        assert [r.hex() for r in batched] == [profit_ratio(opt, p).hex() for p in profits]

    def test_overflowing_ratio_is_a_quiet_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profit_ratio(1e308, 1e-11) == math.inf

    @pytest.mark.parametrize("opt, strat", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 0.0)])
    def test_rejects_a_profit_that_is_not_finite(self, opt, strat):
        with pytest.raises(ValidationError, match="not finite"):
            profit_ratio(opt, strat)
        with pytest.raises(ValidationError, match="not finite"):
            profit_ratios(np.array([2.0, opt]), np.array([1.0, strat]))

    @pytest.mark.parametrize(
        "spec, prices, outputs", [(StorageSpec(4.0, 4.0, 4.0), [1e308, 1e308], [4.0, 4.0])]
    )
    def test_dp_overflow_is_an_error(self, spec, prices, outputs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning
            with pytest.raises(ValidationError, match="not finite"):
                offline_opt_dp(Trace(prices, outputs), spec, DiscretizationConfig(4))

    def test_optimum_next_to_the_float_limit(self):
        # the grid optimum is 1.68e308, and the per-level grid DP's window keys
        # overflow on the way to it (that DP once returned 1.57e308, a finite
        # total below the optimum); the pieces reach it exactly
        trace = Trace(
            [1.689542699392248e307, 2.354240057289615e307, 5.176769962146966e306],
            [5.0, 2.0, 0.0],
        )
        spec, disc = StorageSpec(4.0, 4.0, 3.0, 1.0), DiscretizationConfig(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = offline_opt_dp(trace, spec, disc)
        assert got == offline_opt_exhaustive(trace, spec, disc)
        assert got.total_profit == 1.683982838462482e308

    def test_unbounded_is_inf_and_prints_as_unbounded(self):
        assert profit_ratio(1.0, 0.0) == math.inf
        assert ratio_json(math.inf) == "unbounded"
        assert ratio_json(2.5) == 2.5
