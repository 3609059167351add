import math
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hourahead import (
    BudgetExceededError,
    DiscretizationConfig,
    PriceBounds,
    StorageSpec,
    StrategyConfig,
    ThresholdPolicy,
    Trace,
    ValidationError,
    theoretical_cr,
)
from hourahead import adversary
from hourahead.adversary import AdversaryGrid, adversarial_search
from hourahead.experiment import STRATEGIES
from hourahead.market import scalar_columns
from hourahead.strategies import fixed_threshold_strategy, fonline_strategy, socs_columns

from oracle_reference import adversarial_search_reference, empirical_cr
from policy_reference import StepFunction, local_cr_closed_form, step_lengths_from_equalization


class TestStepFunction:
    def test_steps_and_capacity(self):
        sf = StepFunction((40.0, 20.0, 10.0), (1.0, 4.0, 5.0))
        assert sf.n == 3
        assert sf.capacity == 10.0

    def test_rejects_increasing_prices(self):
        with pytest.raises(ValidationError):
            StepFunction((10.0, 20.0), (5.0, 5.0))

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValidationError):
            StepFunction((20.0, 10.0), (-1.0, 5.0))

    def test_from_policy_spans_price_range(self):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 40.0), 20.0)
        sf = StepFunction.from_policy(pol, 50)
        assert sf.prices[0] == pol.bounds.p_max
        assert sf.prices[-1] == pol.bounds.p_min
        assert sf.capacity == pytest.approx(20.0, rel=1e-12)
        assert sf.lengths[-1] == pytest.approx(pol.l_n)

    def test_from_policy_degenerate(self):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0), 20.0)
        sf = StepFunction.from_policy(pol, 50)
        assert sf.capacity == 20.0


class TestLocalRatioClosedForm:
    def test_two_step_hand_value(self):
        sf = StepFunction((40.0, 10.0), (5.0, 5.0))
        assert local_cr_closed_form(sf, 1) == pytest.approx(40.0 * 10.0 / (10.0 * 5.0))

    def test_flat_curve_is_one(self):
        sf = StepFunction((10.0, 10.0), (0.0, 10.0))
        assert local_cr_closed_form(sf, 1) == 1.0

    def test_index_bounds(self):
        sf = StepFunction((40.0, 10.0), (5.0, 5.0))
        with pytest.raises(ValidationError):
            local_cr_closed_form(sf, 0)
        with pytest.raises(ValidationError):
            local_cr_closed_form(sf, 2)

    @pytest.mark.parametrize("theta", [2.0, 10.0, 50.0])
    def test_discretized_curve_equalizes(self, theta):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * theta), 20.0)
        sf = StepFunction.from_policy(pol, 200)
        ratios = [local_cr_closed_form(sf, i) for i in range(1, sf.n)]
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread <= 0.02
        assert abs(max(ratios) - theoretical_cr(theta)) <= 0.02 * theoretical_cr(theta)

    def test_spread_shrinks_with_refinement(self):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 500.0), 20.0)

        def spread(steps):
            sf = StepFunction.from_policy(pol, steps)
            ratios = [local_cr_closed_form(sf, i) for i in range(1, sf.n)]
            return (max(ratios) - min(ratios)) / min(ratios)

        coarse, fine = spread(200), spread(1000)
        assert fine < coarse / 3.0  # roughly linear in the step width


class TestEqualizedLengths:
    def test_equal_prices_give_zero_length(self):
        lengths = step_lengths_from_equalization((40.0, 25.0, 25.0, 10.0), 20.0, 5.0)
        assert lengths[1] == 0.0

    def test_three_step_equalization(self):
        # build a three-step curve whose interior length comes from the
        # closed form, then check both local ratios coincide
        prices = (40.0, 20.0, 10.0)
        capacity, l_n = 10.0, 3.0
        (l_2,) = step_lengths_from_equalization(prices, capacity, l_n)
        sf = StepFunction(prices, (capacity - l_2 - l_n, l_2, l_n))
        r1 = local_cr_closed_form(sf, 1)
        r2 = local_cr_closed_form(sf, 2)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_reproduces_policy_grid(self):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * math.e**2), 20.0)
        sf = StepFunction.from_policy(pol, 200)
        lengths = step_lengths_from_equalization(sf.prices, sf.capacity, sf.lengths[-1])
        total = sf.lengths[0] + sum(lengths) + sf.lengths[-1]
        assert total == pytest.approx(20.0, rel=0.01)

    def test_degenerate_denominator(self):
        with pytest.raises(ValidationError):
            step_lengths_from_equalization((40.0, 20.0, 10.0), 1.0, 2.0)
        with pytest.raises(ValidationError):
            # p_{n-1} C ~ p_n l_n makes the shared factor blow up
            step_lengths_from_equalization((40.0, 10.0, 10.0), 1.0, 1.0 - 1e-14)


def full_storage_spec(capacity):
    # rate-unconstrained storage: the regime the worst-case guarantee covers
    return StorageSpec(capacity, capacity, capacity)


class TestAdversarialSearch:
    def test_budget_guard(self):
        # the grid refuses its shape before the search could start
        with pytest.raises(BudgetExceededError):
            grid = AdversaryGrid.geometric(
                PriceBounds(10.0, 40.0), 4.0, horizon=4, budget=100
            )
            adversarial_search(grid, lambda *a: None, full_storage_spec(4.0))

    def test_known_price_strategy_stays_under_bound(self):
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        pol = ThresholdPolicy.build(bounds, spec.capacity)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=3, levels=4)
        report = adversarial_search(grid, socs_columns(StrategyConfig(bounds, spec)), spec)
        assert report.instances == grid.instance_count
        assert report.max_ratio < math.inf
        assert report.max_ratio <= pol.cr_value * 1.05

    def test_flat_price_grid_ratio_is_one(self):
        bounds = PriceBounds(10.0, 10.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=2, levels=4)
        report = adversarial_search(grid, socs_columns(StrategyConfig(bounds, spec)), spec)
        assert report.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_bucket_max_equals_global_max(self):
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=3, levels=4)
        report = adversarial_search(grid, socs_columns(StrategyConfig(bounds, spec)), spec)
        assert max(report.bucket_ratios.values()) == report.max_ratio

    def test_always_sell_policy_bounded_by_theta(self):
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=3, levels=4)
        always_sell = scalar_columns(fixed_threshold_strategy(bounds.p_min, spec))
        report = adversarial_search(grid, always_sell, spec)
        assert report.max_ratio <= bounds.theta + 1e-9

    def test_stubborn_threshold_unbounded_on_low_prices(self, penalty):
        # a threshold strictly above p_min never sells on an all-low trace
        spec = full_storage_spec(4.0)
        trace = Trace([10.0] * 3, [1.0] * 3)
        disc = DiscretizationConfig(4)
        ratio = empirical_cr(
            trace, spec, penalty, fixed_threshold_strategy(20.0, spec), disc
        )
        assert ratio == math.inf

    def test_unbounded_reported_by_search(self):
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=2, levels=4)
        report = adversarial_search(grid, scalar_columns(fixed_threshold_strategy(20.0, spec)), spec)
        assert report.max_ratio == math.inf
        low = report.bucket_ratios[min(report.bucket_ratios)]
        assert low == math.inf or low >= 1.0


class TestGridValidation:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["price_levels", "supply_levels"])
    def test_non_finite_levels_rejected(self, field, bad):
        disc = DiscretizationConfig(4)
        levels = {"price_levels": (10.0, 40.0), "supply_levels": (0.0, 1.0)}
        levels[field] = (*levels[field], bad)
        with pytest.raises(ValidationError):
            AdversaryGrid(2, levels["price_levels"], levels["supply_levels"], disc)

    def test_horizon_limits(self):
        disc = DiscretizationConfig(4)
        with pytest.raises(ValidationError):
            AdversaryGrid(7, (10.0,), (0.0,), disc)
        with pytest.raises(ValidationError):
            AdversaryGrid(2, (), (0.0,), disc)

    def test_geometric_ladder(self):
        grid = AdversaryGrid.geometric(PriceBounds(10.0, 80.0), 4.0, price_count=4)
        assert grid.price_levels[0] == pytest.approx(10.0)
        assert grid.price_levels[-1] == pytest.approx(80.0)
        ratios = [b / a for a, b in zip(grid.price_levels, grid.price_levels[1:])]
        assert ratios == pytest.approx([2.0, 2.0, 2.0])

    def test_budget_checked_before_the_levels_are_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="budget is 10000000"):
                AdversaryGrid.geometric(PriceBounds(10.0, 40.0), 4.0, price_count=10**6)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_counts_distinct_levels(self):
        # a flat price range has one price level, however many are asked for
        grid = AdversaryGrid.geometric(PriceBounds(10.0, 10.0), 4.0, price_count=10**6)
        assert grid.price_levels == (10.0,)
        disc = DiscretizationConfig(4)
        with pytest.raises(BudgetExceededError, match="grid holds 144 instances"):
            AdversaryGrid(2, (10.0, 20.0, 30.0, 40.0), (0.0, 1.0, 2.0), disc, budget=143)


def adversary_strategy(name, bounds, spec):
    """The CLI's adversary strategies as (column form, callback): the
    registry's socs, ocsmb and fonline, the always-sell floor policy and const
    at its default threshold, fonline's.  The search takes the column form,
    the reference search the callback."""
    cfg = StrategyConfig(bounds, spec)
    if name in STRATEGIES:
        callback = STRATEGIES[name](cfg, ())
    elif name == "gmin":
        callback = fixed_threshold_strategy(bounds.p_min, spec)
    else:
        callback = fonline_strategy(bounds, spec)
    return socs_columns(cfg) if name == "socs" else scalar_columns(callback), callback


ADVERSARY_NAMES = ("socs", "ocsmb", "fonline", "gmin", "const")


def assert_same_report(new, ref):
    # repr tells -0.0 from 0.0 and keeps the buckets' insertion order
    assert new.max_ratio == ref.max_ratio
    assert new.argmax_instance == ref.argmax_instance
    assert repr(new.bucket_ratios) == repr(ref.bucket_ratios)
    assert new.instances == ref.instances


def spy_on_chunks(monkeypatch):
    """The shape of each chunk the search steps through slot 0, in order:
    (table blocks, suffixes per block, levels)."""
    chunks = []
    real = adversary.grid_step

    def grid_step(shape, rd, eta, *level):
        step = real(shape, rd, eta, *level)
        if not level:  # a table slot or a leading slot s-1 ... 1
            return step

        def at_level(v, *columns):
            chunks.append(v.shape)
            return step(v, *columns)

        return at_level

    monkeypatch.setattr(adversary, "grid_step", grid_step)
    return chunks


class TestBatchedSearchIsExact:
    """The batched search reports exactly what one per-level grid DP and one
    simulate_run per instance report."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(ADVERSARY_NAMES),
        horizon=st.integers(1, 3),
        price_count=st.integers(1, 4),
        theta=st.sampled_from([1.0, 1.5, 4.0, 13.44]),
        levels=st.integers(1, 6),
        supplies=st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.7, 1.5, 4.0]), min_size=1, max_size=3),
        rates=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0, 2.5, 4.0, 9.0])] * 2),
        initial=st.sampled_from([None, 0.0, -0.0, 1.3, 2.0]),
    )
    def test_matches_per_instance_search(
        self, name, horizon, price_count, theta, levels, supplies, rates, initial
    ):
        bounds = PriceBounds(10.0, 10.0 * theta)
        capacity = 4.0
        spec = StorageSpec(capacity, *rates, initial)
        grid = AdversaryGrid.geometric(
            bounds, capacity, horizon=horizon, price_count=price_count, levels=levels
        )
        # supplies in units of the storage quantum, on and off the grid
        grid = replace(grid, supply_levels=tuple(u * grid.disc.quantum(capacity) for u in supplies))
        columns, strategy = adversary_strategy(name, bounds, spec)
        assert_same_report(
            adversarial_search(grid, columns, spec),
            adversarial_search_reference(grid, strategy, spec),
        )

    def test_several_chunks_with_unbounded_bucket(self, monkeypatch):
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(
            bounds, spec.capacity, horizon=3, price_count=6, supply_count=3, levels=16
        )
        columns, strategy = adversary_strategy("const", bounds, spec)
        chunks = spy_on_chunks(monkeypatch)
        report = adversarial_search(grid, columns, spec)
        assert len(chunks) > 5
        assert_same_report(report, adversarial_search_reference(grid, strategy, spec))
        assert math.inf in report.bucket_ratios.values()
        assert any(r < math.inf for r in report.bucket_ratios.values())

    @pytest.mark.parametrize("name", ADVERSARY_NAMES)
    def test_supply_beyond_int64_units(self, name):
        # 1e30 grid units: the oracle's capacity column must stay int64
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=2, levels=4)
        eta = grid.disc.quantum(spec.capacity)
        grid = replace(grid, supply_levels=(0.0, eta, 1e30 * eta))
        columns, strategy = adversary_strategy(name, bounds, spec)
        assert_same_report(
            adversarial_search(grid, columns, spec),
            adversarial_search_reference(grid, strategy, spec),
        )

    @pytest.mark.parametrize(
        "cells, horizon, price_count, rates, initial, name",
        [
            (8, 3, 4, (4.0, 4.0), None, "socs"),
            (64, 3, 4, (1.0, 3.0), 1.3, "ocsmb"),
            (8, 4, 2, (1.0, 3.0), 1.3, "socs"),
            (64, 4, 2, (4.0, 4.0), 2.0, "ocsmb"),
        ],
    )
    def test_capped_suffix_table(
        self, monkeypatch, cells, horizon, price_count, rates, initial, name
    ):
        # 8 cells hold no slot of the table, so a chunk is one block of one
        # instance; 64 hold one slot, so a chunk is one block of the table's
        # 12 suffixes or two blocks of its 6 and runs the two or three
        # leading slots
        monkeypatch.setattr(adversary, "CHUNK_CELLS", cells)
        bounds = PriceBounds(10.0, 40.0)
        spec = StorageSpec(4.0, *rates, initial)
        grid = AdversaryGrid.geometric(
            bounds, spec.capacity, horizon=horizon, price_count=price_count, levels=4
        )
        columns, strategy = adversary_strategy(name, bounds, spec)
        assert_same_report(
            adversarial_search(grid, columns, spec),
            adversarial_search_reference(grid, strategy, spec),
        )

    @pytest.mark.parametrize(
        "cells, horizon, price_count, rates",
        [
            (25, 3, 2, (4.0, 4.0)),  # no table slot: 5 one-instance blocks
            (300, 3, 4, (1.0, 3.0)),  # 12-suffix table: 5 blocks, slots 1, 0
            (1000, 4, 2, (2.5, 1.0)),  # 36-suffix table: 5 blocks, slots 1, 0
        ],
    )
    @pytest.mark.parametrize("initial", [0.0, 1.3, None])
    @pytest.mark.parametrize("name", ["socs", "ocsmb"])
    def test_chunks_of_several_blocks(
        self, monkeypatch, cells, horizon, price_count, rates, initial, name
    ):
        # a chunk holds several blocks of the suffix table, and the last
        # chunk fewer than the others
        monkeypatch.setattr(adversary, "CHUNK_CELLS", cells)
        bounds = PriceBounds(10.0, 40.0)
        spec = StorageSpec(4.0, *rates, initial)
        grid = AdversaryGrid.geometric(
            bounds, spec.capacity, horizon=horizon, price_count=price_count, levels=4
        )
        columns, strategy = adversary_strategy(name, bounds, spec)
        chunks = spy_on_chunks(monkeypatch)
        report = adversarial_search(grid, columns, spec)
        assert chunks[0][0] == 5 and 0 < chunks[-1][0] < 5
        assert_same_report(report, adversarial_search_reference(grid, strategy, spec))

    def test_socs_refuses_a_grid_price_above_p_max(self):
        # a selling state's price above p_max has no threshold level: the
        # search raises the callback's error, at the first such price met
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=2, levels=4)
        grid = replace(grid, price_levels=(10.0, 60.0, 20.0, 50.0))
        columns, strategy = adversary_strategy("socs", bounds, spec)
        message = "price 60.0 outside g's range [10.0, 40.0]"
        with pytest.raises(ValidationError, match=re.escape(message)):
            adversarial_search_reference(grid, strategy, spec)
        with pytest.raises(ValidationError, match=re.escape(message)):
            adversarial_search(grid, columns, spec)

    @pytest.mark.parametrize(
        "name, horizon, initial, keys",
        [
            # from 2.5 or 1.5, one unit a slot: minimum levels 2.5, 1.5 and
            # 0.5 round half to even, to 2, 2 and 0
            ("const", 2, 2.5, {2.0, 0.0}),
            ("const", 2, 1.5, {2.0, 0.0}),
            ("gmin", 1, 2.5, {2.0}),
            ("gmin", 1, 1.5, {0.0}),
            # a -0.0 minimum level falls in the bucket 0.0
            ("const", 2, -0.0, {0.0}),
            ("gmin", 2, -0.0, {0.0}),
        ],
    )
    def test_buckets_of_half_grid_levels(self, name, horizon, initial, keys):
        bounds = PriceBounds(10.0, 40.0)
        spec = StorageSpec(4.0, 1.0, 1.0, initial)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=horizon, levels=4)
        columns, strategy = adversary_strategy(name, bounds, spec)
        report = adversarial_search(grid, columns, spec)
        assert set(report.bucket_ratios) == keys
        assert_same_report(report, adversarial_search_reference(grid, strategy, spec))

    @pytest.mark.parametrize("name", ("socs", "ocsmb", "fonline"))
    def test_buckets_come_out_in_level_order(self, name):
        # from a full store the first instances keep the level high, so the
        # buckets first appear from the top down
        bounds = PriceBounds(10.0, 40.0)
        spec = StorageSpec(4.0, 1.0, 1.0, 4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=3, levels=4)
        report = adversarial_search(grid, adversary_strategy(name, bounds, spec)[0], spec)
        keys = list(report.bucket_ratios)
        assert len(keys) >= 3 and keys == sorted(keys)

    @pytest.mark.parametrize("name", ADVERSARY_NAMES)
    def test_ratios_do_not_depend_on_the_price_scale(self, name):
        # earning is relative to the optimum, so bounds [1e-300, 4e-300] and
        # [1e300, 4e300] certify what [10, 40] does
        spec = full_storage_spec(4.0)
        reports = []
        for p_min in (10.0, 1e-300, 1e300):
            bounds = PriceBounds(p_min, 4.0 * p_min)
            grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=3, levels=4)
            columns = adversary_strategy(name, bounds, spec)[0]
            reports.append(adversarial_search(grid, columns, spec))
        at_ten = reports[0]
        for report in reports[1:]:
            assert report.max_ratio == pytest.approx(at_ten.max_ratio, rel=1e-12)
            assert list(report.bucket_ratios) == list(at_ten.bucket_ratios)
            for level, ratio in report.bucket_ratios.items():
                assert ratio == pytest.approx(at_ten.bucket_ratios[level], rel=1e-12)

    def test_horizon_five_peaks_at_a_few_megabytes(self):
        # chunked: no array spans the 248832 instances times the levels
        bounds = PriceBounds(10.0, 40.0)
        spec = full_storage_spec(4.0)
        grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=5, levels=4)
        columns, _callback = adversary_strategy("socs", bounds, spec)
        tracemalloc.start()
        try:
            report = adversarial_search(grid, columns, spec)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.instances == 248832
        assert peak < 4 * 2**20


@pytest.mark.parametrize("theta", [3.63, 5.32, 13.44, 50.0])
def test_socs_certified_at_horizon_five(theta):
    # the cr-table defaults on the 248832-instance geometric grid
    bounds = PriceBounds(10.0, 10.0 * theta)
    spec = full_storage_spec(4.0)
    grid = AdversaryGrid.geometric(bounds, spec.capacity, horizon=5, levels=4)
    report = adversarial_search(grid, adversary_strategy("socs", bounds, spec)[0], spec)
    assert report.instances == 248832
    assert report.max_ratio <= theoretical_cr(theta) * 1.05
    assert max(report.bucket_ratios.values()) == report.max_ratio


def test_ocsmb_converges_to_socs_bound():
    # on the 104976-instance theta=4 grid the worst case of ocsmb falls as
    # the offer count m grows and reaches socs's guarantee from m = 8 on
    bounds = PriceBounds(10.0, 40.0)
    spec = full_storage_spec(4.0)
    grid = AdversaryGrid.geometric(
        bounds, spec.capacity, horizon=4, price_count=6, supply_count=3, levels=4
    )
    assert grid.instance_count == 104976
    offers = (1, 2, 3, 4, 6, 8, 12, 16)
    worst = [
        adversarial_search(
            grid, scalar_columns(STRATEGIES["ocsmb"](StrategyConfig(bounds, spec, m), ())), spec
        )
        .max_ratio
        for m in offers
    ]
    assert worst == pytest.approx([12.2377, 9.2745, 5.3268, 4.0370, 3.1021] + [3.0594] * 3, abs=1e-4)
    assert worst == sorted(worst, reverse=True)
    for m, ratio in zip(offers, worst):
        if m <= 6:
            assert ratio > theoretical_cr(4.0)
        else:
            assert ratio == theoretical_cr(4.0)
