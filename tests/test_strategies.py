import bisect
import itertools
import math
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hourahead import (
    Ladder,
    OfferBook,
    PriceBounds,
    StorageSpec,
    StrategyConfig,
    ThresholdPolicy,
    Trace,
    ValidationError,
    nostorage_profit,
    settle_offer,
    simulate_run,
)
from hourahead.experiment import (
    STRATEGIES,
    ExperimentConfig,
    draw_instance,
    run_offer_sweep,
)
from hourahead.strategies import (
    fixed_threshold_strategy,
    fonline_strategy,
    mocsmb_strategy,
    ocsmb_strategy,
    socs_columns,
    socs_strategy,
)

from conftest import forecast_and_realized, non_negative, synthetic_trace
from market_reference import ladder_book, rounded, settle_reference, socs_offer_reference


E2 = PriceBounds(10.0, 10.0 * math.e**2)
ANY_PRICE = 25.0  # the clearing price a ladder ignores


@pytest.fixture
def cfg_e2():
    return StrategyConfig(E2, StorageSpec(20.0, 10.0, 10.0), offers=5)


@pytest.fixture
def pol_e2(cfg_e2):
    return cfg_e2.policy


def bisect_inverse(pol, price, tol=1e-12):
    """Independent inversion of the threshold curve by bisection."""
    lo, hi = 0.0, pol.c_th
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if pol.eval_g(mid) > price:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestSocsOffer:
    @settings(max_examples=400)
    @given(
        theta=st.sampled_from([1.0, 1.5, 4.0, math.e**2, 50.0]),
        price_frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        output=non_negative(30.0),
        capacity=st.floats(0.5, 30.0),
        level_frac=st.one_of(st.just(-0.0), st.just(1.0), st.floats(0.0, 1.0)),
        rc=non_negative(12.0),
        rd=non_negative(12.0),
    )
    def test_matches_builtin_reference(
        self, theta, price_frac, output, capacity, level_frac, rc, rd
    ):
        # the conditionals pick what the builtin min and max pick, bit for bit
        bounds = PriceBounds(10.0, 10.0 * theta)
        price = bounds.p_min + price_frac * (bounds.p_max - bounds.p_min)
        cfg = StrategyConfig(bounds, StorageSpec(capacity, rc, rd))
        level = level_frac * capacity
        book = socs_strategy(cfg)(0, price, output, level)
        ref = socs_offer_reference(cfg, price, output, level)
        assert [x.hex() for x in book.prices + book.volumes] == [
            x.hex() for x in ref.prices + ref.volumes
        ]

    @pytest.mark.parametrize(
        "state, refused",
        [
            ((25.0, 0.0, math.nan), ("eval_g", math.nan)),
            ((25.0, 0.0, -1.0), ("eval_g", -1.0)),
            ((math.nan, 0.0, 20.0), ("eval_g_inverse", math.nan)),
            ((80.0, 0.0, 20.0), ("eval_g_inverse", 80.0)),
        ],
    )
    def test_refuses_as_the_policy_does(self, pol_e2, cfg_e2, state, refused):
        # the inlined range checks raise the messages of eval_g and eval_g_inverse
        name, arg = refused
        with pytest.raises(ValidationError) as policy_error:
            getattr(pol_e2, name)(arg)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(policy_error.value))}$"):
            socs_strategy(cfg_e2)(0, *state)

    def test_market_beats_candidate(self, pol_e2, cfg_e2):
        # z=10, u=2, p=20: sell down to the level whose threshold equals 20
        book = socs_strategy(cfg_e2)(0, 20.0, 2.0, 10.0)
        assert len(book) == 1
        assert book.prices == (20.0,)
        expected = 12.0 - bisect_inverse(pol_e2, 20.0)
        assert book.volumes[0] == pytest.approx(expected, abs=1e-9)
        assert book.volumes[0] == pytest.approx(2.433, abs=5e-4)

    def test_floor_price_drains_to_threshold(self, cfg_e2):
        # z=15, u=1, p=p_min: sell 16 - min(c_th, 25)
        book = socs_strategy(cfg_e2)(0, 10.0, 1.0, 15.0)
        assert book.volumes[0] == pytest.approx(1.359, abs=5e-4)

    def test_candidate_above_market_offers_surplus_only(self, cfg_e2):
        # u=3 fits within the charge rate: nothing to offer
        assert len(socs_strategy(cfg_e2)(0, 10.0, 3.0, 0.0)) == 0
        # u beyond the charge rate must be sold even at a bad price
        big_u = StrategyConfig(E2, StorageSpec(20.0, 2.0, 10.0))
        book = socs_strategy(big_u)(0, 10.0, 5.0, 0.0)
        assert book.volumes[0] == pytest.approx(3.0)

    def test_volume_capped_at_deliverable(self):
        tight = StrategyConfig(E2, StorageSpec(20.0, 10.0, 2.0))
        book = socs_strategy(tight)(0, E2.p_max, 1.0, 18.0)
        assert book.volumes[0] <= 1.0 + 2.0

    def test_never_overcommits(self, bounds, spec, penalty):
        for seed in range(8):
            trace = synthetic_trace(seed, 100, bounds)
            result = simulate_run(
                trace, spec, penalty, socs_strategy(StrategyConfig(bounds, spec))
            )
            assert all(over == 0.0 for _x, over, *_ in result.rows)

    def test_never_overcommits_tight_rates(self, bounds, penalty):
        tight = StorageSpec(20.0, 3.0, 2.0, 20.0)
        for seed in range(8):
            trace = synthetic_trace(100 + seed, 100, bounds)
            result = simulate_run(
                trace, tight, penalty, socs_strategy(StrategyConfig(bounds, tight))
            )
            assert all(over == 0.0 for _x, over, *_ in result.rows)

    def test_never_sells_below_the_threshold_floor(self, bounds, spec, penalty):
        # a sale at price p never drains the level below the point where the
        # threshold curve reaches p (or below the sell-at-any-price level)
        cfg = StrategyConfig(bounds, spec)
        pol = cfg.policy
        for seed in range(6):
            trace = synthetic_trace(seed, 100, bounds)
            level = spec.initial_level
            result = simulate_run(trace, spec, penalty, socs_strategy(cfg))
            for price, (*_, level_after) in zip(trace.prices, result.rows):
                floor = pol.c_th if price <= bounds.p_min else pol.eval_g_inverse(price)
                assert level_after >= min(floor, level) - 1e-9
                level = level_after


# x, and one ulp below and above it
ULP_EITHER_SIDE = (lambda x: math.nextafter(x, 0.0), float, lambda x: math.nextafter(x, math.inf))


class TestSocsColumns:
    @settings(max_examples=300)
    @given(
        theta=st.sampled_from([1.0, 1.5, 4.0, math.e**2, 50.0]),
        capacity=st.floats(0.5, 30.0),
        rates=st.tuples(*[st.sampled_from([0.0, 1e300]) | non_negative(12.0)] * 2),
        level_fracs=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=5
        ),
        data=st.data(),
    )
    def test_matches_the_callback(self, theta, capacity, rates, level_fracs, data):
        # levels as a column against the (price, output) choices as rows, as
        # the adversary steps a slot.  Prices at p_min and p_max and one ulp
        # either side: at theta 1 a price above p_min has no inverse, and the
        # column form raises what the callback raises first.  Prices on the
        # curve at a state's post-charge level: the tie of holding and selling.
        bounds = PriceBounds(10.0, 10.0 * theta)
        cfg = StrategyConfig(bounds, StorageSpec(capacity, *rates))
        levels = np.array(level_fracs)[:, None] * capacity
        edges = [f(p) for p in (bounds.p_min, bounds.p_max) for f in ULP_EITHER_SIDE]
        choices = []
        for u in data.draw(st.lists(non_negative(30.0), min_size=1, max_size=6)):
            on_curve = [cfg.policy.eval_g(min(capacity, z + u)) for z in levels.ravel().tolist()]
            price = st.sampled_from(edges + on_curve) | st.floats(bounds.p_min, bounds.p_max)
            choices.append((data.draw(price), u))
        prices, outputs = (np.array(col) for col in zip(*choices))
        socs = socs_strategy(cfg)
        try:
            want = [
                [socs(0, p, u, z).settle(p).hex() for p, u in choices]
                for z in levels.ravel().tolist()
            ]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                socs_columns(cfg)(0, prices, outputs, levels)
            assert str(raised.value) == str(exc)
            return
        got = socs_columns(cfg)(0, prices, outputs, levels).tolist()
        assert [[x.hex() for x in row] for row in got] == want


class TestOcsmbOffers:
    def test_ladder_below_threshold(self, pol_e2, cfg_e2):
        # z=0, u=4, m=5: four unit rungs priced at g(3), g(2), g(1), g(0)
        ladder = ocsmb_strategy(cfg_e2)(0, ANY_PRICE, 4.0, 0.0)
        assert len(ladder) == 4
        book = ladder_book(ladder)
        volumes = list(book.volumes)
        prices = list(book.prices)
        assert volumes == pytest.approx([1.0, 1.0, 1.0, 1.0])
        assert prices == pytest.approx([pol_e2.eval_g(z) for z in (3.0, 2.0, 1.0, 0.0)])
        assert all(b > a for a, b in zip(prices, prices[1:]))
        assert prices[-1] == pytest.approx(pol_e2.bounds.p_max)

    def test_above_threshold_floor_offer_and_capped_ladder(self, pol_e2):
        # z=18, u=2, m=3: floor offer drains to c_th; the ladder splits the
        # remaining deliverable energy, not more than the storage can emit
        cfg = StrategyConfig(E2, StorageSpec(20.0, 10.0, 10.0), offers=3)
        ladder = ocsmb_strategy(cfg)(0, ANY_PRICE, 2.0, 18.0)
        book = ladder_book(ladder)
        deliverable = 2.0 + 10.0
        assert book.prices[0] == pol_e2.bounds.p_min
        assert book.volumes[0] == pytest.approx(20.0 - pol_e2.c_th, rel=1e-12)
        span = deliverable - book.volumes[0]
        assert list(book.volumes[1:]) == pytest.approx([span / 2, span / 2])
        expected_prices = [pol_e2.eval_g(pol_e2.c_th - span / 2), pol_e2.eval_g(pol_e2.c_th - span)]
        assert list(book.prices[1:]) == pytest.approx(expected_prices)
        assert ladder.total_volume == pytest.approx(deliverable, abs=1e-12)

    def test_nothing_to_offer(self, cfg_e2):
        assert len(ocsmb_strategy(cfg_e2)(0, ANY_PRICE, 0.0, 0.0)) == 0

    def test_single_offer_mode(self, pol_e2):
        cfg = StrategyConfig(E2, StorageSpec(20.0, 10.0, 10.0), offers=1)
        book = ocsmb_strategy(cfg)(0, ANY_PRICE, 2.0, 18.0)
        assert len(book) == 1
        assert ladder_book(book).prices[0] == pol_e2.bounds.p_min

    def test_book_never_exceeds_deliverable(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            spec = StorageSpec(
                20.0, float(rng.uniform(0, 12)), float(rng.uniform(0, 12)), 0.0
            )
            cfg = StrategyConfig(E2, spec, offers=int(rng.integers(1, 12)))
            u = float(rng.uniform(0, 15))
            z = float(rng.uniform(0, 20))
            book = ocsmb_strategy(cfg)(0, ANY_PRICE, u, z)
            deliverable = u + min(z, spec.discharge_rate)
            assert book.total_volume <= deliverable + 1e-9

    def test_no_overcommit_with_exact_output(self, bounds, spec, penalty):
        for seed in range(8):
            trace = synthetic_trace(seed, 100, bounds)
            result = simulate_run(
                trace, spec, penalty, ocsmb_strategy(StrategyConfig(bounds, spec))
            )
            assert all(over == 0.0 for _x, over, *_ in result.rows)

    def test_converges_to_known_price_strategy(self, bounds, spec, penalty):
        gaps = []
        for m in (2, 5, 10, 50):
            gap = 0.0
            for seed in range(12):
                trace = synthetic_trace(seed, 48, bounds)
                known = simulate_run(
                    trace, spec, penalty, socs_strategy(StrategyConfig(bounds, spec))
                ).total_profit
                laddered = simulate_run(
                    trace, spec, penalty, ocsmb_strategy(StrategyConfig(bounds, spec, offers=m))
                ).total_profit
                gap += abs(known - laddered)
            gaps.append(gap / 12)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


def _bits(x):
    return type(x), x.hex()


def ocsmb_fields_reference(cfg, output, level):
    """floor_volume, span and top of an ``ocsmb_strategy`` ladder, with the
    builtin min and max, and the span one float lower where floor plus span
    rounds past what is deliverable."""
    pol, spec = cfg.policy, cfg.spec
    deliverable = output + min(level, spec.discharge_rate)
    if min(output, spec.charge_rate) + level > pol.c_th:
        floor_volume = min(output + level - pol.c_th, deliverable)
        span = min(pol.c_th, output + spec.discharge_rate, deliverable - floor_volume)
        top = pol.c_th
    else:
        floor_volume = max(output - spec.charge_rate, 0.0)
        span = deliverable - floor_volume
        top = level + output - floor_volume
    if floor_volume + span > deliverable:
        span = math.nextafter(span, 0.0)
    return floor_volume, span, top



def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def ladder_markets(draw):
    """Price bounds from p_min = 1e-300 (or a subnormal p_min) and theta up to
    1e300, a capacity from 1e-140 to 1e140, and rates and an output up to 1e12
    times it."""
    theta = draw(st.just(1.0) | st.floats(1.0, 200.0) | _powers_of_ten(0.0, 300.0))
    subnormal = st.floats(5e-324, sys.float_info.min, exclude_max=True)
    p_min = draw(
        st.just(10.0) | _powers_of_ten(-300.0, 300.0 - math.log10(theta)) | subnormal
    )
    capacity = draw(st.floats(0.1, 50.0) | _powers_of_ten(-140.0, 140.0))
    scale = st.floats(0.0, 1.5) | _powers_of_ten(-3.0, 12.0)
    rates, u = draw(st.tuples(scale, scale)), draw(scale)
    spec = StorageSpec(capacity, capacity * rates[0], capacity * rates[1])
    return PriceBounds(p_min, p_min * theta), spec, capacity * u


def _ulps_around(x, n):
    """x and the n floats on either side of it."""
    out = [x]
    for direction in (0.0, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


SPEC_20 = StorageSpec(20.0, 10.0, 10.0)
# a state whose floor plus span, deliverable - floor rounded up, passes deliverable
STEPPED_MARKET = (
    PriceBounds(10.0, 40.0),
    StorageSpec(20.0, 5.932633974376405, 6.001641723812561),
    10.125769259336625,
)
STEPPED_Z_FRAC = 2.675816605891852 / 20.0


class TestLadderClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(
        market=ladder_markets(),
        offers=st.integers(1, 64) | _powers_of_ten(0.0, 4.0).map(round),
        z_frac=st.floats(0.0, 1.0),
        draws=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    @example(  # a floored ladder of 9,999 rungs
        market=(PriceBounds(10.0, 40.0), SPEC_20, 5.0), offers=10_000, z_frac=1.0, draws=[0.5]
    )
    def test_settles_like_the_materialized_book(self, market, offers, z_frac, draws):
        bounds, spec, u = market
        cfg = StrategyConfig(bounds, spec, offers=offers)
        ladder = ocsmb_strategy(cfg)(0, ANY_PRICE, u, z_frac * spec.capacity)
        book = ladder_book(ladder)  # checks the price order
        assert len(ladder) == len(book)
        assert _bits(ladder.total_volume) == _bits(book.total_volume)
        edges = {bounds.p_min, bounds.p_max, *book.prices}
        prices = {p for edge in edges for p in _ulps_around(edge, 2)}
        drawn = {bounds.p_min + d * (bounds.p_max - bounds.p_min) for d in draws}
        # the book's prices never fall, so it commits a prefix of its offers and
        # settles to the exact sum of that prefix rounded once, settle_reference's
        # rule, here over exact prefix sums computed once
        exact = list(itertools.accumulate(map(Fraction, book.volumes), initial=Fraction()))
        for p in sorted(prices | drawn):
            want = rounded(exact[bisect.bisect_right(book.prices, p)])
            assert _bits(ladder.settle(p)) == _bits(want), p
        for p in drawn | {bounds.p_min, bounds.p_max}:
            want = settle_reference(book, p)
            assert _bits(ladder.settle(p)) == _bits(settle_offer(book, p)) == _bits(want), p

    @settings(max_examples=300, deadline=None)
    @given(
        market=ladder_markets(),
        offers=st.integers(1, 64),
        z_frac=st.sampled_from([-0.0, 1.0]) | st.floats(0.0, 1.0),
        price_frac=st.floats(0.0, 1.0),
    )
    # a full store, whose rungs added one by one passed what is deliverable
    @example(market=(PriceBounds(10.0, 40.0), SPEC_20, 2.0), offers=10, z_frac=1.0, price_frac=1.0)
    @example(market=STEPPED_MARKET, offers=10, z_frac=STEPPED_Z_FRAC, price_frac=1.0)
    def test_commits_no_more_than_deliverable(self, market, offers, z_frac, price_frac):
        bounds, spec, u = market
        level = z_frac * spec.capacity
        ladder = ocsmb_strategy(StrategyConfig(bounds, spec, offers=offers))(0, ANY_PRICE, u, level)
        deliverable = u + min(level, spec.discharge_rate)
        price = bounds.p_min + price_frac * (bounds.p_max - bounds.p_min)
        for p in (price, bounds.p_max, math.inf):
            assert ladder.settle(p) <= deliverable, p

    def test_most_settles_price_no_edge_rung(self, monkeypatch):
        # the certified guess skips the edge loops on the seed-7 offer sweep's
        # settles (ocsmb with 1 to 15 offers over 360 slots) but near a rung
        eval_g, settle = ThresholdPolicy.eval_g, Ladder.settle
        calls, counts = [], []
        monkeypatch.setattr(ThresholdPolicy, "eval_g", lambda pol, z: calls.append(z) or eval_g(pol, z))

        def counted(ladder, price):
            before = len(calls)
            result = settle(ladder, price)
            counts.append(len(calls) - before)
            return result

        monkeypatch.setattr(Ladder, "settle", counted)
        run_offer_sweep(ExperimentConfig(runs=1, horizon=360, seed=7), range(1, 16))
        assert len(counts) == 15 * 360
        assert counts.count(0) >= 0.85 * len(counts)

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.one_of(st.just(1.0), st.floats(1.0, 200.0)),
        u=non_negative(30.0),
        z_frac=st.one_of(st.just(-0.0), st.floats(0.0, 1.0)),
        charge=non_negative(15.0),
        discharge=non_negative(15.0),
        capacity=st.floats(0.1, 50.0),
    )
    @example(  # STEPPED_MARKET: the span steps down
        theta=4.0,
        u=STEPPED_MARKET[2],
        z_frac=STEPPED_Z_FRAC,
        charge=STEPPED_MARKET[1].charge_rate,
        discharge=STEPPED_MARKET[1].discharge_rate,
        capacity=20.0,
    )
    def test_fields_match_builtin_min_max(self, theta, u, z_frac, charge, discharge, capacity):
        bounds = PriceBounds(10.0, 10.0 * theta)
        spec = StorageSpec(capacity, charge, discharge)
        cfg = StrategyConfig(bounds, spec)
        ladder = ocsmb_strategy(cfg)(0, ANY_PRICE, u, z_frac * capacity)
        fields = (ladder.floor_volume, ladder.span, ladder.top)
        reference = ocsmb_fields_reference(cfg, u, z_frac * capacity)
        assert list(map(_bits, fields)) == list(map(_bits, reference))

    def test_run_matches_materialized_books(self, bounds, spec, penalty):
        strategy = ocsmb_strategy(StrategyConfig(bounds, spec))
        assert isinstance(strategy(0, 20.0, 5.0, 10.0), Ladder)

        def materialized(t, price, output, level):
            return ladder_book(strategy(t, price, output, level))

        trace = synthetic_trace(7, 360, bounds)
        assert simulate_run(trace, spec, penalty, strategy) == simulate_run(
            trace, spec, penalty, materialized
        )

    @settings(max_examples=300, deadline=None)
    @given(
        span=st.one_of(
            st.floats(1e-320, 1e300),
            st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1062, 996)),
        ),
        rungs=st.one_of(st.integers(1, 64), st.integers(1, 10_000)),
    )
    def test_unfloored_sum_is_the_last_cum(self, span, rungs):
        # settle returns floor + span * (k / rungs): each cum_i - cum_{i-1} is
        # exact, so the rungs add up to cum_k, here as a running sum from 0.0
        total = sold = 0.0
        for k in range(1, rungs + 1):
            cum = span * (k / rungs)
            total += cum - sold
            sold = cum
            assert total.hex() == cum.hex(), (span, rungs, k)

    def test_a_floored_settle_costs_the_same_at_any_rung_count(self, pol_e2):
        # line events in settle, a count that repeats exactly: a floored ladder
        # committing half its rungs at a certified price settles in as many
        # lines at 9,999 rungs as at 10, with no loop over the committed rungs
        counts = []
        for rungs in (10, 9_999):
            c_th, k = pol_e2.c_th, rungs // 2
            ladder = Ladder(pol_e2, 1.0, c_th, c_th, rungs)
            price = pol_e2.eval_g(c_th - c_th * ((k + 0.5) / rungs))  # halfway to rung k + 1
            lines = _line_events(lambda: ladder.settle(price), Ladder.settle.__code__)
            assert ladder.settle(price) == 1.0 + c_th * (k / rungs)
            counts.append(lines)
        assert counts[0] == counts[1]

    def test_checks(self, pol_e2):
        for floor, span, rungs in ((-1.0, 1.0, 2), (1.0, -1.0, 0), (1.0, 0.0, 2), (0.0, 1.0, -1)):
            with pytest.raises(ValidationError):
                Ladder(pol_e2, floor, span, 5.0, rungs)

    def test_is_an_immutable_value(self, pol_e2):
        ladder = Ladder(pol_e2, 1.0, 2.0, 5.0, 3)
        assert (ladder.policy, ladder.floor_volume, ladder.span, ladder.top, ladder.rungs) == (
            pol_e2, 1.0, 2.0, 5.0, 3
        )
        assert len(ladder) == 4 and len(Ladder(pol_e2, 0.0, 2.0, 5.0, 3)) == 3
        assert ladder == Ladder(pol_e2, 1.0, 2.0, 5.0, 3)
        assert ladder != Ladder(pol_e2, 1.0, 2.0, 5.0, 4)
        with pytest.raises(AttributeError):
            ladder.span = 3.0


LADDER_ERROR = "ladder needs floor volume and span >= 0 and 0 to 10000 rungs over a positive span"


def _book_bits(book):
    """A book's type and its fields, each float by its bits."""
    leaves = list(book) if isinstance(book, Ladder) else [len(book), *book.prices, *book.volumes]
    return type(book), [_bits(x) if isinstance(x, float) else (type(x), x) for x in leaves]


def _frame_counts(run):
    """Python frames opened by run(), counted by code name."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            counts[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def _line_events(run, code):
    """Line events that run() traces in frames of `code`."""
    count = 0

    def local(_frame, event, _arg):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(lambda frame, _event, _arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


class TestBooksWithoutNew:
    @settings(max_examples=300, deadline=None)
    @given(
        market=ladder_markets(),
        offers=st.integers(1, 64),
        e_max=st.floats(0.0, 0.5, exclude_max=True),
        level=st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0),
        no_output=st.booleans(),
        price_frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_shortcut_equals_checked_construction(
        self, market, offers, e_max, level, no_output, price_frac
    ):
        # level is a fraction of C (-0.0 stays -0.0); every book a callback
        # returns is the one its public constructor builds from its fields
        bounds, spec, u = market
        u = 0.0 if no_output else u
        cfg = StrategyConfig(bounds, spec, offers=offers, e_max=e_max)
        price = min(bounds.p_min + price_frac * (bounds.p_max - bounds.p_min), bounds.p_max)
        callbacks = (ocsmb_strategy(cfg), mocsmb_strategy(cfg, [u]), socs_strategy(cfg),
                     fonline_strategy(bounds, spec))  # fmt: skip
        for callback in callbacks:
            book = callback(0, price, u, level * spec.capacity)
            checked = Ladder(*book) if isinstance(book, Ladder) else OfferBook(*book)
            assert _book_bits(book) == _book_bits(checked), callback

    @pytest.mark.parametrize(
        "name, state, message",
        [
            ("ocsmb", (25.0, math.nan, 5.0), f"{LADDER_ERROR}, got nan, nan, 0"),
            ("ocsmb", (25.0, -30.0, 5.0), f"{LADDER_ERROR}, got 0.0, -25.0, 0"),
            ("mocsmb", (25.0, math.nan, 5.0), f"{LADDER_ERROR}, got nan, nan, 0"),
            ("socs", (-1.0, 15.0, 5.0), "offer price must be positive, got -1.0"),
            ("fonline", (25.0, math.nan, 5.0), "offer volume must be non-negative, got nan"),
        ],
    )
    def test_refusals_are_the_constructors(self, bounds, spec, name, state, message):
        # a book the shortcut cannot take goes to its constructor, which raises
        callback = STRATEGIES[name](StrategyConfig(bounds, spec), [state[1]])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            callback(0, *state)

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_every_book_holds_one_offer_or_is_a_ladder(self, name):
        # every book a callback returns on two seed-7 runs: the ladders'
        # books are Ladders, and socs and fonline offer one offer or none
        cfg = ExperimentConfig(runs=2, horizon=360, seed=7)
        books = []
        for run in range(cfg.runs):
            trace, predicted = draw_instance(cfg, run)
            callback = STRATEGIES[name](cfg.strategy, predicted)

            def recorded(t, price, output, level):
                books.append(callback(t, price, output, level))
                return books[-1]

            simulate_run(trace, cfg.spec, cfg.penalty, recorded)
        assert len(books) == 720
        if name in ("ocsmb", "mocsmb"):
            assert {type(book) for book in books} == {Ladder}
        else:
            assert {(type(book), len(book)) for book in books} == {(OfferBook, 0), (OfferBook, 1)}

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_a_slot_opens_no_constructor_frame(self, name):
        # a count of Python frames, so it repeats exactly: each ladder slot
        # opens its callback and Ladder.settle, no socs or fonline slot
        # opens OfferBook.__new__, and no socs slot a method of the policy
        cfg = ExperimentConfig(runs=1, horizon=360, seed=7)
        trace, predicted = draw_instance(cfg, 0)
        callback = STRATEGIES[name](cfg.strategy, predicted)
        counts = _frame_counts(lambda: simulate_run(trace, cfg.spec, cfg.penalty, callback))
        assert counts["__new__"] == 0
        if name in ("ocsmb", "mocsmb"):
            assert cfg.offers == 10
            assert (counts["ocsmb"], counts["settle"], counts["eval_g_inverse"]) == (360, 360, 0)
        if name == "socs":  # the candidate is priced and the price inverted inline
            assert (counts["socs"], counts["eval_g"], counts["eval_g_inverse"]) == (360, 0, 0)


def _clearing_prices(bounds):
    """A clearing price in the bounds, or any positive float."""
    in_bounds = st.floats(0.0, 1.0).map(
        lambda f: min(bounds.p_min + f * (bounds.p_max - bounds.p_min), bounds.p_max)
    )
    return in_bounds | st.floats(5e-324, math.inf, exclude_max=True)


class TestNonAnticipation:
    @settings(max_examples=300, deadline=None)
    @given(
        market=ladder_markets(),
        offers=st.integers(1, 64),
        e_max=st.floats(0.0, 0.5, exclude_max=True),
        level=st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0),
        realized=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1e300)),
        data=st.data(),
    )
    def test_books_ignore_the_clearing_price(self, market, offers, e_max, level, realized, data):
        # the paper's unknown-price setting: ocsmb, mocsmb and fonline fix their
        # books before the market clears, so two clearing prices give books of
        # the same bits; mocsmb reads only the forecast, so two realized outputs
        # do too
        bounds, spec, u = market
        cfg = StrategyConfig(bounds, spec, offers=offers, e_max=e_max)
        p1, p2 = (data.draw(_clearing_prices(bounds)) for _ in range(2))
        z = level * spec.capacity
        mocsmb = mocsmb_strategy(cfg, [u])
        for callback in (ocsmb_strategy(cfg), mocsmb, fonline_strategy(bounds, spec)):
            assert _book_bits(callback(0, p1, u, z)) == _book_bits(callback(0, p2, u, z)), callback
        u1, u2 = realized[0] * u, realized[1]
        assert _book_bits(mocsmb(0, p1, u1, z)) == _book_bits(mocsmb(0, p2, u2, z))


class TestMocsmbOffers:
    def test_zero_error_is_identical(self):
        cfg = StrategyConfig(E2, StorageSpec(20.0, 10.0, 10.0), offers=5, e_max=0.2)
        states = ((4.0, 0.0), (2.0, 18.0), (7.5, 11.0))
        hedged = mocsmb_strategy(replace(cfg, e_max=0.0), [u for u, _z in states])
        exact = ocsmb_strategy(cfg)
        for t, (u, z) in enumerate(states):
            assert hedged(t, ANY_PRICE, u, z) == exact(t, ANY_PRICE, u, z)

    def test_scales_prediction_down(self):
        # the predicted output, scaled to the band's low end; the realized one is unread
        cfg = StrategyConfig(E2, StorageSpec(20.0, 10.0, 10.0), offers=5, e_max=0.1)
        hedged = mocsmb_strategy(cfg, [10.0])(0, ANY_PRICE, 3.0, 5.0)
        assert hedged == ocsmb_strategy(cfg)(0, ANY_PRICE, 9.0, 5.0)

    def test_never_overcommits_within_band(self, bounds, spec, penalty):
        for e_max in (0.1, 0.3, 0.49):
            cfg = StrategyConfig(bounds, spec, offers=10, e_max=e_max)
            for seed in range(4):
                forecast, realized = forecast_and_realized(seed, 80, bounds, e_max)
                result = simulate_run(
                    realized, spec, penalty, mocsmb_strategy(cfg, forecast.outputs)
                )
                assert all(over == 0.0 for _x, over, *_ in result.rows)

    def test_commitment_floor_vs_exact_output(self, bounds, spec, penalty):
        # the conservative ladder commits at least (1 - 2 e_max) of what the
        # exact-output ladder commits, in total, on every suite instance
        for e_max in (0.1, 0.3):
            cfg = StrategyConfig(bounds, spec, offers=10, e_max=e_max)
            for seed in range(6):
                forecast, realized = forecast_and_realized(seed, 80, bounds, e_max)
                exact = simulate_run(realized, spec, penalty, ocsmb_strategy(cfg))
                hedged = simulate_run(
                    realized, spec, penalty, mocsmb_strategy(cfg, forecast.outputs)
                )
                (hedged_x, *_), (exact_x, *_) = zip(*hedged.rows), zip(*exact.rows)
                assert sum(hedged_x) >= (1 - 2 * e_max) * sum(exact_x) - 1e-9


class TestBaselines:
    def test_fonline_threshold(self, spec):
        book = fonline_strategy(PriceBounds(10.0, 40.0), spec)(0, 25.0, 1.0, 5.0)
        assert book.prices == (20.0,)

    def test_fonline_volume(self):
        spec = StorageSpec(20.0, 10.0, 2.0, 8.0)
        book = fonline_strategy(PriceBounds(10.0, 40.0), spec)(0, 25.0, 3.0, 8.0)
        assert book.volumes == (5.0,)

    def test_fonline_empty(self, spec):
        assert len(fonline_strategy(PriceBounds(10.0, 40.0), spec)(0, 25.0, 0.0, 0.0)) == 0

    @pytest.mark.parametrize("p_min, p_max", [(1e-300, 1e-299), (1e300, 1e301)])
    def test_fonline_threshold_at_extreme_bounds(self, spec, p_min, p_max):
        # sqrt(p_min * p_max) would underflow to 0.0 or overflow to inf here
        book = fonline_strategy(PriceBounds(p_min, p_max), spec)(0, p_max, 1.0, 5.0)
        assert p_min < book.prices[0] < p_max
        assert book.prices[0] == pytest.approx(p_min * math.sqrt(10.0), rel=1e-15)

    @settings(max_examples=400)
    @given(
        output=non_negative(30.0),
        level=non_negative(20.0),
        rate_d=non_negative(12.0),
    )
    def test_fixed_threshold_offer_matches_builtin_min(self, output, level, rate_d):
        # the conditional picks what the builtin min picks, bit for bit
        strategy = fixed_threshold_strategy(25.0, StorageSpec(20.0, 10.0, rate_d))
        book = strategy(0, 10.0, output, level)
        available = output + min(level, rate_d)
        expected = (available,) if available > 0.0 else ()
        assert [v.hex() for v in book.volumes] == [v.hex() for v in expected]

    def test_fixed_threshold_offer(self, spec):
        book = fixed_threshold_strategy(25.0, spec)(0, 10.0, 2.0, 4.0)
        assert book.prices == (25.0,)
        assert book.volumes == (6.0,)

    def test_nostorage_profit(self):
        assert nostorage_profit(Trace([10.0, 20.0], [1.0, 2.0])) == 50.0
        assert nostorage_profit(Trace([15.0, 25.0], [0.0, 0.0])) == 0.0
        assert nostorage_profit(Trace([30.0], [4.0])) == 120.0
        # the exact sum rounded once: adding in order would drop both 1.0s
        assert nostorage_profit(Trace([1.0] * 3, [1e16, 1.0, 1.0])) == 1e16 + 2.0
        with pytest.raises(ValidationError, match="not finite"):  # fsum's OverflowError
            nostorage_profit(Trace([1e308, 1e308], [1.0, 1.0]))


class TestConfigValidation:
    def test_offer_count(self, spec):
        with pytest.raises(ValidationError):
            StrategyConfig(E2, spec, offers=0)

    def test_error_bound(self, spec):
        with pytest.raises(ValidationError):
            StrategyConfig(E2, spec, e_max=0.5)

    def test_policy_is_built_from_the_storage_capacity(self, bounds, spec):
        cfg = StrategyConfig(bounds, spec)
        assert cfg.policy == ThresholdPolicy.build(bounds, spec.capacity)
        smaller = replace(cfg, spec=StorageSpec(10.0, 10.0, 10.0))
        assert smaller.policy == ThresholdPolicy.build(bounds, 10.0)
        with pytest.raises(TypeError):
            StrategyConfig(bounds, spec, policy=cfg.policy)
