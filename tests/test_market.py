import itertools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hourahead import (
    EMPTY_BOOK,
    Ladder,
    OfferBook,
    PenaltyParams,
    PriceBounds,
    StorageSpec,
    ThresholdPolicy,
    Trace,
    ValidationError,
    settle_offer,
    simulate_run,
)
from hourahead.market import play_columns
from conftest import non_negative, synthetic_trace
from market_reference import (
    evolve_storage,
    offer_book_error,
    over_commitment,
    play_slot_reference,
    settle_reference,
    slot_profit,
)


NAN = float("nan")


def book(*pairs):
    return OfferBook(tuple(p for p, v in pairs), tuple(v for p, v in pairs))


class TestSettleOffer:
    def test_commits_when_price_reached(self):
        assert settle_offer(book((30.0, 5.0)), 40.0) == 5.0

    def test_fails_when_price_below(self):
        assert settle_offer(book((30.0, 5.0)), 20.0) == 0.0

    def test_tie_commits(self):
        assert settle_offer(book((30.0, 5.0)), 30.0) == 5.0

    def test_partial_book(self):
        b = book((10.0, 1.0), (20.0, 2.0), (35.0, 4.0))
        assert settle_offer(b, 25.0) == 3.0
        assert settle_offer(b, 35.0) == 7.0

    def test_empty_book(self):
        assert settle_offer(EMPTY_BOOK, 25.0) == 0.0

    @settings(max_examples=300)
    @given(
        offers=st.lists(
            st.tuples(st.floats(1e-3, 50.0), non_negative(50.0) | st.floats(0.0, 1e308)),
            max_size=6,
        ),
        price=st.floats(0.0, 60.0),
    )
    @example(offers=[(1.0, 1e16), (2.0, 1.0), (3.0, 1.0)], price=5.0)  # adding in order gives 1e16
    def test_settles_to_the_rounded_exact_sum(self, offers, price):
        b = book(*sorted(offers))
        assert b.settle(price).hex() == settle_reference(b, price).hex()
        assert b.total_volume.hex() == settle_reference(b, math.inf).hex()

    def test_overflowing_volumes_settle_to_inf(self):
        # fsum raises on an intermediate overflow; volumes are >= 0, so the sum is inf
        b = book((10.0, 1e308), (20.0, 1e308))
        assert settle_offer(b, 15.0) == 1e308
        assert settle_offer(b, 25.0) == b.total_volume == math.inf

    @pytest.mark.parametrize("price", [5.0, 10.0, 30.0, 40.0, 50.0])
    def test_no_book_settles_to_negative_zero(self, price):
        # simulate_run's slot rule takes delivered == u as a surplus, which is
        # the general rule bit for bit only while no settle returns -0.0
        pol = ThresholdPolicy.build(PriceBounds(10.0, 40.0), 4.0)
        books = [
            EMPTY_BOOK,
            book((30.0, -0.0)),
            book((10.0, -0.0), (30.0, -0.0)),
            Ladder(pol, -0.0, 0.0, 4.0, 0),
            Ladder(pol, -0.0, 5e-324, 4.0, 3),
            Ladder(pol, 0.0, 5e-324, 0.0, 3),
        ]
        assert [math.copysign(1.0, b.settle(price)) for b in books] == [1.0] * len(books)


class TestEvolveStorage:
    def test_charge_rate_clip(self):
        spec = StorageSpec(20.0, 2.0, 10.0, 5.0)
        assert evolve_storage(5.0, spec, 3.0, 0.0) == (7.0, 2.0, 0.0)

    def test_discharge(self):
        spec = StorageSpec(20.0, 10.0, 10.0, 5.0)
        assert evolve_storage(5.0, spec, 0.0, 3.0) == (2.0, 0.0, 3.0)

    def test_capacity_spill(self):
        spec = StorageSpec(20.0, 10.0, 10.0, 19.0)
        assert evolve_storage(19.0, spec, 5.0, 0.0) == (20.0, 5.0, 0.0)

    def test_discharge_never_below_zero(self):
        spec = StorageSpec(20.0, 10.0, 10.0, 1.0)
        next_level, _, discharge = evolve_storage(1.0, spec, 0.0, 5.0)
        assert next_level == 0.0
        assert discharge == 1.0

    @given(
        level=st.floats(0.0, 20.0),
        u=st.floats(0.0, 15.0),
        x=st.floats(0.0, 25.0),
        rc=st.floats(0.0, 12.0),
        rd=st.floats(0.0, 12.0),
    )
    def test_bounds_and_rates(self, level, u, x, rc, rd):
        spec = StorageSpec(20.0, rc, rd, 0.0)
        next_level, charge, discharge = evolve_storage(level, spec, u, x)
        assert 0.0 <= next_level <= spec.capacity
        assert 0.0 <= charge <= rc
        assert 0.0 <= discharge <= rd
        assert charge == 0.0 or discharge == 0.0


class TestOverCommitment:
    def test_plain(self):
        assert over_commitment(10.0, 3.0, 4.0, 10.0) == 3.0

    def test_deliverable_exceeds(self):
        assert over_commitment(5.0, 3.0, 4.0, 10.0) == 0.0

    def test_discharge_rate_limited(self):
        assert over_commitment(10.0, 3.0, 8.0, 2.0) == 5.0


class TestSlotProfit:
    def test_no_penalty(self):
        assert slot_profit(40.0, 5.0, 0.0, PenaltyParams(1.0, 5.0)) == 200.0

    def test_with_penalty(self):
        assert slot_profit(40.0, 5.0, 2.0, PenaltyParams(1.0, 5.0)) == 110.0

    def test_empty_commitment(self):
        assert slot_profit(40.0, 0.0, 0.0, PenaltyParams()) == 0.0


def _bits(row):
    return tuple(x.hex() for x in row)


@st.composite
def offer_books(draw):
    """A valid book of 0 to 4 offers, one offer most often."""
    n = draw(st.sampled_from([0, 1, 1, 1, 2, 4]))
    prices = sorted(draw(st.lists(st.floats(1.0, 50.0), min_size=n, max_size=n)))
    volumes = draw(st.lists(non_negative(30.0), min_size=n, max_size=n))
    return OfferBook(tuple(prices), tuple(volumes))


ROW_COLUMNS = ("commitments", "over_commitments", "charges", "discharges", "profits", "levels")


def _rows(result):
    """A run's slots as rows of the six per-slot columns, in slot order."""
    return list(zip(*(getattr(result, col) for col in ROW_COLUMNS)))


def _example(volume=None, u=3.0, level_frac=0.5, rc=2.0, rd=2.0, alpha1=1.2):
    """An ``@example`` of test_matches_reference_composition: a one-offer book
    of `volume` (none when None) at 10.0, settled at 20.0, capacity 10.0."""
    book = EMPTY_BOOK if volume is None else OfferBook((10.0,), (volume,))
    return example(book=book, price=20.0, u=u, capacity=10.0, level_frac=level_frac,
                   rc=rc, rd=rd, alpha1=alpha1, alpha2=0.0)  # fmt: skip


class TestPlaySlot:
    # the slot rule's regime boundaries, which random draws seldom hit
    @_example(5.0)  # x == deliverable = 3 + min(5, 2), a deficit
    @_example(3.0, rd=0.0)  # x == deliverable == u
    @_example(3.0)  # delivered == u, below what is deliverable
    @_example(1.0, level_frac=-0.0, rc=-0.0, rd=-0.0)  # surplus: charge and discharge -0.0
    @_example(1.0, level_frac=-0.0, rc=0.0, rd=-0.0)
    @_example(4.0, level_frac=-0.0, rc=-0.0, rd=0.0)  # a deficit from level -0.0
    @_example(4.0, level_frac=-0.0, rc=-0.0, rd=-0.0)
    @_example(None, u=-0.0, level_frac=-0.0, rc=-0.0, rd=-0.0)  # x 0.0 against u -0.0
    @_example(None, u=-0.0, rc=-0.0, rd=0.0)
    @_example(9.0)  # over-committed in a deficit
    @_example(9.0, rd=-0.0)  # over-committed, delivered == u
    @_example(9.0, level_frac=-0.0, rc=-0.0, alpha1=0.0)
    @settings(max_examples=400)
    @given(
        book=offer_books(),
        price=st.floats(1.0, 50.0),
        u=non_negative(15.0),
        capacity=st.floats(0.5, 30.0),
        level_frac=st.one_of(st.just(-0.0), st.floats(0.0, 1.0)),
        rc=non_negative(12.0),
        rd=non_negative(12.0),
        alpha1=non_negative(3.0),
        alpha2=non_negative(20.0),
    )
    def test_matches_reference_composition(
        self, book, price, u, capacity, level_frac, rc, rd, alpha1, alpha2
    ):
        # the one slot of a one-slot run from `level`
        level = level_frac * capacity
        spec = StorageSpec(capacity, rc, rd, level)
        penalty = PenaltyParams(alpha1, alpha2)
        strategy = lambda t, p, out, z: book  # noqa: E731
        [row] = _rows(simulate_run(Trace((price,), (u,)), spec, penalty, strategy))
        assert _bits(row) == _bits(play_slot_reference(strategy, spec, penalty, 0, price, u, level))
        x, over, charge, discharge, _profit, next_level = row
        assert 0.0 <= next_level <= capacity
        deliverable = u + min(level, rd)
        # x - over is what was delivered, up to one rounding of x - deliverable
        assert x - over <= deliverable + 1e-12 * max(x, 1.0)
        assert 0.0 <= charge <= rc
        assert 0.0 <= discharge <= min(level, rd)

    @settings(max_examples=200)
    @given(
        slots=st.lists(
            st.tuples(offer_books(), st.floats(1.0, 50.0), non_negative(15.0), non_negative(2.0)),
            min_size=2,
            max_size=8,
        ),
        capacity=st.floats(0.5, 30.0),
        level_frac=st.one_of(st.just(-0.0), st.just(1.0), st.floats(0.0, 1.0)),
        rates=st.tuples(*[st.sampled_from([0.0, 1e300]) | non_negative(12.0)] * 2),
        alpha1=non_negative(3.0),
        alpha2=non_negative(20.0),
    )
    def test_rows_match_reference_slot_by_slot(
        self, slots, capacity, level_frac, rates, alpha1, alpha2
    ):
        # each slot's book adds a multiple of the level to its volumes, so a
        # level carried wrongly from the slot before moves the commitment
        books, prices, outputs, fracs = zip(*slots)
        spec = StorageSpec(capacity, *rates, level_frac * capacity)
        penalty = PenaltyParams(alpha1, alpha2)

        def strategy(t, price, output, level):
            return OfferBook(books[t].prices, tuple(v + fracs[t] * level for v in books[t].volumes))

        result = simulate_run(Trace(prices, outputs), spec, penalty, strategy)
        level, total = spec.initial_level, 0.0
        for t, row in enumerate(_rows(result)):
            want = play_slot_reference(strategy, spec, penalty, t, prices[t], outputs[t], level)
            assert _bits(row) == _bits(want), t
            total += want[4]
            level = want[5]
        assert _bits((result.total_profit,)) == _bits((total,))


def committing(x):
    """A strategy whose book settles to x at every price."""
    book = SimpleNamespace(settle=lambda price: x)
    return lambda t, price, output, level: book


class TestPlayColumns:
    @settings(max_examples=300)
    @given(
        # commitments up to 40 against outputs up to 15: often over-committed
        choices=st.lists(
            st.tuples(non_negative(40.0), st.floats(1.0, 50.0), non_negative(15.0)),
            min_size=1,
            max_size=6,
        ),
        level_fracs=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=5
        ),
        capacity=st.floats(0.5, 30.0),
        rates=st.tuples(*[st.sampled_from([0.0, 1e300, sys.float_info.max]) | non_negative(12.0)] * 2),
        alpha1=non_negative(3.0),
        alpha2=non_negative(20.0),
    )
    def test_matches_play_slot(self, choices, level_fracs, capacity, rates, alpha1, alpha2):
        # each state against the reference slot rule; levels as a column against
        # the choices as rows, as the adversary steps a slot; -0.0 and 1.0 times
        # the capacity are -0.0 and C exactly
        spec = StorageSpec(capacity, *rates)
        penalty = PenaltyParams(alpha1, alpha2)
        x, prices, outputs = (np.array(col) for col in zip(*choices))
        levels = np.array(level_fracs)[:, None] * capacity
        columns = play_columns(x, spec, penalty, prices, outputs, levels)
        got = [[_bits(state) for state in row] for row in np.stack(columns, -1).tolist()]
        want = [
            [_bits(play_slot_reference(committing(xi), spec, penalty, 0, p, u, z)[1:])
             for xi, p, u in choices]  # fmt: skip
            for z in levels.ravel().tolist()
        ]
        assert got == want


def sell_all(t, price, output, level):
    available = output + level
    return OfferBook((price,), (available,)) if available > 0 else EMPTY_BOOK


def offer_nothing(t, price, output, level):
    return EMPTY_BOOK


class TestSimulateRun:
    def test_single_slot_sell_all(self, penalty):
        trace = Trace([10.0], [2.0])
        spec = StorageSpec(20.0, 10.0, 10.0, 0.0)
        result = simulate_run(trace, spec, penalty, sell_all)
        assert result.total_profit == 20.0

    def test_zero_strategy_earns_nothing(self, bounds, spec, penalty):
        trace = synthetic_trace(3, 50, bounds)
        result = simulate_run(trace, spec, penalty, offer_nothing)
        assert result.total_profit == 0.0
        assert all(x == 0.0 for x in result.commitments)

    def test_two_slot_optimum_by_enumeration(self, penalty):
        # C=1, unit rates, z1=0: charging the first MWh and selling it at 20
        # beats every other quantized plan
        trace = Trace([10.0, 20.0], [1.0, 0.0])
        spec = StorageSpec(1.0, 1.0, 1.0, 0.0)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        best = 0.0
        for x1, x2 in itertools.product(grid, repeat=2):
            level = spec.initial_level
            profit = 0.0
            feasible = True
            for x, price, u in zip((x1, x2), trace.prices, trace.outputs):
                if x > u + min(level, spec.discharge_rate):
                    feasible = False
                    break
                profit += price * x
                level, _, _ = evolve_storage(level, spec, u, x)
            if feasible:
                best = max(best, profit)
        assert best == 20.0

        def plan(t, price, output, level):
            x = (0.0, 1.0)[t]
            return OfferBook((price,), (x,)) if x > 0 else EMPTY_BOOK

        assert simulate_run(trace, spec, penalty, plan).total_profit == 20.0

    def test_pure_repetition(self, bounds, spec, penalty):
        trace = synthetic_trace(11, 80, bounds)
        a = simulate_run(trace, spec, penalty, sell_all)
        b = simulate_run(trace, spec, penalty, sell_all)
        assert a == b

    def test_profit_is_sum_of_slots(self, bounds, spec, penalty):
        trace = synthetic_trace(5, 60, bounds)
        result = simulate_run(trace, spec, penalty, sell_all)
        assert result.total_profit == sum(result.profits)

    def test_level_and_rate_invariants(self, bounds, penalty):
        spec = StorageSpec(20.0, 4.0, 3.0, 12.0)
        trace = synthetic_trace(9, 120, bounds)
        result = simulate_run(trace, spec, penalty, sell_all)
        for level, charge, discharge in zip(result.levels, result.charges, result.discharges):
            assert 0.0 <= level <= spec.capacity
            assert charge <= spec.charge_rate
            assert discharge <= spec.discharge_rate
            assert charge == 0.0 or discharge == 0.0

    def test_overcommitting_strategy_is_penalized(self, penalty):
        trace = Trace([10.0], [1.0])
        spec = StorageSpec(20.0, 10.0, 10.0, 0.0)

        def greedy(t, price, output, level):
            return OfferBook((price,), (5.0,))

        result = simulate_run(trace, spec, penalty, greedy)
        assert result.commitments == (5.0,)
        assert result.over_commitments == (4.0,)
        # delivered energy, not the commitment, drives the storage
        assert result.levels == (0.0,)
        assert result.total_profit == 10.0 * 5.0 - (penalty.alpha1 * 10.0 + penalty.alpha2) * 4.0

    def test_an_infinite_penalty_rate_charges_only_what_is_undelivered(self):
        # alpha1 * p overflows to inf: a slot that delivers its commitment
        # earns its revenue (inf * 0.0 would be NaN), and one that cannot loses inf
        trace = Trace([20.0, 20.0], [3.0, 3.0])
        spec = StorageSpec(10.0, 5.0, 5.0, 0.0)
        penalty = PenaltyParams(1e308)
        assert simulate_run(trace, spec, penalty, committing(2.0)).profits == (40.0, 40.0)
        result = simulate_run(trace, spec, penalty, committing(4.0))
        assert result.over_commitments == (1.0, 1.0)
        assert result.profits == (-math.inf, -math.inf)
        with np.errstate(invalid="ignore"):  # inf * 0.0 where nothing is undelivered
            profits = play_columns(np.array([2.0, 4.0]), spec, penalty, 20.0, 3.0, 0.0)[3]
        assert profits.tolist() == [40.0, -math.inf]


@st.composite
def threshold_runs(draw):
    """A random trace and storage, and per-slot volumes offered at one fixed
    threshold price (volumes may exceed what the producer can deliver)."""
    horizon = draw(st.integers(1, 12))
    slot = st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 15.0), st.floats(0.0, 30.0))
    slots = draw(st.lists(slot, min_size=horizon, max_size=horizon))
    capacity = draw(st.floats(0.5, 30.0))
    spec = StorageSpec(
        capacity,
        draw(st.floats(0.0, 12.0)),
        draw(st.floats(0.0, 12.0)),
        draw(st.floats(0.0, capacity)),
    )
    prices, outputs, volumes = zip(*slots)
    return Trace(prices, outputs), spec, draw(st.floats(1.0, 50.0)), volumes


class TestRunColumns:
    @given(threshold_runs())
    def test_physical_invariants(self, case):
        trace, spec, threshold, volumes = case
        penalty = PenaltyParams()

        def fixed_book(t, price, output, level):
            return OfferBook((threshold,), (volumes[t],))

        result = simulate_run(trace, spec, penalty, fixed_book)
        assert result.horizon == trace.horizon
        z = spec.initial_level
        for t, u in enumerate(trace.outputs):
            x, charge, discharge = result.commitments[t], result.charges[t], result.discharges[t]
            level = result.levels[t]
            assert 0.0 <= level <= spec.capacity
            assert 0.0 <= charge <= spec.charge_rate
            assert 0.0 <= discharge <= min(spec.discharge_rate, z)
            assert charge == 0.0 or discharge == 0.0
            assert result.over_commitments[t] == max(x - (u + min(z, spec.discharge_rate)), 0.0)
            assert level <= z + charge - discharge
            z = level
        assert sum(result.profits) == result.total_profit


class TestValidation:
    def test_price_bounds(self):
        with pytest.raises(ValidationError):
            PriceBounds(0.0, 10.0)
        with pytest.raises(ValidationError):
            PriceBounds(20.0, 10.0)
        assert PriceBounds(10.0, 40.0).theta == 4.0

    def test_trace_slot(self):
        with pytest.raises(ValidationError):
            Trace([-1.0], [0.0])
        with pytest.raises(ValidationError):
            Trace([10.0], [-0.1])

    @pytest.mark.parametrize(
        "prices, outputs",
        [
            ([float("nan")], [0.0]),
            ([float("inf")], [0.0]),
            ([10.0], [float("nan")]),
            ([10.0, 20.0], [1.0, float("inf")]),
        ],
    )
    def test_trace_rejects_non_finite(self, prices, outputs):
        with pytest.raises(ValidationError):
            Trace(prices, outputs)

    def test_storage_spec(self):
        with pytest.raises(ValidationError):
            StorageSpec(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            StorageSpec(10.0, 1.0, 1.0, 11.0)
        assert StorageSpec(10.0, 1.0, 1.0).initial_level == 10.0  # defaults to full

    def test_offer_book_ordering(self):
        with pytest.raises(ValidationError):
            book((20.0, 1.0), (10.0, 1.0))
        with pytest.raises(ValidationError):
            book((10.0, -1.0))

    @pytest.mark.parametrize(
        "prices, volumes",
        [((0.0,), (1.0,)), ((-5.0,), (1.0,)), ((10.0,), (-1.0,)), ((10.0,), (1.0, 2.0)),
         ((10.0, 20.0), (1.0,)), ((10.0,), ())],
    )
    def test_one_offer_book_checks(self, prices, volumes):
        with pytest.raises(ValidationError):
            OfferBook(prices, volumes)

    @pytest.mark.parametrize(
        "prices, volumes",
        [((NAN,), (1.0,)), ((1.0,), (NAN,)), ((1.0, 2.0), (1.0, NAN)), ((1.0, 2.0), (NAN, 1.0)),
         ((NAN, 2.0), (1.0, 1.0)), ((1.0, NAN), (1.0, 1.0)), ((1.0, NAN, 3.0), (1.0, 1.0, 1.0)),
         ((1.0, 2.0, 3.0), (1.0, NAN, 1.0))],
        ids=["one_price", "one_volume", "last_volume", "first_volume", "first_price",
             "last_price", "middle_price", "middle_volume"],
    )  # fmt: skip
    def test_nan_is_rejected(self, prices, volumes):
        with pytest.raises(ValidationError):
            OfferBook(prices, volumes)

    def test_nan_volume_error_names_it(self):
        with pytest.raises(ValidationError, match="non-negative, got nan"):
            OfferBook((1.0, 2.0), (1.0, NAN))

    def test_offer_book_is_an_immutable_value(self):
        b = book((10.0, 1.0), (20.0, 2.0))
        assert len(b) == 2 and b.prices == (10.0, 20.0) and b.volumes == (1.0, 2.0)
        assert b == book((10.0, 1.0), (20.0, 2.0)) != book((10.0, 1.0), (20.0, 3.0))
        with pytest.raises(AttributeError):
            b.prices = (5.0, 6.0)


# offer prices and volumes with the cases a check can get wrong: signed
# zeros, NaN, infinities, negatives and subnormals
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, NAN, math.inf, -1.0, 5e-324, 10.0]), st.floats(-50.0, 50.0)
)


class TestOneOfferPath:
    """A one-offer book's build and settle take their own path: both equal
    the generic checks and the exact sum, bit for bit."""

    @settings(max_examples=300)
    @given(
        prices=st.lists(edge_floats, min_size=0, max_size=3).map(tuple),
        volumes=st.lists(edge_floats, min_size=0, max_size=3).map(tuple),
    )
    @example(prices=(10.0,), volumes=(-0.0,))
    @example(prices=(-0.0,), volumes=(1.0,))
    @example(prices=(NAN,), volumes=(1.0,))
    @example(prices=(10.0,), volumes=(NAN,))
    @example(prices=(10.0,), volumes=(1.0, 2.0))
    def test_build_equals_generic_checks(self, prices, volumes):
        expected = offer_book_error(prices, volumes)
        if expected is None:
            b = OfferBook(prices, volumes)
            assert b.prices is prices and b.volumes is volumes
        else:
            with pytest.raises(ValidationError) as raised:
                OfferBook(prices, volumes)
            assert str(raised.value) == expected

    @settings(max_examples=300)
    @given(
        offer_price=st.floats(1e-3, 50.0),
        volume=non_negative(50.0),
        price=st.one_of(edge_floats, st.floats(1e-3, 50.0)),
    )
    @example(offer_price=10.0, volume=-0.0, price=10.0)
    @example(offer_price=10.0, volume=-0.0, price=9.0)
    @example(offer_price=10.0, volume=0.0, price=NAN)
    def test_settle_equals_generic_loop(self, offer_price, volume, price):
        b = OfferBook((offer_price,), (volume,))
        assert settle_reference(b, price).hex() == b.settle(price).hex()
        # a zero-volume second offer above every price keeps the generic sum
        two = OfferBook((offer_price, math.inf), (volume, 0.0))
        assert two.settle(price).hex() == b.settle(price).hex()
