import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hourahead import (
    PriceBounds,
    ThresholdPolicy,
    ValidationError,
    c_threshold,
    theoretical_cr,
)
from hourahead.cli import main


class TestTheoreticalRatio:
    @pytest.mark.parametrize(
        "theta,expected",
        [(13.44, 4.37), (5.32, 3.38), (3.63, 2.95), (50.0, 5.74)],
    )
    def test_published_values(self, theta, expected):
        assert abs(theoretical_cr(theta) - expected) <= 0.005

    def test_degenerate(self):
        assert theoretical_cr(1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            theoretical_cr(0.9)

    def test_strictly_increasing(self):
        thetas = [1.0 + 0.2 * k for k in range(60)]
        values = [theoretical_cr(t) for t in thetas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_table_rows(self, capsys):
        assert main(["cr-table", "--theta", "1,13.44"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == "theta,cr"
        rows = [tuple(map(float, line.split(","))) for line in lines]
        assert rows[0] == (1.0, 1.0)
        assert rows[1][1] >= 1.0


class TestThresholdLevel:
    def test_theta_50(self):
        # cross-check against capacity / ratio
        cr = theoretical_cr(50.0)
        assert c_threshold(20.0, 50.0) == pytest.approx(20.0 - 20.0 / cr, rel=1e-12)
        assert c_threshold(20.0, 50.0) == pytest.approx(16.514, abs=5e-4)

    def test_theta_e_squared(self):
        # ln(theta)=2 gives ratio (4 + sqrt(12))/2 and tail 20 / ratio
        cr = (4.0 + math.sqrt(12.0)) / 2.0
        assert c_threshold(20.0, math.e**2) == pytest.approx(20.0 - 20.0 / cr, rel=1e-12)
        assert c_threshold(20.0, math.e**2) == pytest.approx(14.641, abs=5e-4)

    def test_degenerate(self):
        assert c_threshold(20.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            c_threshold(0.0, 2.0)
        with pytest.raises(ValidationError):
            c_threshold(20.0, 0.5)

    @given(
        capacity=st.floats(0.1, 1000.0),
        theta=st.floats(1.0, 100.0),
    )
    def test_within_capacity(self, capacity, theta):
        c_th = c_threshold(capacity, theta)
        assert 0.0 <= c_th < capacity
        tail = capacity - c_th
        assert abs(tail - capacity / theoretical_cr(theta)) <= 1e-9 * capacity


@pytest.fixture
def pol_e2():
    return ThresholdPolicy.build(PriceBounds(10.0, 10.0 * math.e**2), 20.0)


class TestCurve:
    def test_threshold_value_is_floor_price(self, pol_e2):
        assert pol_e2.eval_g(pol_e2.c_th) == pol_e2.bounds.p_min
        assert pol_e2.eval_g(pol_e2.capacity) == pol_e2.bounds.p_min

    def test_empty_storage_is_ceiling_price(self, pol_e2):
        p_max = pol_e2.bounds.p_max
        assert abs(pol_e2.eval_g(0.0) - p_max) <= 1e-9 * p_max

    def test_interior_value(self, pol_e2):
        # direct evaluation of the exponential branch at z=12
        expected = 10.0 * math.exp(
            (pol_e2.c_th - 12.0) * pol_e2.c_th / (20.0 * (20.0 - pol_e2.c_th))
        )
        assert pol_e2.eval_g(12.0) == pytest.approx(expected, rel=1e-12)
        assert pol_e2.eval_g(12.0) == pytest.approx(14.34, abs=5e-3)

    def test_monotone_non_increasing(self, pol_e2):
        zs = [20.0 * k / 9999 for k in range(10000)]
        values = [pol_e2.eval_g(z) for z in zs]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_domain(self, pol_e2):
        with pytest.raises(ValidationError):
            pol_e2.eval_g(-0.1)
        with pytest.raises(ValidationError):
            pol_e2.eval_g(20.5)

    def test_degenerate_theta_one(self):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0), 20.0)
        assert pol.c_th == 0.0
        assert pol.cr_value == 1.0
        for z in (0.0, 5.0, 20.0):
            assert pol.eval_g(z) == 10.0


class TestInverse:
    def test_ceiling_maps_to_zero(self, pol_e2):
        assert abs(pol_e2.eval_g_inverse(pol_e2.bounds.p_max)) <= 1e-9

    def test_known_point(self, pol_e2):
        z = pol_e2.eval_g_inverse(20.0)
        assert z == pytest.approx(9.567, abs=5e-4)
        assert pol_e2.eval_g(z) == pytest.approx(20.0, rel=1e-9)

    def test_round_trip(self, pol_e2):
        for frac in (0.05, 0.3, 0.55, 0.8, 0.999):
            z = frac * pol_e2.c_th
            back = pol_e2.eval_g_inverse(pol_e2.eval_g(z))
            assert back == pytest.approx(z, rel=1e-9, abs=1e-9)

    def test_domain(self, pol_e2):
        # p_min inverts to the least level of the flat tail
        assert pol_e2.eval_g_inverse(10.0) == pol_e2.c_th
        with pytest.raises(ValidationError):
            pol_e2.eval_g_inverse(math.nextafter(10.0, 0.0))
        with pytest.raises(ValidationError):
            pol_e2.eval_g_inverse(9.0)
        with pytest.raises(ValidationError):
            pol_e2.eval_g_inverse(pol_e2.bounds.p_max * 1.01)


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300)
@given(
    theta=st.just(1.0) | st.floats(1.0, 200.0) | _powers_of_ten(0.0, 300.0),
    p_min=_powers_of_ten(-300.0, 0.0),  # so that p_min * theta stays finite
    capacity=st.floats(0.1, 50.0) | _powers_of_ten(-140.0, 140.0),
)
def test_p_min_inverts_to_c_th(theta, p_min, capacity):
    # the formula's own value at p_min: ln 1 is 0.0 and the slope is finite
    pol = ThresholdPolicy.build(PriceBounds(p_min, p_min * theta), capacity)
    assert pol.eval_g_inverse(p_min).hex() == pol.c_th.hex()
    assert pol.eval_g(pol.c_th) == p_min


@settings(max_examples=60)
@given(
    capacity=st.floats(0.5, 500.0),
    theta=st.floats(1.01, 100.0),
    frac=st.floats(0.0, 1.0),
)
def test_identities_across_parameters(capacity, theta, frac):
    pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * theta), capacity)
    p_max = pol.bounds.p_max
    assert abs(pol.eval_g(0.0) - p_max) <= 1e-9 * p_max
    assert pol.eval_g(pol.c_th) == pol.bounds.p_min
    assert abs(pol.cr_value - capacity / pol.l_n) <= 1e-9 * pol.cr_value
    z = frac * pol.c_th
    price = pol.eval_g(z)
    if price > pol.bounds.p_min:
        assert pol.eval_g(pol.eval_g_inverse(price)) == pytest.approx(price, rel=1e-9)


def eval_g_reference(pol: ThresholdPolicy, z: float) -> float:
    """``eval_g`` with its constants derived from the fields on every call."""
    if z < -1e-12 * pol.capacity or z > pol.capacity * (1.0 + 1e-12):
        raise ValidationError(f"level {z} outside [0, {pol.capacity}]")
    z = max(z, 0.0)
    if z >= pol.c_th:
        return pol.bounds.p_min
    return pol.bounds.p_min * math.exp((pol.c_th - z) * pol.c_th / (pol.capacity * pol.l_n))


def eval_g_inverse_reference(pol: ThresholdPolicy, price: float) -> float:
    """``eval_g_inverse`` with its constants derived from the fields on every
    call, and c_th written out where the curve reaches p_min: at p_min, and on
    the flat curve of theta == 1."""
    p_min, p_max = pol.bounds.p_min, pol.bounds.p_max
    if not p_min <= price <= p_max * (1.0 + 1e-12):
        raise ValidationError(f"price {price} outside g's range [{p_min}, {p_max}]")
    if price == p_min or pol.c_th == 0.0:
        return pol.c_th
    return pol.c_th - (pol.capacity * pol.l_n / pol.c_th) * math.log(price / p_min)


def outcome(f, *args):
    """f(*args) as float.hex, or the message of the ValidationError it raises"""
    try:
        return f(*args).hex()
    except ValidationError as exc:
        return str(exc)


class TestConstantsComputedOnce:
    """eval_g and eval_g_inverse read constants computed at construction and
    give the bits, and the errors, of the expressions derived per call."""

    @settings(max_examples=300)
    @given(
        capacity=st.floats(0.01, 1e4),
        theta=st.one_of(st.just(1.0), st.floats(1.0, 1e3)),
        frac=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1e-12, 1.0 + 1e-12, -2e-12, 1.0 + 2e-12]),
            st.floats(-0.01, 1.01),
        ),
    )
    @example(capacity=20.0, theta=4.0, frac=1e-300)
    def test_eval_g_matches_per_call_constants(self, capacity, theta, frac):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * theta), capacity)
        z = frac * capacity
        assert outcome(pol.eval_g, z) == outcome(eval_g_reference, pol, z)

    @settings(max_examples=300)
    @given(
        capacity=st.floats(0.01, 1e4),
        theta=st.one_of(st.just(1.0), st.floats(1.0, 1e3)),
        frac=st.one_of(
            st.sampled_from([0.0, -1e-9, 1.0, 1.0 + 1e-12, 1.0 + 2e-12]), st.floats(-0.01, 1.01)
        ),
    )
    def test_eval_g_inverse_matches_per_call_constants(self, capacity, theta, frac):
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0 * theta), capacity)
        price = 10.0 + frac * (pol.bounds.p_max - 10.0)
        assert outcome(pol.eval_g_inverse, price) == outcome(eval_g_inverse_reference, pol, price)

    def test_value_fields_alone_compare_and_print(self, pol_e2):
        again = ThresholdPolicy.build(pol_e2.bounds, pol_e2.capacity)
        assert again == pol_e2 and repr(again) == repr(pol_e2)
        assert "_slope" not in repr(pol_e2)


class TestNanIsOutOfRange:
    def test_eval_g(self, pol_e2):
        with pytest.raises(ValidationError, match="level nan outside"):
            pol_e2.eval_g(math.nan)

    def test_eval_g_inverse(self, pol_e2):
        with pytest.raises(ValidationError, match="price nan outside"):
            pol_e2.eval_g_inverse(math.nan)

    def test_theta_one_inverts_to_zero(self):
        # c_th == 0 and the slope is 0.0: every price in range, the tolerance
        # above p_max included, inverts to 0.0 without a division, and no
        # other price is let through
        pol = ThresholdPolicy.build(PriceBounds(10.0, 10.0), 20.0)
        for price in (10.0, math.nextafter(10.0, 11.0)):
            assert pol.eval_g_inverse(price).hex() == "0x0.0p+0"
        for price in (math.nextafter(10.0, 0.0), 10.0 * (1.0 + 2e-12), math.nan):
            with pytest.raises(ValidationError, match="g's range"):
                pol.eval_g_inverse(price)
