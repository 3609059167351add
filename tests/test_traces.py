import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hourahead import PriceBounds, StorageSpec, StrategyConfig, TraceParseError, ValidationError
from hourahead import traces
from hourahead.experiment import ExperimentConfig, draw_instance
from hourahead.traces import (
    MAX_HORIZON,
    load_trace,
    realize_outputs,
    synthesize,
    write_trace_csv,
)


def write(path, text):
    path.write_text(text)
    return path


def at(path, line: int) -> str:
    """A pattern for the path:line an error starts with"""
    return "^" + re.escape(f"{path}:{line}:")


def blank_lines_after_header(text: str) -> str:
    """The CSV text with two blank lines after its header: data row i moves to line i + 3"""
    header, rows = text.split("\n", 1)
    return f"{header}\n\n\n{rows}"


def stamped_files(tmp_path, stamps):
    """A price and a wind file whose rows carry `stamps`, prices 10, 20, 40."""
    price = "timestamp,price\n" + "".join(f"{s},{v}\n" for s, v in zip(stamps, (10, 20, 40)))
    wind = "timestamp,wind_mw\n" + "".join(f"{s},1.0\n" for s in stamps)
    return write(tmp_path / "p.csv", price), write(tmp_path / "w.csv", wind)


PRICE_3 = "timestamp,price\n2015-01-01T00:00,10.5\n2015-01-01T01:00,22.0\n2015-01-01T02:00,41.3\n"
WIND_3 = "timestamp,wind_mw\n2015-01-01T00:00,1.5\n2015-01-01T01:00,0.0\n2015-01-01T02:00,9.9\n"


class TestLoadTrace:
    def test_round_trip(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3)
        w = write(tmp_path / "w.csv", WIND_3)
        trace, bounds = load_trace(p, w)
        assert trace.horizon == 3
        assert trace.prices == (10.5, 22.0, 41.3)
        assert trace.outputs == (1.5, 0.0, 9.9)
        assert bounds.p_min == 10.5 and bounds.p_max == 41.3

    def test_derived_theta(self, tmp_path):
        prices = [8.1, 12.0, 43.1, 25.0]
        rows = "timestamp,price\n" + "".join(
            f"2015-01-01T0{i}:00,{v}\n" for i, v in enumerate(prices)
        )
        winds = "timestamp,wind_mw\n" + "".join(
            f"2015-01-01T0{i}:00,1.0\n" for i in range(4)
        )
        p = write(tmp_path / "p.csv", rows)
        w = write(tmp_path / "w.csv", winds)
        _, bounds = load_trace(p, w)
        assert bounds.theta == pytest.approx(5.32, abs=0.01)

    def test_explicit_bounds_reject_out_of_range(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3.replace("41.3", "200.0"))
        w = write(tmp_path / "w.csv", WIND_3)
        with pytest.raises(ValidationError, match=at(p, 4) + r" price 200\.0 outside bounds"):
            load_trace(p, w, bounds=PriceBounds(10.0, 100.0))

    def test_explicit_bounds_clip(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3.replace("41.3", "200.0"))
        w = write(tmp_path / "w.csv", WIND_3)
        trace, _ = load_trace(p, w, bounds=PriceBounds(10.0, 100.0), clip=True)
        assert trace.prices[2] == 100.0

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "p.csv", "time,price\n2015-01-01T00:00,10\n")
        w = write(tmp_path / "w.csv", WIND_3)
        with pytest.raises(TraceParseError, match=":1:"):
            load_trace(p, w)

    def test_bad_value_names_line(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3.replace("22.0", "abc"))
        w = write(tmp_path / "w.csv", WIND_3)
        with pytest.raises(TraceParseError, match=":3:"):
            load_trace(p, w)

    def test_bad_timestamp_names_line(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3.replace("2015-01-01T01:00", "yesterday"))
        w = write(tmp_path / "w.csv", WIND_3)
        with pytest.raises(TraceParseError, match=":3:"):
            load_trace(p, w)

    def test_misaligned_lengths(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3)
        w = write(tmp_path / "w.csv", "timestamp,wind_mw\n2015-01-01T00:00,1.0\n")
        with pytest.raises(TraceParseError, match="misaligned"):
            load_trace(p, w)

    def test_timestamp_mismatch(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3)
        w = write(tmp_path / "w.csv", WIND_3.replace("T01:00", "T05:00"))
        with pytest.raises(TraceParseError, match=at(w, 3) + " timestamp '2015-01-01T05:00'"):
            load_trace(p, w)

    def test_negative_wind_rejected(self, tmp_path):
        p = write(tmp_path / "p.csv", PRICE_3)
        w = write(tmp_path / "w.csv", WIND_3.replace("0.0", "-1.0"))
        with pytest.raises(ValidationError, match=at(w, 3) + " wind_mw must be non-negative"):
            load_trace(p, w)

    @pytest.mark.parametrize(
        "price_text, wind_text, bounds, error, message",
        [
            (PRICE_3.replace("41.3", "-41.3"), WIND_3, None, ValidationError,
             "{p}:6: price must be positive, got -41.3"),
            (PRICE_3, WIND_3.replace("9.9", "-9.9"), None, ValidationError,
             "{w}:6: wind_mw must be non-negative, got -9.9"),
            (PRICE_3.replace("41.3", "200.0"), WIND_3, PriceBounds(10.0, 100.0), ValidationError,
             "{p}:6: price 200.0 outside bounds [10.0, 100.0] and clipping is off"),
        ],
        ids=["negative_price", "negative_wind", "price_out_of_bounds"],
    )  # fmt: skip
    def test_line_after_blank_lines(self, price_text, wind_text, bounds, error, message, tmp_path):
        # the file's own line, not the data row's index
        p = write(tmp_path / "p.csv", blank_lines_after_header(price_text))
        w = write(tmp_path / "w.csv", blank_lines_after_header(wind_text))
        with pytest.raises(error, match="^" + re.escape(message.format(p=p, w=w)) + "$"):
            load_trace(p, w, bounds=bounds)

    def test_timestamp_mismatch_after_blank_lines(self, tmp_path):
        # each file's own line of the mismatched row
        p = write(tmp_path / "p.csv", PRICE_3)
        w = write(tmp_path / "w.csv", blank_lines_after_header(WIND_3.replace("T02:00", "T05:00")))
        message = f"{w}:6: timestamp '2015-01-01T05:00' does not match {p}:4, which has "
        with pytest.raises(TraceParseError, match="^" + re.escape(message + "'2015-01-01T02:00'")):
            load_trace(p, w)

    @pytest.mark.parametrize(
        "stamps, line, message",
        [
            (("T02:00", "T00:00", "T00:00"), 3,
             "'2015-01-01T00:00' is not one hour after the row before"),
            (("T00:00", "T01:00", "T01:00"), 4,
             "'2015-01-01T01:00' is not one hour after the row before"),
            (("T00:00", "T01:00", "T06:00"), 4,
             "'2015-01-01T06:00' is not one hour after the row before"),
            (("T00:00", "T00:30", "T01:30"), 3,
             "'2015-01-01T00:30' is not one hour after the row before"),
            (("T00:00", "T01:00+00:00", "T02:00+00:00"), 3,
             "'2015-01-01T01:00+00:00' mixes naive and offset times"),
            (("T00:00+01:00", "T01:00", "T02:00"), 3, "'2015-01-01T01:00' mixes naive and offset times"),
        ],
        ids=["backwards", "repeated", "gap", "half_hour", "offset_after_naive",
             "naive_after_offset"],
    )  # fmt: skip
    def test_rows_out_of_time_order(self, stamps, line, message, tmp_path):
        # each row is played as the next one-hour slot, whose storage level
        # follows the slot before, so a row that is not one hour after the row
        # before is refused, not played as the next hour
        p, w = stamped_files(tmp_path, [f"2015-01-01{stamp}" for stamp in stamps])
        with pytest.raises(TraceParseError, match="^" + re.escape(f"{p}:{line}: {message}") + "$"):
            load_trace(p, w)

    def test_gap_across_offsets_is_refused(self, tmp_path):
        # 00:00+00:00 to 06:00+01:00 is five hours, although the offsets differ
        stamps = ("2015-01-01T00:00+00:00", "2015-01-01T06:00+01:00", "2015-01-02T00:00+00:00")
        p, w = stamped_files(tmp_path, stamps)
        message = f"{p}:3: '2015-01-01T06:00+01:00' is not one hour after the row before"
        with pytest.raises(TraceParseError, match="^" + re.escape(message) + "$"):
            load_trace(p, w)

    def test_hourly_rows_across_an_offset_change_load(self, tmp_path):
        # a daylight-saving change: 01:00+01:00 then 01:00+00:00 is one hour
        # (00:00 then 01:00 UTC), as is 01:00+00:00 then 03:00+01:00
        stamps = ("2015-10-25T01:00+01:00", "2015-10-25T01:00+00:00", "2015-10-25T03:00+01:00")
        trace, _ = load_trace(*stamped_files(tmp_path, stamps))
        assert trace.prices == (10.0, 20.0, 40.0)

    def test_byte_order_mark(self, tmp_path):
        # a UTF-8 byte-order mark, as spreadsheet exports write, is read past
        p = write(tmp_path / "p.csv", PRICE_3)
        w = write(tmp_path / "w.csv", WIND_3)
        marked = [tmp_path / "pm.csv", tmp_path / "wm.csv"]
        for path, text in zip(marked, (PRICE_3, WIND_3)):
            path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_trace(*marked) == load_trace(p, w)

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        # a byte that is not UTF-8 at the start of line 2 is named on line 2,
        # although the mark's three bytes precede it
        p = tmp_path / "p.csv"
        p.write_bytes(b"\xef\xbb\xbftimestamp,price\n\xff2015-01-01T00:00,10.5\n")
        w = write(tmp_path / "w.csv", WIND_3)
        with pytest.raises(TraceParseError, match="^" + re.escape(f"{p}:2: not UTF-8 text") + "$"):
            load_trace(p, w)

    def test_write_then_load(self, tmp_path, bounds):
        trace = synthesize(np.random.default_rng(5), 24, bounds)
        write_trace_csv(trace, tmp_path / "p.csv", tmp_path / "w.csv")
        back, _ = load_trace(tmp_path / "p.csv", tmp_path / "w.csv")
        assert back.prices == trace.prices
        assert back.outputs == trace.outputs


class TestSynthetic:
    def test_same_seed_identical(self, bounds):
        a = synthesize(np.random.default_rng(123), 100, bounds)
        b = synthesize(np.random.default_rng(123), 100, bounds)
        assert a == b

    def test_different_seed_differs(self, bounds):
        one, two = (synthesize(np.random.default_rng(seed), 50, bounds) for seed in (1, 2))
        assert one != two

    def test_prices_within_bounds(self, bounds):
        for seed in range(5):
            trace = synthesize(np.random.default_rng(seed), 200, bounds)
            assert all(bounds.p_min <= p <= bounds.p_max for p in trace.prices)

    def test_wind_within_capacity(self, bounds):
        for seed in range(5):
            trace = synthesize(np.random.default_rng(seed), 200, bounds, wind_capacity=10.0)
            assert all(0.0 <= u <= 10.0 for u in trace.outputs)

    def test_params_change_shape(self, bounds, monkeypatch):
        monkeypatch.setattr(traces, "PRICE_SIGMA", 0.01)
        calm = synthesize(np.random.default_rng(3), 100, bounds)
        monkeypatch.setattr(traces, "PRICE_SIGMA", 0.5)
        wild = synthesize(np.random.default_rng(3), 100, bounds)
        assert np.std(calm.prices) < np.std(wild.prices)

    def test_bad_horizon(self, bounds):
        with pytest.raises(ValidationError):
            synthesize(np.random.default_rng(1), 0, bounds)

    def test_horizon_guard(self, bounds):
        # refused before a single draw: the generator's stream is untouched
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            synthesize(rng, MAX_HORIZON + 1, bounds)
        assert rng.random() == np.random.default_rng(0).random()


class TestRealizeOutputs:
    def test_zero_error_exact(self):
        rng = np.random.default_rng(0)
        outputs = (1.0, 2.5, 0.0, 7.25)
        assert realize_outputs(rng, outputs, 0.0) == outputs

    def test_band_containment(self):
        rng = np.random.default_rng(1)
        outputs = tuple(float(x) for x in rng.uniform(0, 10, 200))
        realized = realize_outputs(rng, outputs, 0.3)
        for u, r in zip(outputs, realized):
            assert 0.7 * u - 1e-12 <= r <= 1.3 * u + 1e-12

    def test_deterministic(self):
        a = realize_outputs(np.random.default_rng(9), (1.0, 2.0, 3.0), 0.2)
        b = realize_outputs(np.random.default_rng(9), (1.0, 2.0, 3.0), 0.2)
        assert a == b

    def test_bad_bound(self):
        with pytest.raises(ValidationError):
            realize_outputs(np.random.default_rng(0), (1.0,), 0.5)

    @pytest.mark.parametrize("bound", [-0.1, 0.5, math.nan])
    def test_bound_refused_as_the_strategy_config_refuses_it(self, bound):
        # one check, one message: the draw and the strategies' config
        message = "^" + re.escape(f"e_max must be in [0, 0.5), got {bound}") + "$"
        with pytest.raises(ValidationError, match=message):
            realize_outputs(np.random.default_rng(0), (1.0,), bound)
        with pytest.raises(ValidationError, match=message):
            StrategyConfig(PriceBounds(10.0, 40.0), StorageSpec(20.0, 10.0, 10.0), e_max=bound)


def synthesize_reference(rng, horizon, bounds, wind_capacity):
    """``synthesize`` over numpy scalars, each converted by float() in the
    loop, with the builtin min and max as its clips."""
    p_min, p_max = bounds.p_min, bounds.p_max
    lo, hi = math.log(p_min), math.log(p_max)
    x = rng.uniform(lo, hi)
    prices = []
    for step in rng.standard_normal(horizon):
        x = min(max(x + traces.PRICE_SIGMA * float(step), lo), hi)
        prices.append(min(max(math.exp(x), p_min), p_max))
    mean = traces.WIND_MEAN_FRAC * wind_capacity
    sigma = traces.WIND_SIGMA_FRAC * wind_capacity
    w, winds = mean, []
    for step in rng.standard_normal(horizon):
        w = min(max(mean + traces.WIND_PHI * (w - mean) + sigma * float(step), 0.0), wind_capacity)
        winds.append(w)
    return prices, winds


def realize_outputs_reference(rng, predicted, error_bound):
    """``realize_outputs`` with one numpy-scalar product per output."""
    factors = 1.0 + error_bound * rng.uniform(-1.0, 1.0, size=len(predicted))
    return tuple(float(u * f) for u, f in zip(predicted, factors))


def hexes(values) -> list[str]:
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


class TestDrawIsBitForBit:
    """The draw iterates Python floats (``tolist``), not numpy scalars: the
    same floats, bit for bit."""

    def test_seed_7_runs_0_to_39_match_the_pinned_floats(self):
        # sha256 of the float.hex of prices, realized and predicted outputs of
        # the default 360-slot runs, as drawn when the loops read numpy scalars
        digest = hashlib.sha256()
        cfg = ExperimentConfig(seed=7)
        for run in range(40):
            trace, predicted = draw_instance(cfg, run)
            for series in (trace.prices, trace.outputs, predicted):
                digest.update(" ".join(hexes(series)).encode() + b"\n")
        assert digest.hexdigest() == (
            "9addbfa8808b8bd5ff240cc2a726cb20df2d2cd686a967e1945a158c6b39ecc8"
        )

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32),
        horizon=st.integers(1, 60),
        p_min=st.floats(0.5, 50.0),
        theta=st.floats(1.0, 20.0),
        wind_capacity=st.sampled_from([0.0, 1.0, 10.0, 250.0]),
        error_bound=st.sampled_from([0.0, 0.1, 0.49]),
    )
    def test_matches_numpy_scalar_loops(
        self, seed, horizon, p_min, theta, wind_capacity, error_bound
    ):
        bounds = PriceBounds(p_min, p_min * theta)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        trace = synthesize(rng, horizon, bounds, wind_capacity)
        prices, winds = synthesize_reference(ref_rng, horizon, bounds, wind_capacity)
        assert hexes(trace.prices) == hexes(prices)
        assert hexes(trace.outputs) == hexes(winds)
        assert hexes(realize_outputs(rng, trace.outputs, error_bound)) == hexes(
            realize_outputs_reference(ref_rng, winds, error_bound)
        )
