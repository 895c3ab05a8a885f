"""Container, ingestion, transform, differencing, and ACF behavior."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrdforecast import (
    AcfResult,
    EmptyInput,
    IrregularGrid,
    LagTooLarge,
    MalformedInput,
    NonPositiveValue,
    SeriesTooShort,
    TimeSeries,
    TransformSpec,
    ZeroVariance,
    acf,
    difference,
    ingest_csv,
    inverse_transform,
    transform,
    write_csv,
)


def _write(tmp_path, rows, header="timestamp,value"):
    path = tmp_path / "series.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestIngest:
    def test_direct_parse(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "7200,125"])
        ts = ingest_csv(path)
        assert ts.interval == 3600
        assert ts.start_time == 0
        np.testing.assert_array_equal(ts.values, [120, 130, 125])

    def test_gap_without_policy_rejected(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "10800,125"])
        with pytest.raises(IrregularGrid):
            ingest_csv(path)

    def test_gap_filled_with_locf(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "10800,125"])
        ts = ingest_csv(path, fill="locf")
        np.testing.assert_array_equal(ts.values, [120, 130, 130, 125])

    def test_fractional_gap_rejected_even_with_locf(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "9000,125"])
        with pytest.raises(IrregularGrid):
            ingest_csv(path, fill="locf")

    def test_nonpositive_value(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,0"])
        with pytest.raises(NonPositiveValue):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            ingest_csv(path)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, [])
        with pytest.raises(EmptyInput):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, ["0,1"], header="time,val")
        with pytest.raises(MalformedInput):
            ingest_csv(path)

    def test_decreasing_timestamps(self, tmp_path):
        path = _write(tmp_path, ["3600,120", "0,130"])
        with pytest.raises(IrregularGrid):
            ingest_csv(path)

    def test_interval_hint_overrides_inference(self, tmp_path):
        path = _write(tmp_path, ["0,1", "7200,2"])
        ts = ingest_csv(path, interval_hint=3600, fill="locf")
        assert len(ts) == 3

    @pytest.mark.parametrize("hint", [float("nan"), float("inf"), 0.0, -1.0])
    def test_interval_hint_must_be_finite_and_positive(self, tmp_path, hint):
        path = _write(tmp_path, ["0,1", "3600,2"])
        with pytest.raises(MalformedInput, match="finite and positive"):
            ingest_csv(path, interval_hint=hint)

    @pytest.mark.parametrize("hint, fill", [(1e-310, None), (1e-300, "locf")],
                             ids=["count-overflows", "count-too-large-to-fill"])
    def test_gap_of_too_many_intervals_is_irregular(self, tmp_path, hint, fill):
        # 3600 / 1e-310 is inf, and 3600 / 1e-300 intervals cannot be filled
        path = _write(tmp_path, ["0,1", "3600,2", "7200,3"])
        with pytest.raises(IrregularGrid, match=r"gap of 3600\.0s at t=3600\.0"):
            ingest_csv(path, interval_hint=hint, fill=fill)

    def test_modal_interval_inference(self, tmp_path):
        rows = ["0,1", "60,2", "120,3", "180,4", "360,5"]
        ts = ingest_csv(_write(tmp_path, rows), fill="locf")
        assert ts.interval == 60
        assert len(ts) == 7

    def test_label_defaults_to_stem(self, tmp_path):
        ts = ingest_csv(_write(tmp_path, ["0,1", "60,2"]))
        assert ts.label == "series"

    def test_write_ingest_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = 100.0 * np.exp(rng.standard_normal(50) * 0.3)
        ts = TimeSeries(vals, start_time=0.0, interval=60.0, label="x")
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(ts, p1)
        again = ingest_csv(p1)
        write_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # start_time up to 2e9 s covers epoch timestamps; a write must keep even
    # sub-second grids apart, which integer timestamps did not
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(start=st.integers(0, 2_000_000_000), interval=st.floats(1e-3, 86400.0),
           n=st.integers(2, 40))
    @example(start=0, interval=0.5, n=10)
    @example(start=1_700_000_000, interval=0.1, n=40)
    @example(start=16_777_216, interval=0.001, n=2)
    @example(start=2_000_000_000, interval=0.001, n=40)
    def test_write_ingest_round_trip_fractional_interval(self, tmp_path, start,
                                                         interval, n):
        ts = TimeSeries(np.arange(1.0, n + 1.0), start_time=float(start),
                        interval=interval)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ts, p1)
        back = ingest_csv(p1)
        np.testing.assert_array_equal(back.values, ts.values)
        assert back.start_time == ts.start_time
        # the inferred interval is a difference of two float timestamps, so it
        # carries their rounding error: the grid tolerance ingest_csv uses
        t_max = float(np.abs(ts.timestamps).max())
        rel = 1e-6 + 4.0 * sys.float_info.epsilon * t_max / interval
        assert back.interval == pytest.approx(interval, rel=rel)
        write_csv(back, p2)
        hinted = ingest_csv(p2, interval_hint=interval)
        np.testing.assert_array_equal(hinted.timestamps, ts.timestamps)
        np.testing.assert_array_equal(hinted.values, ts.values)

    @pytest.mark.parametrize("row, what", [
        ("nan,2", "timestamp"), ("inf,2", "timestamp"),
        ("1,nan", "value"), ("1,inf", "value"),
    ], ids=["nan", "inf", "value-nan", "value-inf"])
    def test_non_finite_timestamp_is_malformed(self, tmp_path, row, what):
        path = _write(tmp_path, ["0,1", row, "2,3"])
        with pytest.raises(MalformedInput, match=rf"series\.csv:3: non-finite {what}"):
            ingest_csv(path)


class TestContainer:
    def test_needs_observations(self):
        with pytest.raises(EmptyInput):
            TimeSeries(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(MalformedInput):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_bad_interval(self):
        with pytest.raises(MalformedInput):
            TimeSeries(np.array([1.0]), interval=0.0)

    def test_values_immutable(self):
        ts = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_timestamps(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]), start_time=10.0, interval=5.0)
        np.testing.assert_array_equal(ts.timestamps, [10.0, 15.0, 20.0])


class TestTransform:
    def test_log_identities(self):
        ts = TimeSeries(np.array([1.0, np.e, np.e**2]))
        out = transform(ts, TransformSpec(lmbda=0.0))
        np.testing.assert_allclose(out.values, [0.0, 1.0, 2.0], atol=1e-12)
        assert out.transform == TransformSpec(0.0, applied=True)

    def test_lambda_one(self):
        out = transform(TimeSeries(np.array([5.0])), TransformSpec(lmbda=1.0))
        np.testing.assert_allclose(out.values, [4.0])

    @pytest.mark.parametrize("lmbda", [0.0, 0.5, 1.0])
    def test_round_trip(self, lmbda):
        ts = TimeSeries(np.array([120.0, 130.0, 125.0]))
        back = inverse_transform(transform(ts, TransformSpec(lmbda=lmbda)))
        np.testing.assert_allclose(back.values, ts.values, rtol=1e-10)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NonPositiveValue):
            transform(TimeSeries(np.array([1.0, -2.0])), TransformSpec(lmbda=0.0))

    def test_inverse_requires_applied_transform(self):
        with pytest.raises(MalformedInput):
            inverse_transform(TimeSeries(np.array([1.0, 2.0])))


class TestDifference:
    def test_first_differences(self):
        out = difference(TimeSeries(np.array([1.0, 4.0, 9.0, 16.0])), 1)
        np.testing.assert_array_equal(out.values, [3, 5, 7])

    def test_second_differences(self):
        out = difference(TimeSeries(np.array([1.0, 4.0, 9.0, 16.0])), 2)
        np.testing.assert_array_equal(out.values, [2, 2])

    def test_order_zero_is_identity(self):
        out = difference(TimeSeries(np.array([7.0, 7.0])), 0)
        np.testing.assert_array_equal(out.values, [7, 7])

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            difference(TimeSeries(np.array([1.0, 2.0])), 2)

    def test_linear_ramp(self):
        ramp = TimeSeries(np.arange(20.0) * 3.0 + 1.0)
        d1 = difference(ramp, 1)
        assert np.ptp(d1.values) == 0
        d2 = difference(ramp, 2)
        np.testing.assert_array_equal(d2.values, np.zeros(18))


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(1)
        res = acf(TimeSeries(rng.standard_normal(100)), 10)
        assert res.rho[0] == 1.0

    def test_alternating_series_lag_one(self):
        # biased estimator on [1,-1,...] of length 8: gamma(1) = -7/8
        ts = TimeSeries(np.array([1.0, -1.0] * 4))
        res = acf(ts, 2)
        assert res.rho[1] == pytest.approx(-0.875)

    def test_white_noise_small_correlations(self):
        rng = np.random.default_rng(42)
        res = acf(TimeSeries(rng.standard_normal(10000)), 20)
        assert np.all(np.abs(res.rho[1:]) < 0.05)

    def test_iid_band_property(self):
        # at most 10% of lags 1..40 outside +-1.96/sqrt(N), across 50 seeds
        n = 2000
        band = 1.96 / np.sqrt(n)
        exceed_fractions = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            res = acf(TimeSeries(rng.standard_normal(n)), 40)
            exceed_fractions.append(np.mean(np.abs(res.rho[1:]) > band))
        assert np.mean(np.asarray(exceed_fractions) <= 0.10) >= 0.9

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.standard_normal(500))
        res = acf(TimeSeries(x), 100)
        assert np.all(np.abs(res.rho) <= 1 + 1e-12)

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            acf(TimeSeries(np.arange(1.0, 11.0)), 10)

    def test_constant_series(self):
        with pytest.raises(ZeroVariance):
            acf(TimeSeries(np.full(50, 3.0)), 5)

    def test_result_shape(self):
        res = acf(TimeSeries(np.arange(1.0, 101.0)), 7)
        assert isinstance(res, AcfResult)
        assert res.lags.tolist() == list(range(8))
        assert res.rho.shape == (8,)
        assert res.gamma0 > 0
