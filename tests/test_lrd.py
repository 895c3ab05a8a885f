"""Hurst estimators, the Dickey-Fuller test, memory classification, and the
seasonality diagnostic. Estimator accuracy at scale lives in the acceptance
suite; here single seeds are frozen from oracle runs and calibration uses
independent closed-form implementations."""

import numpy as np
import pytest

from lrdforecast import (
    GenSpec,
    LagTooLarge,
    MalformedInput,
    SeriesTooShort,
    SingularRegression,
    TimeSeries,
    ZeroVariance,
    acf,
    adf_test,
    classify_memory,
    generate,
    hurst_aggregated_variance,
    hurst_periodogram,
    hurst_rescaled_range,
    seasonal_peak_diagnostic,
)
from lrdforecast.lrd import DF_CRITICAL_VALUES, MEDIAN_H_CRITICAL_VALUES, _median_h_critical_value


def _wn(n, seed):
    return generate(GenSpec(kind="white_noise", n=n, seed=seed))


def _fgn(n, seed, hurst):
    return generate(GenSpec(kind="fgn", n=n, seed=seed, hurst=hurst))


class TestAggregatedVariance:
    def test_white_noise_single_seed(self):
        est = hurst_aggregated_variance(_wn(8192, 2))
        assert 0.45 <= est.h <= 0.58

    def test_fgn_single_seed(self):
        est = hurst_aggregated_variance(_fgn(8192, 2, 0.8))
        assert 0.70 <= est.h <= 0.90

    def test_slope_relation(self):
        est = hurst_aggregated_variance(_wn(4096, 5))
        assert not est.clamped
        assert est.h == pytest.approx(1.0 + est.slope / 2.0)

    def test_constant_series(self):
        with pytest.raises(ZeroVariance):
            hurst_aggregated_variance(TimeSeries(np.full(1024, 2.0)))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            hurst_aggregated_variance(TimeSeries(np.arange(1.0, 7.0)))

    def test_points_support_regression(self):
        est = hurst_aggregated_variance(_wn(1024, 0))
        assert est.points.shape[0] >= 4
        assert 0.0 <= est.r_squared <= 1.0


class TestRescaledRange:
    def test_white_noise_single_seed(self):
        est = hurst_rescaled_range(_wn(8192, 2))
        assert 0.48 <= est.h <= 0.65

    def test_fgn_single_seed(self):
        est = hurst_rescaled_range(_fgn(8192, 2, 0.8))
        assert 0.70 <= est.h <= 0.90

    def test_h_is_slope(self):
        est = hurst_rescaled_range(_wn(2048, 7))
        assert est.h == est.slope

    def test_scales_halve(self):
        est = hurst_rescaled_range(_wn(1024, 0))
        scales = est.points[:, 0].astype(int).tolist()
        assert scales == [1024, 512, 256, 128, 64, 32, 16, 8]

    def test_constant_series(self):
        from lrdforecast import DegenerateScaleWarning

        with pytest.warns(DegenerateScaleWarning):
            with pytest.raises(ZeroVariance):
                hurst_rescaled_range(TimeSeries(np.full(512, 1.0)))


class TestPeriodogram:
    def test_fgn_single_seed(self):
        est = hurst_periodogram(_fgn(8192, 2, 0.7))
        assert 0.60 <= est.h <= 0.80

    def test_white_noise_single_seed(self):
        est = hurst_periodogram(_wn(8192, 2))
        assert 0.40 <= est.h <= 0.60

    def test_slope_relation(self):
        est = hurst_periodogram(_wn(4096, 1))
        assert est.h == pytest.approx((1.0 - est.slope) / 2.0)

    def test_high_frequency_cosine_leaves_band_alone(self):
        # a seasonal component at a Fourier frequency above the fitted band
        # must not disturb the low-frequency slope
        n = 4096
        rng = np.random.default_rng(12)
        t = np.arange(n)
        k_cos = int(0.3 * n / 2)  # well outside the lowest 10%
        x = rng.standard_normal(n) + 10.0 * np.cos(2 * np.pi * k_cos * t / n)
        est = hurst_periodogram(TimeSeries(x))
        assert abs(est.h - 0.5) <= 0.1

    def test_band_size(self):
        est = hurst_periodogram(_wn(1000, 0))
        assert est.points.shape[0] == 50

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            hurst_periodogram(TimeSeries(np.arange(1.0, 33.0)))

    def test_band_boundary(self):
        # the band keeps k <= 0.05 n: fewer than 4 frequencies up to n = 79
        for n in range(64, 80):
            with pytest.raises(SeriesTooShort, match="4 Fourier frequencies"):
                hurst_periodogram(_wn(n, n))
        assert hurst_periodogram(_wn(80, 80)).points.shape[0] == 4


class TestEstimatorRecoveryLight:
    # full four-H, three-estimator, 50-seed recovery runs in the acceptance
    # suite; this is a quick regression canary
    def test_fgn_h07_all_estimators(self):
        estimates = {"av": [], "rs": [], "pg": []}
        for seed in range(10):
            s = _fgn(8192, seed, 0.7)
            estimates["av"].append(hurst_aggregated_variance(s).h)
            estimates["rs"].append(hurst_rescaled_range(s).h)
            estimates["pg"].append(hurst_periodogram(s).h)
        for vals in estimates.values():
            assert abs(np.mean(vals) - 0.7) <= 0.1


class TestAdf:
    def test_random_walk_not_stationary(self):
        res = adf_test(generate(GenSpec(kind="random_walk", n=2000, seed=2)))
        assert not res.stationary_at_5pct

    def test_white_noise_stationary(self):
        res = adf_test(_wn(2000, 2))
        assert res.stationary_at_5pct
        assert res.statistic < -10

    def test_ar_half_stationary(self):
        res = adf_test(generate(GenSpec(kind="arma", n=2000, seed=2, phi=(0.5,))))
        assert res.stationary_at_5pct

    def test_random_walk_rejection_rate(self):
        # null is true: should rarely be declared stationary
        false_pos = sum(
            adf_test(generate(GenSpec(kind="random_walk", n=2000, seed=s))).stationary_at_5pct
            for s in range(100)
        )
        assert false_pos <= 10

    def test_white_noise_power(self):
        hits = sum(
            adf_test(_wn(2000, s)).stationary_at_5pct for s in range(100)
        )
        assert hits >= 95

    def test_verdict_matches_critical_value(self):
        res = adf_test(_wn(500, 3))
        assert res.stationary_at_5pct == (res.statistic < res.critical_values["5%"])

    def test_schwert_default_lag(self):
        res = adf_test(_wn(2000, 0))
        assert res.lags_used == int(12 * (2000 / 100) ** 0.25)

    def test_constant_series_singular(self):
        with pytest.raises(SingularRegression):
            adf_test(TimeSeries(np.full(100, 4.0)))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            adf_test(TimeSeries(np.arange(1.0, 21.0)))

    def test_minimum_length(self):
        # at n = 25 Schwert's rule gives 8 lags, leaving 16 - 10 = 6
        # degrees of freedom
        res = adf_test(_wn(25, 0))
        assert res.lags_used == 8
        assert np.isfinite(res.statistic)

    def test_critical_values_monte_carlo(self):
        # independent oracle: closed-form tau of the lag-0 regression with
        # intercept, vectorised over 50,000 simulated unit-root nulls; the
        # empirical quantiles must sit near the embedded table
        rng = np.random.default_rng(20260811)
        taus = []
        for _ in range(10):
            walks = np.cumsum(rng.standard_normal((5000, 500)), axis=1)
            level = walks[:, :-1]
            diff = np.diff(walks, axis=1)
            lc = level - level.mean(axis=1, keepdims=True)
            dc = diff - diff.mean(axis=1, keepdims=True)
            sxx = np.sum(lc * lc, axis=1)
            phi = np.sum(lc * dc, axis=1) / sxx
            resid = dc - phi[:, None] * lc
            s2 = np.sum(resid * resid, axis=1) / (level.shape[1] - 2)
            taus.append(phi / np.sqrt(s2 / sxx))
        taus = np.concatenate(taus)
        assert np.quantile(taus, 0.05) == pytest.approx(DF_CRITICAL_VALUES["5%"], abs=0.05)
        assert np.quantile(taus, 0.01) == pytest.approx(DF_CRITICAL_VALUES["1%"], abs=0.08)
        assert np.quantile(taus, 0.10) == pytest.approx(DF_CRITICAL_VALUES["10%"], abs=0.05)


class TestClassification:
    def test_long_memory_detected(self):
        cls = classify_memory(generate(GenSpec(kind="arfima", n=4096, seed=0, d=0.3)))
        assert cls.verdict == "LRD"
        assert cls.h_median > 0.5
        assert set(cls.h_by_method) == {
            "aggregated_variance", "rescaled_range", "periodogram",
        }

    def test_fgn_high_hurst(self):
        cls = classify_memory(_fgn(4096, 1, 0.8))
        assert cls.verdict == "LRD"

    def test_verdict_consistent_with_median(self):
        # LRD exactly when the median exceeds the white-noise critical value
        # at the series' length, on rows, between rows and beyond the table;
        # white noise with a median above 1/2 stays SRD
        between = 0
        for n in (300, 1024, 10000):
            crit = _median_h_critical_value(n)
            for seed in range(3):
                for s in (_wn(n, seed), generate(GenSpec(kind="arfima", n=n, seed=seed, d=0.3))):
                    cls = classify_memory(s)
                    assert (cls.verdict == "LRD") == (cls.h_median > crit)
                    between += 0.5 < cls.h_median <= crit
        assert between >= 3

    def test_critical_value_interpolation(self):
        table = MEDIAN_H_CRITICAL_VALUES
        sizes = sorted(table)
        assert [table[n] for n in sizes] == sorted(table.values(), reverse=True)
        for n in sizes:
            assert _median_h_critical_value(n) == table[n]
        for a, b in zip(sizes, sizes[1:]):  # halfway in log n
            assert _median_h_critical_value(np.sqrt(a * b)) == pytest.approx(
                (table[a] + table[b]) / 2, abs=1e-12)
        assert _median_h_critical_value(10**6) == table[sizes[-1]]

    @pytest.mark.filterwarnings("ignore::lrdforecast.ClampWarning")
    def test_critical_values_monte_carlo(self):
        # the table's size on fresh white-noise seeds, disjoint from its
        # calibration seeds (10000-11999) and the acceptance suite's (0-49),
        # on rows and between them (724 ~ 512 * sqrt 2): 1,200 series whose
        # LRD share must sit near the nominal 5% (binomial sd 0.0063)
        shares = []
        for n in (256, 724, 2048, 4096):
            shares.append(np.mean([classify_memory(_wn(n, s)).verdict == "LRD"
                                   for s in range(30000, 30300)]))
        assert all(share <= 0.10 for share in shares), shares
        assert np.mean(shares) == pytest.approx(0.05, abs=0.02), shares

    def test_white_noise_median_near_half(self):
        meds = [classify_memory(_wn(4096, s)).h_median for s in range(10)]
        assert abs(np.mean(meds) - 0.5) < 0.06

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            classify_memory(TimeSeries(np.arange(1.0, 101.0)))


class TestSeasonalDiagnostic:
    def test_daily_sinusoid_detected(self):
        rng = np.random.default_rng(0)
        t = np.arange(400)
        x = 10 + np.cos(2 * np.pi * t / 24) + 0.5 * rng.standard_normal(400)
        present, peaks = seasonal_peak_diagnostic(acf(TimeSeries(x), 96), 24)
        assert present
        assert len(peaks) == 4
        assert all(abs(p - m) <= 1 for p, m in zip(peaks, [24, 48, 72, 96]))

    def test_iid_noise_rarely_flags(self):
        hits = 0
        for seed in range(50):
            x = np.random.default_rng(seed).standard_normal(400) + 10
            present, _ = seasonal_peak_diagnostic(acf(TimeSeries(x), 96), 24)
            hits += present
        assert hits <= 5

    def test_ramp_is_not_seasonal(self):
        present, _ = seasonal_peak_diagnostic(acf(TimeSeries(np.arange(1.0, 401.0)), 96), 24)
        assert not present

    def test_needs_two_multiples(self):
        res = acf(TimeSeries(np.random.default_rng(1).standard_normal(100) + 5), 40)
        with pytest.raises(LagTooLarge):
            seasonal_peak_diagnostic(res, 24)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: seasonal_peak_diagnostic(acf(_wn(100, 0), 10), 1), MalformedInput,
                 "daily_lag", id="daily-lag-1"),
    # 8 points leave one block size, 2
    pytest.param(lambda: hurst_aggregated_variance(_wn(8, 0)), SeriesTooShort,
                 "fewer than 4 usable block sizes", id="aggregated-variance-8"),
    pytest.param(lambda: hurst_rescaled_range(_wn(15, 0)), SeriesTooShort,
                 "at least 16 observations", id="rescaled-range-15"),
    # 40 points leave three scales, 40, 20 and 10
    pytest.param(lambda: hurst_rescaled_range(_wn(40, 0)), SeriesTooShort,
                 "fewer than 4 usable scales", id="rescaled-range-40"),
    pytest.param(lambda: hurst_periodogram(TimeSeries(np.full(128, 5.0))), ZeroVariance,
                 "constant series", id="periodogram-constant"),
])
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
