"""Fractional differencing algebra, CSS fitting, order selection, and
forecast behavior, cross-checked against closed forms and brute-force
linear-projection oracles."""

import dataclasses

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from lrdforecast import (
    DegenerateSampleSize,
    GenSpec,
    InvalidD,
    InvalidLevel,
    MalformedInput,
    ModelSpec,
    NoAdmissibleModel,
    SeriesTooShort,
    TimeSeries,
    TransformSpec,
    aicc,
    fit,
    fit_arfima,
    fit_arima,
    fit_mean,
    fit_naive,
    forecast,
    frac_diff_coeffs,
    frac_difference,
    generate,
    transform,
)
from lrdforecast.models import FittedModel, _arpoly, _mapoly, rebind


class TestFracDiffCoeffs:
    def test_eta_closed_form(self):
        c = frac_diff_coeffs(0.3, 3)
        np.testing.assert_allclose(c.eta, [1.0, 0.3, 0.3 * 1.3 / 2])

    def test_pi_integer_differencing(self):
        c = frac_diff_coeffs(1.0, 3)
        np.testing.assert_array_equal(c.pi, [1.0, -1.0, 0.0])

    def test_leading_terms(self):
        c = frac_diff_coeffs(0.4, 4)
        assert c.pi[0] == 1.0 and c.eta[0] == 1.0
        assert c.pi[1] == pytest.approx(-0.4)
        assert c.eta[1] == pytest.approx(0.4)

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.45])
    def test_operator_inverse(self, d):
        c = frac_diff_coeffs(d, 512)
        conv = np.convolve(c.pi, c.eta)[:256]
        impulse = np.zeros(256)
        impulse[0] = 1.0
        np.testing.assert_allclose(conv, impulse, atol=1e-10)

    def test_matches_gamma_ratio(self):
        # eta_j = Gamma(j + d) / (Gamma(j + 1) Gamma(d))
        d = 0.37
        c = frac_diff_coeffs(d, 20)
        j = np.arange(20)
        direct = gamma_fn(j + d) / (gamma_fn(j + 1) * gamma_fn(d))
        np.testing.assert_allclose(c.eta, direct, rtol=1e-12)

    def test_invalid_d(self):
        with pytest.raises(InvalidD):
            frac_diff_coeffs(-1.0, 10)
        with pytest.raises(InvalidD):
            frac_diff_coeffs(2.5, 10)


class TestFracDifference:
    def test_d_zero_identity(self):
        ts = TimeSeries(np.array([3.0, 1.0, 4.0]))
        np.testing.assert_array_equal(frac_difference(ts, 0.0).values, ts.values)

    def test_d_one_matches_integer_differencing(self):
        ts = TimeSeries(np.array([1.0, 4.0, 9.0, 16.0]))
        out = frac_difference(ts, 1.0)
        np.testing.assert_array_equal(out.values, [1.0, 3.0, 5.0, 7.0])

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        ts = TimeSeries(rng.standard_normal(300))
        back = frac_difference(frac_difference(ts, 0.3), -0.3)
        np.testing.assert_allclose(back.values, ts.values, atol=1e-8)

    def test_preserves_length(self):
        ts = TimeSeries(np.arange(1.0, 101.0))
        assert len(frac_difference(ts, 0.4)) == 100

    def test_invalid_d(self):
        with pytest.raises(InvalidD):
            frac_difference(TimeSeries(np.arange(1.0, 11.0)), -1.2)


class TestNaive:
    def test_forecast_is_last_value(self):
        model = fit_naive(TimeSeries(np.array([3.0, 5.0, 9.0])))
        fc = forecast(model, 4)
        np.testing.assert_array_equal(fc.point, [9.0, 9.0, 9.0, 9.0])

    def test_constant_series(self):
        model = fit_naive(TimeSeries(np.array([7.0, 7.0, 7.0])))
        assert model.sigma2 == 0.0
        np.testing.assert_array_equal(forecast(model, 3).point, [7.0, 7.0, 7.0])

    def test_variance_grows_linearly(self):
        model = fit_naive(TimeSeries(np.cumsum(np.random.default_rng(0).standard_normal(200))))
        fc = forecast(model, 10)
        np.testing.assert_allclose(fc.scale_sigma2, model.sigma2 * np.arange(1, 11))

    def test_random_walk_h_step_law(self):
        # Monte-Carlo oracle: the h-step variance of a random walk is h
        # times the innovation variance
        rng = np.random.default_rng(77)
        sigma, n, h = 2.0, 50, 5
        walks = np.cumsum(sigma * rng.standard_normal((4000, n + h)), axis=1)
        empirical = np.var(walks[:, n + h - 1] - walks[:, n - 1])
        assert empirical == pytest.approx(h * sigma**2, rel=0.1)
        model = fit_naive(TimeSeries(walks[0, :n]))
        assert forecast(model, h).scale_sigma2[-1] == pytest.approx(model.sigma2 * h)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_naive(TimeSeries(np.array([5.0])))


class TestMean:
    def test_forecast_is_mean(self):
        model = fit_mean(TimeSeries(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(forecast(model, 5).point, np.full(5, 2.0))

    def test_interval_width_constant(self):
        model = fit_mean(TimeSeries(np.random.default_rng(1).standard_normal(50) + 10))
        fc = forecast(model, 12)
        widths = fc.upper - fc.lower
        assert np.ptp(widths) == 0.0

    def test_variance_includes_estimation_term(self):
        # Var(X_new - mean of n samples) = sigma^2 (1 + 1/n)
        rng = np.random.default_rng(5)
        n = 20
        draws = rng.standard_normal((20000, n + 1)) * 3.0
        empirical = np.var(draws[:, -1] - draws[:, :n].mean(axis=1))
        assert empirical == pytest.approx(9.0 * (1 + 1 / n), rel=0.05)
        model = fit_mean(TimeSeries(draws[0, :n] + 100.0))
        np.testing.assert_allclose(
            forecast(model, 3).scale_sigma2, model.sigma2 * (1 + 1 / n)
        )

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_mean(TimeSeries(np.array([5.0])))


class TestAicc:
    def test_direct_formula(self):
        assert aicc(0.0, 100, 0, 0) == pytest.approx(2 * 1 * 100 / 98)

    def test_penalty_monotone_in_order(self):
        assert aicc(-50.0, 100, 1, 0) > aicc(-50.0, 100, 0, 0)
        assert aicc(-50.0, 100, 2, 2) > aicc(-50.0, 100, 1, 2)

    def test_large_sample_limit_is_aic(self):
        val = aicc(-10.0, 10**9, 2, 1)
        assert val == pytest.approx(20.0 + 2 * 4, abs=1e-4)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleSize):
            aicc(0.0, 5, 2, 1)


class TestModelSpec:
    def test_arima_d_integer_only(self):
        with pytest.raises(MalformedInput):
            ModelSpec("arima", d=0.5)

    def test_arfima_d_range(self):
        with pytest.raises(MalformedInput):
            ModelSpec("arfima", d=0.6)

    def test_naive_takes_no_orders(self):
        with pytest.raises(MalformedInput):
            ModelSpec("naive", p=1)


class TestFitArima:
    def test_ar1_coefficient_recovery(self):
        errs = []
        for seed in range(50):
            s = generate(GenSpec(kind="arma", n=2000, seed=seed, phi=(0.6,)))
            model = fit_arima(s, max_p=1, max_q=0)
            assert (model.spec.p, model.spec.q) == (1, 0)
            errs.append(model.phi[0] - 0.6)
        assert np.max(np.abs(errs)) <= 0.07
        assert abs(np.mean(errs)) <= 0.01

    def test_ar1_order_selection(self):
        for seed in range(10):
            s = generate(GenSpec(kind="arma", n=2000, seed=seed, phi=(0.6,)))
            model = fit_arima(s, max_p=2, max_q=1)
            assert model.spec.p in (1, 2)
            assert model.spec.q <= 1

    def test_random_walk_needs_one_difference(self):
        for seed in range(5):
            s = generate(GenSpec(kind="random_walk", n=500, seed=seed))
            assert fit_arima(s).spec.d == 1

    def test_white_noise_prefers_smallest_model(self):
        # measured 30/50 with the default grid; the margin guards against
        # numerics shifting a borderline seed
        zeros = 0
        for seed in range(50):
            s = generate(GenSpec(kind="white_noise", n=2000, seed=seed, offset=100.0))
            model = fit_arima(s)
            if (model.spec.p, model.spec.q) == (0, 0):
                zeros += 1
        assert zeros >= 27

    def test_returned_model_is_admissible(self):
        s = generate(GenSpec(kind="arma", n=500, seed=9, phi=(0.5,), theta=(0.3,)))
        model = fit_arima(s, max_p=2, max_q=2)
        for poly in (_arpoly(model.phi), _mapoly(model.theta)):
            if poly.size > 1:
                roots = np.roots(poly[::-1])
                assert np.min(np.abs(roots)) > 1.0

    def test_no_mean_after_differencing(self):
        s = generate(GenSpec(kind="random_walk", n=300, seed=1))
        model = fit_arima(s)
        assert model.spec.d == 1
        assert not model.spec.include_mean
        assert model.mean == 0.0

    def test_determinism(self):
        s = generate(GenSpec(kind="arma", n=400, seed=3, phi=(0.4,), theta=(0.2,)))
        a = fit_arima(s, max_p=2, max_q=2)
        b = fit_arima(s, max_p=2, max_q=2)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.aicc == b.aicc

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_arima(TimeSeries(np.arange(1.0, 21.0)))


class TestFitArfima:
    def test_d_recovery_smoke(self):
        for seed in range(5):
            s = generate(GenSpec(kind="arfima", n=2000, seed=seed, d=0.3))
            model = fit_arfima(s, max_p=0, max_q=0)
            assert 0.25 <= model.spec.d <= 0.35

    def test_white_noise_small_d(self):
        hits = 0
        for seed in range(20):
            s = generate(GenSpec(kind="white_noise", n=2000, seed=seed))
            if fit_arfima(s, max_p=0, max_q=0).spec.d <= 0.1:
                hits += 1
        assert hits >= 16

    def test_d_zero_reduces_to_arima(self):
        # pinning d at 0 must reproduce the plain ARMA fit exactly: same
        # innovations, same coefficients
        s = generate(GenSpec(kind="arma", n=1000, seed=4, phi=(0.5,), offset=20.0))
        frac = fit_arfima(s, max_p=1, max_q=0, fix_d=0.0)
        plain = fit_arima(s, max_p=1, max_q=0, max_d=0)
        assert frac.spec.d == 0.0
        np.testing.assert_allclose(frac.phi, plain.phi, atol=1e-4)
        np.testing.assert_allclose(frac.residuals, plain.residuals, atol=1e-10)

    def test_window_speed(self):
        # fit plus 24-step forecast on a 96-observation window in under 1 s
        import time

        s = generate(GenSpec(kind="arfima", n=96, seed=5, d=0.35, offset=50.0))
        st = transform(s, TransformSpec(0.0))
        t0 = time.time()
        model = fit_arfima(st)
        forecast(model, 24)
        assert time.time() - t0 < 1.0

    def test_constant_series_no_model(self):
        with pytest.raises(NoAdmissibleModel):
            fit_arfima(TimeSeries(np.full(128, 5.0)))

    def test_determinism(self):
        s = generate(GenSpec(kind="arfima", n=500, seed=6, d=0.25))
        a = fit_arfima(s, max_p=1, max_q=1)
        b = fit_arfima(s, max_p=1, max_q=1)
        assert a.spec == b.spec
        np.testing.assert_array_equal(a.phi, b.phi)
        assert a.sigma2 == b.sigma2

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_arfima(TimeSeries(np.arange(1.0, 33.0)))


def _pure_fractional_model(d, history, sigma2=1.0):
    return FittedModel(
        spec=ModelSpec("arfima", p=0, d=d, q=0, include_mean=True),
        phi=np.zeros(0),
        theta=np.zeros(0),
        mean=0.0,
        sigma2=sigma2,
        residuals=np.zeros(len(history)),
        aicc=float("nan"),
        loglik=float("nan"),
        transform=None,
        n=len(history),
        history=np.asarray(history, dtype=float),
    )


class TestForecast:
    def test_level_validation(self):
        model = fit_mean(TimeSeries(np.array([1.0, 2.0, 3.0])))
        with pytest.raises(InvalidLevel):
            forecast(model, 3, level=1.5)

    def test_bounds_order(self):
        s = generate(GenSpec(kind="arfima", n=300, seed=3, d=0.3, offset=40.0))
        st = transform(s, TransformSpec(0.0))
        fc = forecast(fit_arfima(st, max_p=0, max_q=0), 20)
        assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)
        assert np.all(fc.lower > 0)  # log back-transform keeps bounds positive

    def test_naive_width_scales_with_sqrt_h(self):
        s = TimeSeries(np.cumsum(np.random.default_rng(2).standard_normal(100)) + 50)
        fc = forecast(fit_naive(s), 16)
        widths = fc.upper - fc.lower
        ratios = widths / np.sqrt(np.arange(1, 17))
        assert np.ptp(ratios) < 1e-9

    def test_projection_oracle_pure_fractional(self):
        # brute-force oracle: with innovations zeroed before the sample,
        # the process is X = L z for the lower-triangular integrator L, so
        # the best linear h-step predictor solves the covariance system
        # built from L L^T; the recursive forecast must match it
        d, n, h = 0.3, 50, 5
        x = generate(GenSpec(kind="arfima", n=n, seed=7, d=d)).values
        model = _pure_fractional_model(d, x)
        fc = forecast(model, h)
        eta = frac_diff_coeffs(d, n + h).eta
        L = np.zeros((n + h, n + h))
        for t in range(n + h):
            L[t, : t + 1] = eta[: t + 1][::-1]
        cov = L @ L.T
        for step in range(1, h + 1):
            weights = np.linalg.solve(cov[:n, :n], cov[:n, n + step - 1])
            assert fc.point[step - 1] == pytest.approx(float(weights @ x), abs=1e-6)

    def test_width_nondecreasing_and_bounded(self):
        s = generate(GenSpec(kind="arfima", n=1000, seed=9, d=0.3))
        model = fit_arfima(s, max_p=0, max_q=0)
        fc = forecast(model, 48)
        var = fc.scale_sigma2
        assert np.all(np.diff(var) >= 0)
        d = model.spec.d
        unconditional = model.sigma2 * gamma_fn(1 - 2 * d) / gamma_fn(1 - d) ** 2
        assert var[-1] <= unconditional * (1 + 1e-9)

    def test_psi_head_is_one(self):
        s = generate(GenSpec(kind="arfima", n=300, seed=1, d=0.2))
        fc = forecast(fit_arfima(s, max_p=0, max_q=0), 5)
        assert fc.psi[0] == pytest.approx(1.0)

    def test_arima_d1_tracks_level(self):
        # an integrated model must forecast near the last level, not the
        # window mean
        s = generate(GenSpec(kind="random_walk", n=400, seed=11, offset=1000.0))
        model = fit_arima(s, max_p=1, max_q=1)
        assert model.spec.d == 1
        fc = forecast(model, 10)
        assert abs(fc.point[0] - s.values[-1]) < 5 * np.sqrt(model.sigma2)


def _assert_same_fit(a, b):
    for f in dataclasses.fields(FittedModel):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb)
        else:
            assert va == vb, f.name


class TestFitDispatch:
    @pytest.fixture(scope="class")
    def window(self):
        s = generate(GenSpec(kind="arfima", n=96, seed=3, d=0.3, offset=30.0))
        return transform(s, TransformSpec(0.0))

    @pytest.mark.parametrize(
        "family, fitter",
        [("naive", fit_naive), ("mean", fit_mean), ("arima", fit_arima), ("arfima", fit_arfima)],
    )
    def test_matches_family_fitter(self, window, family, fitter):
        _assert_same_fit(fit(window, family), fitter(window))

    def test_passes_only_the_bounds_a_family_takes(self, window):
        _assert_same_fit(
            fit(window, "arima", max_p=1, max_q=2, max_d=1),
            fit_arima(window, max_p=1, max_q=2, max_d=1),
        )
        _assert_same_fit(fit(window, "arfima", max_q=1, max_d=0), fit_arfima(window, max_q=1))
        _assert_same_fit(fit(window, "mean", max_p=3), fit_mean(window))

    def test_unknown_family(self, window):
        with pytest.raises(MalformedInput):
            fit(window, "ets")


class TestRebind:
    def test_same_history_reproduces_forecast(self):
        s = generate(GenSpec(kind="arfima", n=400, seed=2, d=0.3, offset=30.0))
        st = transform(s, TransformSpec(0.0))
        model = fit_arfima(st, max_p=1, max_q=0)
        again = rebind(model, st)
        np.testing.assert_allclose(
            forecast(model, 8).point, forecast(again, 8).point, rtol=1e-12
        )

    def test_longer_history_updates_anchor(self):
        s = generate(GenSpec(kind="arfima", n=500, seed=3, d=0.3))
        model = fit_arfima(TimeSeries(s.values[:400]), max_p=0, max_q=0)
        moved = rebind(model, s)
        assert moved.n == 500
        assert moved.spec.d == model.spec.d
        assert moved.sigma2 == model.sigma2

    def test_transform_mismatch_rejected(self):
        s = generate(GenSpec(kind="arfima", n=200, seed=4, d=0.2, offset=30.0))
        st = transform(s, TransformSpec(0.0))
        model = fit_arfima(st, max_p=0, max_q=0)
        with pytest.raises(MalformedInput):
            rebind(model, s)

    def test_naive_rebind_refits_level(self):
        a = TimeSeries(np.array([1.0, 2.0, 3.0]))
        b = TimeSeries(np.array([4.0, 5.0, 6.0]))
        model = fit_naive(a)
        assert forecast(rebind(model, b), 1).point[0] == 6.0


class TestTransformPropagation:
    def test_model_records_fitting_scale(self):
        s = generate(GenSpec(kind="arfima", n=128, seed=0, d=0.2, offset=30.0))
        st = transform(s, TransformSpec(0.0))
        model = fit_arfima(st)
        assert model.transform == TransformSpec(0.0, applied=True)

    def test_naive_back_transform_returns_last_raw_value(self):
        s = generate(GenSpec(kind="arfima", n=64, seed=1, d=0.2, offset=30.0))
        st = transform(s, TransformSpec(0.0))
        fc = forecast(fit_naive(st), 3)
        np.testing.assert_allclose(fc.point, np.full(3, s.values[-1]), rtol=1e-12)

    def test_dataclass_replacement_round_trip(self):
        s = generate(GenSpec(kind="white_noise", n=100, seed=5, offset=50.0))
        model = fit_mean(s)
        clone = dataclasses.replace(model)
        np.testing.assert_array_equal(clone.history, model.history)
