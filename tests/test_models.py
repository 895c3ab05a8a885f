"""Fractional differencing algebra, CSS fitting, order selection, and
forecast behavior, cross-checked against closed forms and brute-force
linear-projection oracles."""

import dataclasses
import importlib.machinery
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar
from scipy.signal import fftconvolve, lfilter
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
from lrdforecast import models, operators
from lrdforecast.models import _ARFIMA_D_CAP, FittedModel, _css_fit, _fill_jacobian, rebind
from lrdforecast.operators import (
    admissible,
    arpoly,
    causal_convolver,
    causal_invertible,
    fracdiff_of,
    fracdiff_weights,
    innovations,
    integrate,
    linear_filter,
    mapoly,
    roots_outside_unit_circle,
)


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

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.45, -0.49, -0.3, -0.05, 0.0, 0.49])
    @settings(max_examples=10, deadline=None)
    @given(length=st.integers(1, 600))
    @example(length=512)
    def test_operator_inverse(self, d, length):
        # pi * eta is the impulse on every prefix length
        c = frac_diff_coeffs(d, length)
        conv = np.convolve(c.pi, c.eta)[:length]
        impulse = np.zeros(length)
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

    @pytest.mark.parametrize("spec, include_mean", [
        (ModelSpec("naive"), False),
        (ModelSpec("mean"), True),
        (ModelSpec("arima", d=0), True),
        (ModelSpec("arima", d=1), False),
        (ModelSpec("arima", d=2), False),
        (ModelSpec("arfima", d=0.0), True),
        (ModelSpec("arfima", d=0.3), True),
    ], ids=["naive", "mean", "arima-d0", "arima-d1", "arima-d2", "arfima-d0", "arfima"])
    def test_include_mean_follows_family_and_d(self, spec, include_mean):
        assert spec.include_mean is include_mean


class TestUnitCircleTest:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.floats(0.3, 3.0), st.floats(0.05, 3.1)), max_size=2),
        reals=st.lists(st.floats(0.3, 3.0), max_size=2),
        flip=st.booleans(),
    )
    def test_matches_root_moduli(self, pairs, reals, flip):
        # poly = prod(1 - z / r) over roots r whose moduli stay clear of 1
        roots = [m * np.exp(s * 1j * a) for m, a in pairs for s in (1, -1)]
        roots += [-r if flip else r for r in reals]
        assume(all(abs(abs(r) - 1.0) > 1e-3 for r in roots))
        poly = np.real(np.poly(1.0 / np.array(roots))) if roots else np.ones(1)
        expect = all(abs(r) > 1.0 for r in roots)
        assert roots_outside_unit_circle(poly) == expect

    @pytest.mark.parametrize("phi, theta, causal, adm", [
        ((), (), True, True),
        ((0.5,), (0.4,), True, True),
        ((1.5,), (), False, False),  # phi(B) = 1 - 1.5 B has its root at 2/3
        ((), (-1.0,), False, False),  # theta(B) = 1 - B has a unit root
        ((0.5,), (-0.5,), True, False),  # causal and invertible, one common root
    ])
    def test_causal_invertible(self, phi, theta, causal, adm):
        assert causal_invertible(phi, theta) == causal
        assert admissible(phi, theta) == adm


class TestInnovationFilter:
    @pytest.mark.parametrize("d", [0.0, 1.0, 2.0, 0.3, -0.3, 1.4])
    @pytest.mark.parametrize("n", [100, 700])  # np.convolve and FFT paths
    def test_integrate_inverts_innovations(self, d, n):
        x = np.random.default_rng(4).standard_normal(n).cumsum()
        for phi, theta in [((), ()), ((0.5, -0.2), (0.4,))]:
            z = innovations(x, phi, theta, d)
            back = integrate(z, phi, theta, d)
            np.testing.assert_allclose(back, x, rtol=0, atol=1e-9 * np.abs(x).max())

    def test_integer_d_is_exact_differencing(self):
        # the integer part of d is filtered as unit roots of the AR polynomial;
        # through the FFT expansion a level of 1e6 would leave errors ~1e-7
        x = np.random.default_rng(5).standard_normal(2000).cumsum().cumsum() + 1e6
        z = innovations(x, (), (), 2.0)
        np.testing.assert_allclose(z[2:], np.diff(x, n=2), rtol=0, atol=1e-8)
        np.testing.assert_allclose(integrate(z, (), (), 2.0), x, rtol=1e-15)

    def test_zero_d_is_the_arma_filter(self):
        x = np.random.default_rng(6).standard_normal(50)
        np.testing.assert_array_equal(innovations(x, (0.5,), (0.3,)),
                                      lfilter([1.0, -0.5], [1.0, 0.3], x))
        np.testing.assert_array_equal(integrate(x, (0.5,), (0.3,)),
                                      lfilter([1.0, 0.3], [1.0, -0.5], x))


def _outcome(f, *args):
    """f(*args) as (dtype, shape, bytes), or "LinAlgError" if it raised that;
    overflow and invalid operations are ignored, as where the library
    calls these."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            r = f(*args)
        except np.linalg.LinAlgError:
            return "LinAlgError"
    return r.dtype, r.shape, r.tobytes()


# degree 0-5 coefficients: exact zeros (trailing ones are roots at 0),
# subnormals, and ordinary values
_COEFS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324, -2.2e-313]))


class TestNativeFilter:
    """linear_filter, solve and roots call scipy's and numpy's private entry
    points behind lfilter, np.linalg.solve and np.roots (FIR filters the
    np.convolve lfilter itself uses); these pin each to its public
    counterpart bit for bit, natively and with the entry point patched to
    None, so a scipy or numpy that moves or changes one fails here rather
    than shifting fits."""

    B, A = np.array([1.0, 0.3, -0.2]), np.array([1.0, -0.5, 0.25])
    ENTRY_POINTS = ("_linear_filter", "_solve1", "_eigvals")

    def _cases(self):
        rng = np.random.default_rng(12)
        x, stacked = rng.standard_normal(96), rng.standard_normal((2, 96))
        return ((self.B, self.A, x), (np.ones(1), self.A, stacked),
                (self.B, np.ones(1), x), (self.B, np.array([2.5]), x))

    def test_native_entry_point_is_present(self):
        # loaded from the _sigtools extension file of the scipy imported, so
        # at the CI floor (scipy 1.10) this checks the loader on that layout
        native = operators._linear_filter
        assert native is not None and native.__name__ == "_linear_filter"
        path = native.__self__.__file__
        assert os.path.dirname(path) == os.path.join(os.path.dirname(scipy.__file__), "signal")
        assert os.path.basename(path).startswith("_sigtools.")

    @staticmethod
    def _fresh(code, *args):
        """Run code in a new interpreter that turns every warning into an
        error; the test modules import scipy.signal, so only a new process
        shows what importing lrdforecast imports."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr

    # after the code under test: linear_filter, then a first import of
    # scipy.signal, and the same bits from its lfilter, for _cases' 1-D IIR
    # filter and its 2-D input
    _SAME_BITS = (
        "import numpy as np\n"
        "b, a = np.array([1.0, 0.3, -0.2]), np.array([1.0, -0.5, 0.25])\n"
        "rng = np.random.default_rng(12)\n"
        "xs = rng.standard_normal(96), rng.standard_normal((2, 96))\n"
        "ys = [operators.linear_filter(b, a, x) for x in xs]\n"
        "from scipy.signal import lfilter\n"
        "assert all(np.array_equal(y, lfilter(b, a, x)) for x, y in zip(xs, ys))\n"
    )

    @pytest.mark.parametrize("module", ["lrdforecast", "lrdforecast.cli"])
    def test_import_leaves_scipy_signal_out(self, module):
        # and a later import of scipy.signal still works
        self._fresh(f"import sys, {module}\n"
                    "assert 'scipy.signal' not in sys.modules\n"
                    "from lrdforecast import operators\n"
                    "assert operators._linear_filter is not None\n" + self._SAME_BITS)

    @pytest.mark.parametrize("layout", ["missing", "not-an-extension", "other-extension"])
    def test_unloadable_file_falls_back_to_lfilter(self, tmp_path, layout):
        # scipy.__file__ points the lookup at tmp_path, where signal/_sigtools
        # is absent, is not a shared library, or is one without PyInit__sigtools
        target = tmp_path / "signal" / ("_sigtools" + importlib.machinery.EXTENSION_SUFFIXES[0])
        if layout != "missing":
            target.parent.mkdir()
        if layout == "not-an-extension":
            target.write_bytes(b"not a shared library")
        elif layout == "other-extension":
            shutil.copy(sys.modules["numpy.linalg._umath_linalg"].__file__, target)
        assert operators._native_filter(str(tmp_path)) is None
        self._fresh("import sys\n"
                    "import scipy\n"
                    "scipy.__file__ = sys.argv[1]\n"
                    "from lrdforecast import operators\n"
                    "assert operators._linear_filter is None\n"
                    "assert 'scipy.signal' not in sys.modules\n" + self._SAME_BITS,
                    str(tmp_path / "__init__.py"))

    def test_numpy_entry_points_are_present(self):
        # the gufuncs numpy.linalg itself calls, from its module at numpy 2
        # (numpy.linalg._linalg) or at numpy 1 (numpy.linalg.linalg)
        linalg = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
        assert operators._solve1 is linalg._umath_linalg.solve1
        assert operators._eigvals is linalg._umath_linalg.eigvals

    @pytest.mark.parametrize("native", [True, False])
    def test_bit_identical_to_lfilter(self, monkeypatch, native):
        # 1-D IIR, a stacked 2 x n IIR input (each row on its own), and
        # 1-D FIR, also with a[0] != 1
        if not native:
            monkeypatch.setattr(operators, "_linear_filter", None)
        for b, a, x in self._cases():
            assert np.array_equal(linear_filter(b, a, x), lfilter(b, a, x))
        stacked = self._cases()[1][2]
        rows = [lfilter(np.ones(1), self.A, row) for row in stacked]
        assert np.array_equal(linear_filter(np.ones(1), self.A, stacked), np.stack(rows))

    @pytest.mark.parametrize("native", [True, False])
    @settings(max_examples=300, deadline=None)
    @example(poly=[1.0, 0.5, 0.0, 0.0])  # trailing zeros: two roots at 0
    @example(poly=[0.0, 0.0, 2.0, -1.0])  # leading zeros
    @example(poly=[0.0, -0.0])  # all zero
    @example(poly=[3.0])  # degree 0
    @example(poly=[1.0, 5e-324])  # a subnormal root
    @example(poly=[5e-324, 1.0, 1.0])  # a subnormal lead overflows: LinAlgError
    @example(poly=np.poly([0.5, 0.5, -0.8]).tolist())  # a repeated root
    @example(poly=np.poly([0.3 + 0.4j, 0.3 - 0.4j, 0.9]).real.tolist())  # a complex pair
    @example(poly=np.poly([0.7, 0.7, 0.7, 0.7, 0.7]).tolist())
    @given(poly=st.lists(_COEFS, min_size=1, max_size=6))
    def test_roots_bit_identical_to_np_roots(self, native, poly):
        p = np.array(poly)
        with mock.patch.object(operators, "_eigvals", operators._eigvals if native else None):
            assert _outcome(operators.roots, p) == _outcome(np.roots, p)

    @pytest.mark.parametrize("native", [True, False])
    def test_solve_bit_identical_to_np_linalg_solve(self, monkeypatch, native):
        if not native:
            monkeypatch.setattr(operators, "_solve1", None)
        rng = np.random.default_rng(5)
        for k in range(1, 12):
            jac = rng.standard_normal((k, 96))
            h, g = jac @ jac.T, jac @ rng.standard_normal(96)
            for lam in (1e-3, 1.0, 1e10):  # the damped systems of a fit
                damped = h + lam * np.diag(np.diag(h))
                assert _outcome(operators.solve, damped, g) == _outcome(np.linalg.solve, damped, g)
            # the fit solves a non-contiguous block when d is held
            assert (_outcome(operators.solve, damped[1:, 1:], g[1:])
                    == _outcome(np.linalg.solve, damped[1:, 1:], g[1:]))
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            operators.solve(singular, np.ones(2))
        nan = np.full((3, 3), np.nan)
        assert _outcome(operators.solve, nan, np.ones(3)) == _outcome(np.linalg.solve, nan, np.ones(3))

    def test_css_fit_same_bits_without_native_filter(self, monkeypatch):
        def fits():
            out = []
            for seed in range(1000, 1004):
                s = generate(GenSpec(kind="arfima", n=149, seed=seed, d=0.35, offset=50.0))
                x = np.log(s.values[:96])
                x = x - x.mean()
                for p, q in ((1, 1), (2, 2), (0, 2), (2, 0)):
                    for fracdiff in (None, fracdiff_of(x)):
                        params, css, ok = _css_fit(x, p, q, fracdiff=fracdiff)
                        out.append((params.tobytes(), np.float64(css).tobytes(), ok))
            return out

        native = fits()
        for name in self.ENTRY_POINTS:  # the filter, solve1 and eigvals
            monkeypatch.setattr(operators, name, None)
        assert fits() == native


class TestKeptSpectrum:
    """causal_convolver holds one operand, keeping its spectrum above 512
    points; these pin it bit for bit to fftconvolve, whose spectra product
    it must keep in argument order, and to np.convolve at or below 512."""

    @staticmethod
    def _operands(n):
        rng = np.random.default_rng(n)
        return fracdiff_weights(0.3, n), rng.standard_normal(n), rng.standard_normal(n)

    @pytest.mark.parametrize("n", [513, 1000, 4097, 8192])
    def test_fft_path_is_fftconvolve(self, n):
        w, x, x2 = self._operands(n)
        held_w, held_x = causal_convolver(w), causal_convolver(x, first=False)
        for other in (x, x2):  # a held spectrum serves every call
            assert np.array_equal(held_w(other), fftconvolve(w, other)[:n])
        assert np.array_equal(held_x(w), fftconvolve(w, x)[:n])
        assert np.array_equal(held_x(x2), fftconvolve(x2, x)[:n])

    @pytest.mark.parametrize("n", [1, 96, 512])
    def test_direct_path_is_np_convolve(self, n):
        w, x, _ = self._operands(n)
        assert np.array_equal(causal_convolver(w)(x), np.convolve(w, x)[:n])
        assert np.array_equal(causal_convolver(x, first=False)(w), np.convolve(w, x)[:n])

    def test_free_d_fit_same_bits_as_per_call_fftconvolve(self, monkeypatch):
        s = generate(GenSpec(kind="arfima", n=8192, seed=1002, d=0.35, offset=50.0))
        x = np.log(s.values)
        x = x - x.mean()

        def fits():
            out = []
            for p, q in ((0, 0), (1, 0), (1, 1)):
                params, css, ok = _css_fit(x, p, q, fracdiff=models.fracdiff_of(x))
                out.append((params.tobytes(), np.float64(css).tobytes(), ok))
            return out

        kept = fits()
        # every convolution transforms both operands, as before spectra were kept
        monkeypatch.setattr(models, "fracdiff_of", lambda x: lambda d: fftconvolve(
            fracdiff_weights(d, x.size), x)[: x.size])
        monkeypatch.setattr(models, "_neg_log", lambda n: lambda z: fftconvolve(
            np.concatenate(([0.0], 1.0 / np.arange(1, n))), z)[:n])
        assert fits() == kept


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
        for poly in (arpoly(model.phi), mapoly(model.theta)):
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

    def test_long_series_fit_is_stationary_point(self):
        # a solver that stops early on warm-started MA cells picked
        # ARIMA(5,0,1) here with max|dCSS| = 0.887
        s = transform(
            generate(GenSpec(kind="arfima", n=8192, seed=1002, d=0.35, offset=50.0)),
            TransformSpec(0.0),
        )
        model = fit_arima(s)
        d = int(model.spec.d)
        x = (np.diff(s.values, n=d) if d else s.values) - model.mean
        assert np.max(np.abs(_css_gradient(x, model.phi, model.theta))) <= 1e-2

    def test_css_matches_lbfgsb_oracle(self):
        # from the same zero start, the CSS found per cell is within 0.05 of
        # AICc (n log of the CSS ratio) of scipy's L-BFGS-B
        n = 512
        worst = -np.inf
        for seed in range(40):
            s = generate(GenSpec(kind="arma", n=n, seed=seed, phi=(0.5,), theta=(0.3,)))
            x = s.values - s.values.mean()
            for p, q in ((1, 1), (0, 1), (0, 2), (2, 1)):
                css = _css_fit(x, p, q)[1]
                worst = max(worst, n * np.log(css / _lbfgsb_css(x, p, q)))
        assert worst <= 0.05

    def test_css_fit_ends_admissible(self):
        # on these log windows the unconstrained path leaves the causal and
        # invertible region in many cells; the fit must come back with an
        # admissible point, say so, and return that point's own CSS
        for seed in range(1000, 1012):
            s = generate(GenSpec(kind="arfima", n=96, seed=seed, d=0.35, offset=50.0))
            x = np.diff(np.log(s.values))
            for p, q in ((1, 2), (2, 1), (2, 2), (3, 2), (3, 3)):
                params, css, ok = _css_fit(x, p, q)
                phi, theta = params[:p], params[p:]
                assert ok and admissible(phi, theta)
                z = innovations(x, phi, theta)
                assert css == float(z @ z)


def _css_gradient(x, phi, theta):
    """Analytic gradient of the CSS over (phi, theta)."""
    mpoly = mapoly(theta)
    z = lfilter(arpoly(phi), mpoly, x)
    u = lfilter([1.0], mpoly, x)
    v = lfilter([1.0], mpoly, z)
    g_phi = [-2.0 * z[i:] @ u[:-i] for i in range(1, len(phi) + 1)]
    g_theta = [-2.0 * z[j:] @ v[:-j] for j in range(1, len(theta) + 1)]
    return np.array(g_phi + g_theta)


def _lbfgsb_css(x, p, q):
    """Reference CSS minimum: scipy's L-BFGS-B from zero, tight tolerances."""

    def objective(params):
        z = lfilter(arpoly(params[:p]), mapoly(params[p:]), x)
        f = float(z @ z)
        if not np.isfinite(f):
            return 1e300, np.zeros(p + q)
        return f, _css_gradient(x, params[:p], params[p:])

    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(objective, np.zeros(p + q), jac=True, method="L-BFGS-B",
                       options={"maxiter": 1000, "gtol": 1e-8, "ftol": 1e-14})
    return float(res.fun)


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
        fit_arfima(generate(GenSpec(kind="arfima", n=300, seed=7, d=0.1)))
        b = fit_arfima(s, max_p=1, max_q=1)
        assert a.spec == b.spec
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.residuals, b.residuals)
        assert a.sigma2 == b.sigma2 and a.aicc == b.aicc

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_arfima(TimeSeries(np.arange(1.0, 33.0)))


def _whittle_d(series):
    """Whittle estimate of d for ARFIMA(0, d, 0) (Fox & Taqqu, Ann. Statist.
    14, 1986) on the raw periodogram of the mean-subtracted series, over its
    Fourier frequencies up to pi/2: the spectral shape |2 sin(lam/2)|**(-2d)
    is exact on any band, and the scale is profiled out."""
    x = series.values - series.values.mean()
    n, kmax = x.size, x.size // 4
    pgram = np.abs(np.fft.rfft(x)[1 : kmax + 1]) ** 2 / (2.0 * np.pi * n)
    lam = 2.0 * np.pi * np.arange(1, kmax + 1) / n

    def objective(d):
        g = np.abs(2.0 * np.sin(lam / 2.0)) ** (-2.0 * d)
        return np.log(np.mean(pgram / g)) + np.mean(np.log(g))

    return minimize_scalar(objective, bounds=(-0.49, 0.49), method="bounded",
                           options={"xatol": 1e-6}).x


class TestJointFit:
    @pytest.mark.parametrize("n", [96, 700])
    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)])
    def test_jacobian_matches_finite_differences(self, p, q, n):
        # every row, d's included, on both the direct (n <= 512) and the
        # FFT convolution path
        rng = np.random.default_rng(10 * p + q)
        x = generate(GenSpec(kind="arfima", n=n, seed=p + q, d=0.3)).values
        x = x - x.mean()
        params = np.concatenate(([0.3], rng.uniform(-0.4, 0.4, p + q)))

        def z_at(v):
            return innovations(x, v[1 : p + 1], v[p + 1 :], v[0])

        jac = np.zeros((1 + p + q, n))
        _fill_jacobian(jac, np.empty((2, n)), fracdiff_of(x)(params[0]), z_at(params), p,
                       mapoly(params[p + 1 :]))
        step = 1e-6
        for i in range(1 + p + q):
            e = np.eye(1 + p + q)[i] * step
            fd = -(z_at(params + e) - z_at(params - e)) / (2.0 * step)
            np.testing.assert_allclose(jac[i], fd, rtol=0, atol=1e-6 * np.abs(fd).max())

    def test_white_noise_reaches_zero_exactly(self):
        # where the CSS slope at d = 0 points below the bound, the projected
        # fit stops at d = 0 exactly
        zeros = 0
        for seed in range(20):
            s = generate(GenSpec(kind="white_noise", n=2000, seed=seed))
            d = fit_arfima(s, max_p=0, max_q=0).spec.d
            assert 0.0 <= d < 0.05
            if d == 0.0:
                zeros += 1
                x = s.values - s.values.mean()
                lagged = np.convolve(np.concatenate(([0.0], 1.0 / np.arange(1, x.size))), x)
                assert x @ lagged[: x.size] <= 0.0  # dCSS/dd = -2 x'lagged >= 0
        assert zeros >= 5

    def test_random_walk_reaches_cap(self):
        walk = TimeSeries(100.0 + np.cumsum(np.random.default_rng(0).standard_normal(500)))
        assert fit_arfima(walk, max_p=0, max_q=0).spec.d == _ARFIMA_D_CAP
        assert 0.0 <= fit_arfima(walk).spec.d <= _ARFIMA_D_CAP

    def test_d_agrees_with_whittle_oracle(self):
        # At n = 8192 the CSS d has standard deviation sqrt(6/(pi**2 n)) =
        # 0.009 and the Whittle d on n/4 frequencies at most 1/sqrt(n) =
        # 0.011, so 0.05 is 3.5 standard deviations of their difference
        # even if the two were independent.
        for d in (0.1, 0.25, 0.4):
            for seed in range(3):
                s = generate(GenSpec(kind="arfima", n=8192, seed=seed, d=d))
                d_css = fit_arfima(s, max_p=0, max_q=0).spec.d
                assert abs(d_css - _whittle_d(s)) <= 0.05


def _pure_fractional_model(d, history, sigma2=1.0):
    return FittedModel(
        spec=ModelSpec("arfima", p=0, d=d, q=0),
        phi=np.zeros(0),
        theta=np.zeros(0),
        mean=0.0,
        sigma2=sigma2,
        aicc=float("nan"),
        loglik=float("nan"),
        transform=None,
        n=len(history),
        history=np.asarray(history, dtype=float),
    )


def _reference_point_forecast(model, h):
    """Point forecasts by the autoregressive expansion a_j of
    phi(B)(1-B)**d/theta(B), X_t = sum_j a_j X_{t-j}, run recursively over
    the whole centred history: an independent O(n**2) construction."""
    center = model.mean if model.spec.include_mean else float(model.history.mean())
    hist = model.history - center
    n = hist.size
    impulse = np.zeros(n + h + 1)
    impulse[0] = 1.0
    num = np.convolve(arpoly(model.phi), fracdiff_weights(model.spec.d, n + h + 1))
    a = -lfilter(num, mapoly(model.theta), impulse)[1:]
    ext = np.concatenate([hist, np.zeros(h)])
    for t in range(n, n + h):
        ext[t] = a[:t] @ ext[t - 1 :: -1]
    return ext[n:] + center


def _refl_to_coeffs(refl):
    """Durbin-Levinson step-up: reflection coefficients in (-1, 1) give the
    coefficients of a polynomial with every root outside the unit circle."""
    coeffs = []
    for r in refl:
        coeffs = [a - r * b for a, b in zip(coeffs, reversed(coeffs))] + [r]
    return coeffs


class TestForecast:
    @staticmethod
    def _series(kind, n):
        if kind == "arfima":
            return generate(GenSpec(kind="arfima", n=n, seed=21, d=0.35, offset=50.0))
        if kind == "arma":
            return generate(GenSpec(kind="arma", n=n, seed=23, phi=(0.3,), theta=(0.3,),
                                    offset=20.0))
        walk = generate(GenSpec(kind="random_walk", n=n, seed=23, offset=500.0)).values
        return TimeSeries(walk if kind == "walk" else np.cumsum(walk))

    def test_interval_quantile_is_norm_ppf(self):
        # forecast takes its interval quantile from scipy.special.ndtri;
        # it must be the value scipy.stats.norm.ppf returns, bit for bit
        from scipy.special import ndtri
        from scipy.stats import norm

        levels = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 100_001),
                                 [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1e-12, 1 - 1e-12]])
        q = 0.5 + levels / 2.0
        assert np.array_equal(ndtri(q), norm.ppf(q))

    @pytest.mark.parametrize("n", [96, 2000])
    @pytest.mark.parametrize("kind, family, d", [
        ("arma", "arima", 0), ("walk", "arima", 1), ("walk2", "arima", 2),
        ("arfima", "arfima", None),
    ])
    def test_points_match_ar_expansion_reference(self, kind, family, d, n):
        s = self._series(kind, n)
        model = fit(s, family, max_p=2, max_q=2)
        if d is not None:
            assert model.spec.d == d
        fc = forecast(model, 48)
        np.testing.assert_allclose(fc.point, _reference_point_forecast(model, 48),
                                   rtol=1e-10)

    @settings(max_examples=200, deadline=None)
    @example(ar_refl=[0.0], ma_refl=[2.2e-313], d=0, n=40, h=3, seed=0, log_scale=False)
    @given(
        ar_refl=st.lists(st.floats(-0.9, 0.9).map(lambda r: round(r, 2)), max_size=2),
        ma_refl=st.lists(st.floats(-0.9, 0.9).map(lambda r: round(r, 2)), max_size=2),
        d=st.one_of(st.sampled_from([0, 1, 2]), st.floats(0.0, 0.4999)),
        n=st.integers(40, 600),
        h=st.integers(1, 48),
        seed=st.integers(0, 2**16),
        log_scale=st.booleans(),
    )
    def test_interval_properties(self, ar_refl, ma_refl, d, n, h, seed, log_scale):
        phi = np.array(_refl_to_coeffs(ar_refl))
        theta = -np.array(_refl_to_coeffs(ma_refl))
        assume(admissible(phi, theta))
        family = "arima" if isinstance(d, int) else "arfima"
        history = 3.0 + 0.1 * np.random.default_rng(seed).standard_normal(n).cumsum()
        model = FittedModel(
            spec=ModelSpec(family, p=phi.size, d=d, q=theta.size),
            phi=phi, theta=theta, mean=float(history.mean()), sigma2=0.01,
            aicc=float("nan"), loglik=float("nan"),
            transform=TransformSpec(0.0) if log_scale else None, n=n, history=history,
        )
        fc = forecast(model, h)
        assert fc.psi[0] == 1.0
        assert np.all(np.diff(fc.scale_sigma2) >= 0)
        assert np.all(np.isfinite(fc.point))
        assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)
        if log_scale:  # the model's values are logs, so its forecast is mapped back
            raw = forecast(dataclasses.replace(model, transform=None), h)
            assert np.array_equal(fc.point, np.exp(raw.point))

    def test_level_validation(self):
        model = fit_mean(TimeSeries(np.array([1.0, 2.0, 3.0])))
        with pytest.raises(InvalidLevel):
            forecast(model, 3, level=1.5)

    @pytest.mark.parametrize("family", ["naive", "mean", "arima", "arfima"])
    def test_unaddressable_horizon_is_typed(self, family):
        # numpy refuses 2**62 float64 values before allocating anything
        model = fit(self._series("arfima", 200), family, max_p=1, max_q=1)
        with pytest.raises(MalformedInput, match=f"horizon {2**62} "):
            forecast(model, 2**62)

    def test_unallocatable_horizon_is_typed(self, monkeypatch):
        model = fit(self._series("arfima", 200), "arfima", max_p=0, max_q=0)

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(models, "integrate", no_memory)
        with pytest.raises(MalformedInput, match="horizon 48 "):
            forecast(model, 48)

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


@pytest.fixture(scope="module")
def window():
    # a log-scale window of one rolling origin's size
    s = generate(GenSpec(kind="arfima", n=96, seed=3, d=0.3, offset=30.0))
    return transform(s, TransformSpec(0.0))


def _assert_same_fit(a, b):
    # residuals is a property, not a field, so it is named here
    for name in [f.name for f in dataclasses.fields(FittedModel)] + ["residuals"]:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb)
        else:
            assert va == vb, name


class TestFitDispatch:
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


class TestResiduals:
    def test_derived_not_stored(self):
        assert "residuals" not in {f.name for f in dataclasses.fields(FittedModel)}

    def test_naive_convention(self, window):
        np.testing.assert_array_equal(fit_naive(window).residuals, np.diff(window.values))

    def test_mean_convention(self, window):
        np.testing.assert_array_equal(fit_mean(window).residuals,
                                      window.values - window.values.mean())

    def test_arima_convention(self):
        s = generate(GenSpec(kind="random_walk", n=300, seed=1))
        model = fit_arima(s, max_p=1, max_q=1)
        d = model.spec.d
        assert d == 1 and model.residuals.size == len(s) - d
        np.testing.assert_array_equal(
            model.residuals, innovations(np.diff(s.values) - model.mean, model.phi, model.theta)
        )
        # on the differenced scale the CSS is the sum of squared residuals
        assert model.sigma2 == pytest.approx(float(model.residuals @ model.residuals)
                                             / model.residuals.size, rel=1e-12)

    def test_arfima_convention(self, window):
        model = fit_arfima(window)
        assert model.residuals.size == len(window)
        np.testing.assert_array_equal(
            model.residuals,
            innovations(window.values - model.mean, model.phi, model.theta, model.spec.d),
        )

    @pytest.mark.parametrize("family", ["naive", "mean", "arima", "arfima"])
    def test_rebind_on_own_series_reproduces_residuals(self, window, family):
        model = fit(window, family)
        np.testing.assert_array_equal(rebind(model, window).residuals, model.residuals)

    def test_rebind_reproduces_residuals_at_zero_d(self):
        # a white-noise fit that lands on d = 0 exactly: its residuals must not
        # pick up the rounding of a fractional difference by 0 on rebinding
        s = generate(GenSpec(kind="white_noise", n=2000, seed=0))
        model = fit_arfima(s, max_p=0, max_q=0)
        assert model.spec.d == 0.0
        np.testing.assert_array_equal(rebind(model, s).residuals, model.residuals)


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
        assert model.transform == TransformSpec(0.0)

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


_WHITE_NOISE = generate(GenSpec(kind="white_noise", n=100, seed=0, offset=50.0))


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: ModelSpec("ets"), MalformedInput, "unknown model family",
                 id="spec-family"),
    pytest.param(lambda: ModelSpec("arima", p=-1), MalformedInput, "non-negative",
                 id="spec-orders"),
    pytest.param(lambda: fit_arima(_WHITE_NOISE, max_q=-1), MalformedInput, "order bounds",
                 id="arima-bounds"),
    pytest.param(lambda: fit_arima(_WHITE_NOISE, max_d=3), MalformedInput, "order bounds",
                 id="arima-max-d"),
    pytest.param(lambda: fit_arfima(_WHITE_NOISE, max_p=-1), MalformedInput, "order bounds",
                 id="arfima-bounds"),
    pytest.param(lambda: forecast(fit_mean(_WHITE_NOISE), 0), MalformedInput, "horizon",
                 id="forecast-h0"),
    pytest.param(lambda: frac_diff_coeffs(0.3, length=0), MalformedInput, "length",
                 id="coeffs-length0"),
])
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
