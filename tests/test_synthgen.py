"""Generator determinism and distributional correctness against exact
theoretical quantities."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve, lfilter

from lrdforecast import (
    GenSpec,
    InvalidSpec,
    NonEmbeddableCovariance,
    TimeSeries,
    acf,
    classify_memory,
    generate,
)
from lrdforecast.operators import arpoly, fracdiff_weights, mapoly

# TestTheoreticalAcf, the oracle's own tests, is collected here
from oracles import TestTheoreticalAcf, theoretical_acf_arfima0d0  # noqa: F401


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="brownian", n=10)

    def test_fgn_hurst_range(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="fgn", n=10, hurst=1.2)

    def test_arfima_d_range(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="arfima", n=10, d=0.7)

    def test_arma_admissibility(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="arma", n=10, phi=(1.2,))

    def test_negative_sigma(self):
        with pytest.raises(InvalidSpec):
            GenSpec(kind="white_noise", n=10, sigma=-1.0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["white_noise", "arma", "arfima", "fgn", "random_walk"])
    def test_same_spec_same_output(self, kind):
        spec = GenSpec(kind=kind, n=256, seed=9, phi=(0.4,) if kind == "arma" else (),
                       d=0.3 if kind == "arfima" else 0.0, hurst=0.7)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate(GenSpec(kind="white_noise", n=64, seed=1))
        b = generate(GenSpec(kind="white_noise", n=64, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_offset_shifts(self):
        base = generate(GenSpec(kind="white_noise", n=64, seed=1))
        lifted = generate(GenSpec(kind="white_noise", n=64, seed=1, offset=10.0))
        np.testing.assert_allclose(lifted.values - base.values, 10.0)


class TestFgn:
    def test_h_half_is_white_noise(self):
        n = 8192
        s = generate(GenSpec(kind="fgn", n=n, seed=2, hurst=0.5))
        res = acf(s, 20)
        assert np.all(np.abs(res.rho[1:]) < 2.0 / np.sqrt(n))

    @pytest.mark.parametrize("hurst", [0.5, 0.7, 0.9])
    def test_variance_about_known_mean(self, hurst):
        # E[X^2] equals sigma^2 exactly at every H; the mean-of-squares
        # avoids the grand-mean bias that hits the sample variance when
        # the memory is long
        s = generate(GenSpec(kind="fgn", n=8192, seed=6, hurst=hurst, sigma=2.0))
        assert np.mean(s.values**2) == pytest.approx(4.0, rel=0.10)

    def test_target_covariance_at_small_lags(self):
        # average sample autocovariance over seeds against the exact
        # gamma(k) = 0.5 (|k+1|^2H - 2|k|^2H + |k-1|^2H)
        hurst = 0.8
        two_h = 2 * hurst
        k = np.arange(1, 6)
        gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + (k - 1.0) ** two_h)
        acc = np.zeros(5)
        seeds = range(20)
        for seed in seeds:
            s = generate(GenSpec(kind="fgn", n=4096, seed=seed, hurst=hurst))
            x = s.values
            acc += np.array([np.mean(x[j:] * x[:-j]) for j in k])
        np.testing.assert_allclose(acc / len(list(seeds)), gamma, atol=0.06)


class TestFgnEmbedding:
    @pytest.mark.parametrize("hurst", [0.01, 0.999])
    def test_long_series_embed_at_size_2n(self, hurst):
        s = generate(GenSpec(kind="fgn", n=2**16, seed=1, hurst=hurst))
        assert len(s) == 2**16 and np.all(np.isfinite(s.values))

    def test_negative_eigenvalue_fails_at_once(self):
        # at n = 2**18, H = 0.999 the computed covariance has a negative
        # circulant eigenvalue (about -0.0063) at size 2n; a larger
        # embedding would only allocate more before failing
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            with pytest.raises(NonEmbeddableCovariance) as info:
                generate(GenSpec(kind="fgn", n=2**18, hurst=0.999))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 64 * 2**20
        info.match(r"^fGn with n=262144, H=0\.999: smallest circulant eigenvalue -0\.006\d* "
                   r"is below -\S+ at embedding size 524288$")


class TestArfimaGen:
    def test_slow_acf_decay(self):
        s = generate(GenSpec(kind="arfima", n=8192, seed=0, d=0.3))
        res = acf(s, 50)
        assert res.rho[50] > 0.05

    def test_sample_acf_matches_theory(self):
        # lag-level agreement within +-3/sqrt(n) in at least 90% of the
        # 50 seeds x 20 lags checks; at stronger d the sample-ACF noise no
        # longer scales as 1/sqrt(n), which is long memory doing its thing
        n = 8192
        tol = 3.0 / np.sqrt(n)
        theory = theoretical_acf_arfima0d0(0.2, 20)
        hits = 0
        for seed in range(50):
            s = generate(GenSpec(kind="arfima", n=n, seed=seed, d=0.2))
            res = acf(s, 20)
            hits += int(np.sum(np.abs(res.rho[1:] - theory[1:]) < tol))
        assert hits >= 900

    def test_sample_acf_tracks_theory_at_strong_d(self):
        # at d = 0.3 the seed-averaged ACF must sit close to theory even
        # though single-seed fluctuations exceed the classical band
        n = 8192
        theory = theoretical_acf_arfima0d0(0.3, 20)
        acc = np.zeros(20)
        for seed in range(30):
            s = generate(GenSpec(kind="arfima", n=n, seed=seed, d=0.3))
            acc += acf(s, 20).rho[1:]
        np.testing.assert_allclose(acc / 30, theory[1:], atol=0.03)

    def test_arma_part_changes_dynamics(self):
        plain = generate(GenSpec(kind="arfima", n=512, seed=3, d=0.2))
        with_ar = generate(GenSpec(kind="arfima", n=512, seed=3, d=0.2, phi=(0.5,)))
        assert not np.allclose(plain.values, with_ar.values)


def _reference_generate(spec, burn_in=500):
    """The ARMA and fractional kinds built directly: white noise through the
    (1-B)**(-d) expansion by FFT convolution for the fractional kind, then
    theta(B)/phi(B) by a recursion when there is an ARMA part."""
    rng = np.random.default_rng(spec.seed)
    total = spec.n + burn_in
    y = spec.sigma * rng.standard_normal(total)
    if spec.kind == "arfima":
        y = fftconvolve(fracdiff_weights(-spec.d, total), y)[:total]
    if spec.kind == "arma" or spec.phi or spec.theta:
        y = lfilter(mapoly(spec.theta), arpoly(spec.phi), y)
    return y[burn_in:] + spec.offset


class TestReferenceConstruction:
    @pytest.mark.parametrize("n", [13, 100, 2000])
    @pytest.mark.parametrize("kw", [
        dict(kind="arma", phi=(0.5, -0.2), theta=(0.3,)),
        dict(kind="arma", theta=(-0.4,), offset=5.0),
        dict(kind="arfima", d=0.35),
        dict(kind="arfima", d=-0.3, phi=(0.4,), theta=(-0.2,), sigma=2.0),
        dict(kind="arfima", d=0.2, theta=(0.5,), offset=80.0),
    ], ids=["arma21", "ma1", "arfima0d0", "arfima1d1", "arfima0d1"])
    def test_bit_identical_to_reference(self, kw, n):
        spec = GenSpec(n=n, seed=n, **kw)
        np.testing.assert_array_equal(generate(spec).values, _reference_generate(spec))


class TestMemoryBridge:
    def test_long_memory_verdicts_agree(self):
        # d and H describe the same memory through H = d + 1/2
        for seed in (0, 1, 2):
            via_d = classify_memory(generate(GenSpec(kind="arfima", n=4096, seed=seed, d=0.3)))
            via_h = classify_memory(generate(GenSpec(kind="fgn", n=4096, seed=seed, hurst=0.8)))
            assert via_d.verdict == via_h.verdict == "LRD"

    def test_boundary_medians_agree(self):
        # at d = 0 (H = 1/2) both generators sit at the memory boundary
        med_d = np.mean([
            classify_memory(generate(GenSpec(kind="arfima", n=4096, seed=s, d=0.0))).h_median
            for s in range(10)
        ])
        med_h = np.mean([
            classify_memory(generate(GenSpec(kind="fgn", n=4096, seed=s, hurst=0.5))).h_median
            for s in range(10)
        ])
        assert abs(med_d - 0.5) < 0.05
        assert abs(med_h - 0.5) < 0.05


class TestSeriesMetadata:
    def test_returns_time_series(self):
        s = generate(GenSpec(kind="white_noise", n=16, seed=0, interval=1800.0))
        assert isinstance(s, TimeSeries)
        assert s.interval == 1800.0
        assert s.label == "white_noise-n16-seed0"


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: GenSpec(kind="white_noise", n=0), InvalidSpec, "n must be",
                 id="n0"),
    # numpy's generator would reject it with a bare ValueError
    pytest.param(lambda: GenSpec(kind="white_noise", n=10, seed=-1), InvalidSpec,
                 "seed must be non-negative, got -1", id="negative-seed"),
    pytest.param(lambda: GenSpec(kind="white_noise", n=10, offset=-1.0), InvalidSpec,
                 "offset", id="negative-offset"),
    pytest.param(lambda: GenSpec(kind="white_noise", n=5, sigma=math.nan), InvalidSpec,
                 "sigma must be finite and positive", id="nan-sigma"),
    pytest.param(lambda: GenSpec(kind="white_noise", n=5, sigma=math.inf), InvalidSpec,
                 "sigma must be finite and positive", id="inf-sigma"),
    # fGn's covariance scales with sigma squared, which must be finite too
    pytest.param(lambda: GenSpec(kind="fgn", n=8, sigma=1e200), InvalidSpec,
                 "fGn needs a sigma whose square is finite", id="fgn-sigma-squared-overflows"),
    pytest.param(lambda: GenSpec(kind="white_noise", n=5, offset=math.nan), InvalidSpec,
                 "offset must be finite and non-negative", id="nan-offset"),
    pytest.param(lambda: GenSpec(kind="white_noise", n=5, offset=math.inf), InvalidSpec,
                 "offset must be finite and non-negative", id="inf-offset"),
    # (1 - 0.5B) is both the AR and the MA polynomial: causal and invertible,
    # but the common root cancels
    pytest.param(lambda: GenSpec(kind="arma", n=10, phi=(0.5,), theta=(-0.5,)), InvalidSpec,
                 r"causal and invertible and share no \(near-\)common root", id="common-root"),
])
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
