"""Seeded generators of synthetic series with known memory structure.

These are the ground-truth inputs for estimator and forecaster tests:
white noise, ARMA, fractionally integrated ARMA, exact fractional Gaussian
noise (circulant embedding), and random walks. All draws come from
numpy.random.Generator with the PCG64 bit generator seeded from the spec,
so identical specs produce identical series on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonEmbeddableCovariance
from .operators import admissible, integrate
from .series import TimeSeries

WHITE_NOISE = "white_noise"
ARMA = "arma"
ARFIMA = "arfima"
FGN = "fgn"
RANDOM_WALK = "random_walk"
KINDS = (WHITE_NOISE, ARMA, ARFIMA, FGN, RANDOM_WALK)

_BURN_IN = 500


@dataclass(frozen=True)
class GenSpec:
    """What to generate. phi/theta feed the ARMA recursion, d the
    fractional integrator, hurst the fGn covariance, sigma the innovation
    (or fGn) standard deviation. offset shifts the series upward so that
    log-scale pipelines receive positive data."""

    kind: str
    n: int
    seed: int = 0
    phi: tuple = ()
    theta: tuple = ()
    d: float = 0.0
    hurst: float = 0.5
    sigma: float = 1.0
    offset: float = 0.0
    interval: float = 3600.0
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise InvalidSpec("n must be >= 1")
        if not 0 < self.sigma < math.inf:
            raise InvalidSpec(f"sigma must be finite and positive, got {self.sigma!r}")
        if not 0 <= self.offset < math.inf:
            raise InvalidSpec(f"offset must be finite and non-negative, got {self.offset!r}")
        if self.kind == FGN and not 0.0 < self.hurst < 1.0:
            raise InvalidSpec("fGn needs hurst in (0, 1)")
        if self.kind == FGN and not math.isfinite(self.sigma * self.sigma):
            raise InvalidSpec(f"fGn needs a sigma whose square is finite, got {self.sigma!r}")
        if self.kind == ARFIMA and not -0.5 < self.d < 0.5:
            raise InvalidSpec("fractional generator needs d in (-0.5, 0.5)")
        if self.kind in (ARMA, ARFIMA) and not admissible(self.phi, self.theta):
            raise InvalidSpec("phi/theta must be causal and invertible and share no "
                              "(near-)common root")


def _fgn_autocov(lags: np.ndarray, hurst: float, sigma2: float) -> np.ndarray:
    k = np.abs(lags).astype(float)
    two_h = 2.0 * hurst
    return 0.5 * sigma2 * (
        np.abs(k + 1) ** two_h - 2.0 * k**two_h + np.abs(k - 1) ** two_h
    )


def _davies_harte_fgn(n: int, hurst: float, sigma: float, rng) -> np.ndarray:
    """Exact fGn by circulant embedding of the covariance (Davies & Harte
    1987, Biometrika 74).

    The covariance sequence is wrapped onto a circle of size 2n and
    diagonalised by the FFT; the sample is the real part of the inverse
    transform of sqrt(eigenvalue)-weighted complex Gaussian draws. For fGn
    this minimal embedding is nonnegative definite at every H in (0, 1)
    (Craigmile 2003, J. Time Ser. Anal. 24), so a negative eigenvalue
    beyond rounding comes from the computed covariance, which a larger
    embedding does not repair: it is a NonEmbeddableCovariance at once.
    """
    m = 2 * n
    g = _fgn_autocov(np.arange(n + 1), hurst, sigma**2)
    lam = np.fft.fft(np.concatenate([g, g[-2:0:-1]])).real
    low, tol = lam.min(), -1e-8 * max(1.0, lam.max())
    if not low > tol:
        raise NonEmbeddableCovariance(
            f"fGn with n={n}, H={hurst}: smallest circulant eigenvalue {low:.3g} "
            f"is below {tol:.3g} at embedding size {m}"
        )
    lam = np.clip(lam, 0.0, None)
    z = np.empty(m, dtype=complex)
    z[0] = rng.standard_normal() * np.sqrt(2.0)
    z[m // 2] = rng.standard_normal() * np.sqrt(2.0)
    re = rng.standard_normal(m // 2 - 1)
    im = rng.standard_normal(m // 2 - 1)
    z[1 : m // 2] = re + 1j * im
    z[m // 2 + 1 :] = np.conj(z[1 : m // 2][::-1])
    x = np.fft.ifft(np.sqrt(lam) * z) * np.sqrt(m / 2.0)
    return x.real[:n]


def generate(spec: GenSpec) -> TimeSeries:
    """Generate the series described by spec.

    The ARMA and fractional kinds simulate 500 burn-in samples that are
    discarded; both drive white noise through the inverse innovation filter
    theta(B)(1-B)**(-d)/phi(B) of lrdforecast.operators, with d = 0 for
    ARMA; the (1-B)**(-d) expansion is truncated at the simulated length.
    Identical specs yield identical output.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == WHITE_NOISE:
        x = spec.sigma * rng.standard_normal(n)
    elif spec.kind == RANDOM_WALK:
        x = np.cumsum(spec.sigma * rng.standard_normal(n))
    elif spec.kind in (ARMA, ARFIMA):
        e = spec.sigma * rng.standard_normal(n + _BURN_IN)
        d = spec.d if spec.kind == ARFIMA else 0.0
        x = integrate(e, spec.phi, spec.theta, d)[_BURN_IN:]
    else:  # FGN
        x = _davies_harte_fgn(n, spec.hurst, spec.sigma, rng)
    x = x + spec.offset
    label = spec.label or f"{spec.kind}-n{spec.n}-seed{spec.seed}"
    return TimeSeries(x, start_time=0.0, interval=spec.interval, label=label)
