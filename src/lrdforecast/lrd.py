"""Long-range dependence diagnostics.

Three Hurst-exponent estimators (aggregated variance, rescaled range,
periodogram), an augmented Dickey-Fuller stationarity test, a memory
classification that tests the median of the three estimates against its
white-noise null, and an ACF-based daily seasonality check. The
estimators' block sizes and frequency band are module constants, and the
test's lag order follows Schwert's rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClampWarning,
    DegenerateScaleWarning,
    LagTooLarge,
    MalformedInput,
    SeriesTooShort,
    SingularRegression,
    ZeroVariance,
)
from .series import AcfResult, TimeSeries

AGGREGATED_VARIANCE = "aggregated_variance"
RESCALED_RANGE = "rescaled_range"
PERIODOGRAM = "periodogram"

# Asymptotic Dickey-Fuller critical values for the constant, no-trend
# regression (Fuller/MacKinnon tables). Calibrated in the test suite by
# Monte-Carlo simulation of the unit-root null.
DF_CRITICAL_VALUES = {"1%": -3.43, "5%": -2.86, "10%": -2.57}

# 95% quantile of the median of the three Hurst estimates under the
# white-noise null, by series length: 2,000 Gaussian white-noise series
# (GenSpec seeds 10000-11999) per row. Checked in the test suite by
# Monte-Carlo simulation on fresh seeds.
MEDIAN_H_CRITICAL_VALUES = {
    256: 0.668, 512: 0.640, 1024: 0.614, 2048: 0.590, 4096: 0.571, 8192: 0.560,
}

# aggregated variance: _AV_BLOCK_SIZES log-spaced block sizes from
# _AV_MIN_BLOCK to N/4; rescaled range: block lengths N, N/2, ... down to
# _RS_MIN_BLOCK; periodogram: the lowest _PERIODOGRAM_FRACTION of the
# Fourier frequencies
_AV_MIN_BLOCK = 2
_AV_BLOCK_SIZES = 20
_RS_MIN_BLOCK = 8
_PERIODOGRAM_FRACTION = 0.10


@dataclass(frozen=True)
class HurstEstimate:
    """One estimator's result: the exponent, the fitted log-log slope, the
    per-scale (or per-frequency) points behind the regression, and the fit
    quality. clamped marks an estimate pulled back into its admissible
    range."""

    h: float
    slope: float
    points: np.ndarray
    r_squared: float
    clamped: bool = False


@dataclass(frozen=True)
class AdfResult:
    """Augmented Dickey-Fuller outcome for the constant, no-trend model."""

    statistic: float
    lags_used: int
    critical_values: dict
    stationary_at_5pct: bool


@dataclass(frozen=True)
class MemoryClassification:
    verdict: str  # "LRD" or "SRD"
    h_by_method: dict
    h_median: float


def _loglog_fit(x, y):
    """OLS of log10(y) on log10(x); returns slope and r_squared."""
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def _clamp(h, lo, hi, method):
    if lo < h < hi:
        return h, False
    warnings.warn(
        f"{method}: estimate {h:.4f} outside ({lo}, {hi}), clamped", ClampWarning
    )
    return float(min(max(h, lo), hi)), True


def hurst_aggregated_variance(series: TimeSeries) -> HurstEstimate:
    """Aggregated-variance Hurst estimator.

    Averages the series over blocks of m observations for up to 20
    log-spaced sizes m between 2 and N/4, computes the
    sample variance of the block means at each m, and fits a line to
    log Var versus log m. The variance of an H-self-similar process decays
    like m**(2H - 2), so the estimate is 1 + slope/2.
    """
    n = len(series)
    if n < 4 * _AV_MIN_BLOCK:
        raise SeriesTooShort(f"need at least {4 * _AV_MIN_BLOCK} observations")
    x = series.values
    if np.ptp(x) == 0:
        raise ZeroVariance("aggregated variance undefined for a constant series")
    sizes = np.unique(
        np.round(
            np.logspace(np.log10(_AV_MIN_BLOCK), np.log10(n // 4), _AV_BLOCK_SIZES)
        ).astype(int)
    )
    pts = []
    for m in sizes:
        k = n // m
        means = x[: k * m].reshape(k, m).mean(axis=1)
        v = float(means.var(ddof=1))
        if v > 0:
            pts.append((m, v))
    if len(pts) < 4:
        raise SeriesTooShort("fewer than 4 usable block sizes")
    pts = np.asarray(pts, dtype=float)
    slope, r2 = _loglog_fit(pts[:, 0], pts[:, 1])
    h, clamped = _clamp(1.0 + slope / 2.0, 1e-6, 1.0 - 1e-6, AGGREGATED_VARIANCE)
    return HurstEstimate(h, slope, pts, r2, clamped)


def hurst_rescaled_range(series: TimeSeries) -> HurstEstimate:
    """Rescaled-range (R/S) Hurst estimator.

    For block lengths n = N, N/2, N/4, ... down to 8, each block is
    mean-adjusted, cumulatively summed, and scored with the range of the
    cumulative sum over the block's sample standard deviation. The average
    R/S per block length grows like C * n**H, so the log-log slope is the
    estimate itself. Blocks with zero spread are skipped; a block length
    where every block degenerates is dropped with a warning.
    """
    n = len(series)
    if n < 2 * _RS_MIN_BLOCK:
        raise SeriesTooShort(f"need at least {2 * _RS_MIN_BLOCK} observations")
    x = series.values
    scales = []
    m = n
    while m >= _RS_MIN_BLOCK:
        scales.append(m)
        m //= 2
    pts = []
    dropped = []
    for m in scales:
        k = n // m
        seg = x[: k * m].reshape(k, m)
        adj = seg - seg.mean(axis=1, keepdims=True)
        y = np.cumsum(adj, axis=1)
        rng = y.max(axis=1) - y.min(axis=1)
        std = seg.std(axis=1, ddof=1)
        ok = std > 0
        if not ok.any():
            dropped.append(m)
            continue
        pts.append((m, float(np.mean(rng[ok] / std[ok]))))
    if dropped:
        warnings.warn(
            f"rescaled_range: dropped degenerate scales {dropped}",
            DegenerateScaleWarning,
        )
    if not pts:
        raise ZeroVariance("every scale degenerate; series is constant")
    if len(pts) < 4:
        raise SeriesTooShort("fewer than 4 usable scales")
    pts = np.asarray(pts, dtype=float)
    slope, r2 = _loglog_fit(pts[:, 0], pts[:, 1])
    return HurstEstimate(slope, slope, pts, r2)


def hurst_periodogram(series: TimeSeries) -> HurstEstimate:
    """Periodogram Hurst estimator.

    Evaluates the raw (untapered) periodogram of the mean-subtracted series
    at the Fourier frequencies 2*pi*k/N and regresses log I on log
    frequency over the lowest 10% of the spectrum (k <= 0.05 N), where a
    long-memory spectrum behaves like a power law with exponent 1 - 2H.
    Estimates slightly above 1 are meaningful for strongly persistent data,
    so the clamp range is (0, 1.2).
    """
    n = len(series)
    if n < 64:
        raise SeriesTooShort("need at least 64 observations")
    kmax = int(_PERIODOGRAM_FRACTION * n / 2)
    if kmax < 4:
        raise SeriesTooShort("fewer than 4 Fourier frequencies in the band")
    x = series.values - series.values.mean()
    if np.ptp(x) == 0:
        raise ZeroVariance("periodogram undefined for a constant series")
    spec = np.abs(np.fft.rfft(x)[1 : kmax + 1]) ** 2 / (2.0 * np.pi * n)
    k = np.arange(1, kmax + 1)
    lam = 2.0 * np.pi * k / n
    keep = spec > 0
    if keep.sum() < 4:
        raise SeriesTooShort("fewer than 4 positive periodogram ordinates")
    pts = np.column_stack([lam[keep], spec[keep]])
    slope, r2 = _loglog_fit(pts[:, 0], pts[:, 1])
    h, clamped = _clamp((1.0 - slope) / 2.0, 1e-6, 1.2, PERIODOGRAM)
    return HurstEstimate(h, slope, pts, r2, clamped)


def adf_test(series: TimeSeries) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test, constant and no trend.

    Regresses the first difference on the lagged level, an intercept, and
    k lagged differences, with k from Schwert's rule int(12*(N/100)**0.25),
    8 at the minimum N = 25. The statistic is the t-ratio of the
    lagged-level coefficient, compared against embedded asymptotic critical
    values. The null is non-stationarity, so stationary_at_5pct is True
    when the statistic falls below the 5% critical value.
    """
    n = len(series)
    if n < 25:
        raise SeriesTooShort("ADF test needs at least 25 observations")
    k = int(12.0 * (n / 100.0) ** 0.25)
    y = series.values
    dy = np.diff(y)
    rows = dy.size - k
    X = np.empty((rows, 2 + k))
    X[:, 0] = y[k:-1]
    X[:, 1] = 1.0
    for i in range(1, k + 1):
        X[:, 1 + i] = dy[k - i : dy.size - i]
    resp = dy[k:]
    coef, _, rank, _ = np.linalg.lstsq(X, resp, rcond=None)
    if rank < X.shape[1]:
        raise SingularRegression("collinear ADF design matrix")
    resid = resp - X @ coef
    dof = rows - X.shape[1]  # n - 3 - 2k >= 6 for every n >= 25
    s2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    se_phi = float(np.sqrt(s2 * xtx_inv[0, 0]))
    if se_phi == 0:
        raise SingularRegression("zero standard error for the level coefficient")
    stat = float(coef[0] / se_phi)
    return AdfResult(
        statistic=stat,
        lags_used=k,
        critical_values=dict(DF_CRITICAL_VALUES),
        stationary_at_5pct=stat < DF_CRITICAL_VALUES["5%"],
    )


def _median_h_critical_value(n: int) -> float:
    """MEDIAN_H_CRITICAL_VALUES at length n, linear in log n between rows
    and the last row beyond the table."""
    sizes, values = zip(*MEDIAN_H_CRITICAL_VALUES.items())
    return float(np.interp(np.log2(n), np.log2(sizes), values))


def classify_memory(series: TimeSeries) -> MemoryClassification:
    """Run all three Hurst estimators and classify the series as long-range
    dependent when the median estimate exceeds the 95% quantile of its
    white-noise null at the series' length, a one-sided test of H = 1/2
    at the 5% level. Below about 1024 observations short- and long-memory
    medians overlap: ARFIMA with d = 0.2 is called SRD in 43% of series at
    n = 256, 27% at 512 and 12% at 1024, against 3% at 2048 and none at
    4096. So a short series' SRD verdict is weak evidence."""
    n = len(series)
    if n < 256:
        raise SeriesTooShort("memory classification needs at least 256 observations")
    estimates = {
        AGGREGATED_VARIANCE: hurst_aggregated_variance(series),
        RESCALED_RANGE: hurst_rescaled_range(series),
        PERIODOGRAM: hurst_periodogram(series),
    }
    h_median = float(np.median([e.h for e in estimates.values()]))
    verdict = "LRD" if h_median > _median_h_critical_value(n) else "SRD"
    return MemoryClassification(verdict=verdict, h_by_method=estimates, h_median=h_median)


def seasonal_peak_diagnostic(acf_result: AcfResult, daily_lag: int):
    """Check for autocorrelation peaks recurring at multiples of daily_lag.

    For every multiple M of daily_lag covered by the ACF, the lag with the
    highest autocorrelation in the window of width daily_lag centred on M
    must land within one lag of M. Returns (present, peak_lags); peak_lags
    lists the peaks that did line up.
    """
    if daily_lag < 2:
        raise MalformedInput("daily_lag must be >= 2")
    top = int(acf_result.lags[-1])
    if top < 2 * daily_lag:
        raise LagTooLarge(
            f"ACF covers {top} lags; need at least {2 * daily_lag} to check "
            f"multiples of {daily_lag}"
        )
    rho = acf_result.rho
    half = daily_lag // 2
    present = True
    peaks = []
    for mult in range(daily_lag, top + 1, daily_lag):
        lo = max(1, mult - half)
        hi = min(top, mult + half)
        j = lo + int(np.argmax(rho[lo : hi + 1]))
        if abs(j - mult) <= 1:
            peaks.append(j)
        else:
            present = False
    return present, peaks
