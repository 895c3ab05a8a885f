"""Rolling-origin cross-validation and forecast accuracy metrics.

A fixed training window rolls over the series; at every origin each
configured method is fit on the (transformed) window and scored against
the actual values over all horizons. Errors are pooled across origins per
horizon, and methods are compared pairwise by percentage MAPE reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import (
    ConfigMismatch,
    ConfigTooLargeForSeries,
    LengthMismatch,
    LrdForecastError,
    MalformedInput,
    NonPositiveValue,
    ZeroActual,
    ZeroBaseline,
)
from .models import ARFIMA, ARIMA, FAMILIES, MEAN, NAIVE, fit, forecast
from .series import TimeSeries, TransformSpec, transform


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation protocol: training window length, maximum forecast
    horizon, origin stride, the methods to compare, the interval level, and
    the transform applied to every training window (None fits on the raw
    scale)."""

    window: int = 96
    max_horizon: int = 48
    step: int = 1
    methods: tuple = (NAIVE, MEAN, ARIMA, ARFIMA)
    level: float = 0.95
    transform: TransformSpec | None = TransformSpec(lmbda=0.0)

    def __post_init__(self):
        if self.window < 2 or self.max_horizon < 1:
            raise MalformedInput("window must be >= 2 and max_horizon >= 1")
        if self.step < 1:
            raise MalformedInput("step must be >= 1")
        if not self.methods:
            raise MalformedInput("at least one method is required")
        for m in self.methods:
            if m not in FAMILIES:
                raise MalformedInput(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise MalformedInput("duplicate methods")
        if not 0.0 < self.level < 1.0:
            raise MalformedInput("level must lie in (0, 1)")


@dataclass(frozen=True)
class MetricSet:
    """Per-origin errors of one method, origins x horizons: actual minus
    forecast, and that in percent of the actual; MAE, MAPE and count derive from them."""

    errors: np.ndarray
    pct_errors: np.ndarray

    @cached_property
    def mae(self) -> np.ndarray:
        return np.abs(self.errors).mean(axis=0)

    @cached_property
    def mape(self) -> np.ndarray:
        return np.abs(self.pct_errors).mean(axis=0)

    @property
    def count(self) -> int:
        return self.errors.shape[0]


@dataclass(frozen=True)
class Improvement:
    """Percentage MAPE reduction of a candidate method over a baseline,
    per horizon and for the mean over horizons, plus the best horizon."""

    per_horizon: np.ndarray
    mean: float
    max: float


@dataclass(frozen=True)
class CvReport:
    """Per-method MetricSets of one rolling-origin run, or of several pooled,
    and the excluded origins; improvements and boxplot derive from them."""

    per_method: dict
    series_label: str
    config: CvConfig
    excluded_origins: tuple = ()

    @property
    def total_experiments(self) -> int:
        return sum(m.count * self.config.max_horizon for m in self.per_method.values())

    @cached_property
    def improvements(self) -> dict:
        """Improvement of b over a for each ordered pair (a, b) of methods;
        empty unless every method scored an origin."""
        out = {}
        if any(ms.count == 0 for ms in self.per_method.values()):
            return out
        for (a, ms_a), (b, ms_b) in permutations(self.per_method.items(), 2):
            ma, mb = ms_a.mape, ms_b.mape
            per_h = np.where(ma > 0, (ma - mb) / np.where(ma > 0, ma, 1.0) * 100.0, np.nan)
            mean_a, mean_b = float(ma.mean()), float(mb.mean())
            mean_impr = improvement(mean_a, mean_b) if mean_a > 0 else float("nan")
            max_impr = float(np.nanmax(per_h)) if np.any(np.isfinite(per_h)) else float("nan")
            out[(a, b)] = Improvement(per_horizon=per_h, mean=mean_impr, max=max_impr)
        return out

    @cached_property
    def boxplot(self) -> dict:
        """Per method, horizons x (min, q1, median, q3, max) of |pct_errors|."""
        return {m: np.percentile(np.abs(ms.pct_errors), [0, 25, 50, 75, 100], axis=0).T
                for m, ms in self.per_method.items()}


def mae(actual, forecast_values) -> float:
    """Mean absolute error."""
    actual = np.asarray(actual, dtype=float)
    forecast_values = np.asarray(forecast_values, dtype=float)
    if actual.shape != forecast_values.shape:
        raise LengthMismatch("actual and forecast lengths differ")
    return float(np.mean(np.abs(actual - forecast_values)))


def mape(actual, forecast_values) -> float:
    """Mean absolute percentage error, in percent."""
    actual = np.asarray(actual, dtype=float)
    forecast_values = np.asarray(forecast_values, dtype=float)
    if actual.shape != forecast_values.shape:
        raise LengthMismatch("actual and forecast lengths differ")
    if np.any(actual == 0):
        raise ZeroActual("percentage error undefined for zero actuals")
    return float(np.mean(np.abs(100.0 * (actual - forecast_values) / actual)))


def improvement(mape_baseline: float, mape_candidate: float) -> float:
    """Percentage reduction of the candidate's MAPE relative to the
    baseline's; negative when the candidate is worse."""
    if mape_baseline <= 0:
        raise ZeroBaseline("baseline MAPE must be positive")
    return float((mape_baseline - mape_candidate) / mape_baseline * 100.0)


def rolling_cv(series: TimeSeries, config: CvConfig) -> CvReport:
    """Run the rolling-origin protocol on one series.

    For every origin the window [o - window, o) is transformed, each method
    is fit and asked for forecasts over 1..max_horizon, and the
    back-transformed points are scored against the actuals. An origin where
    any method fails is excluded for all methods, keeping every pairwise
    comparison paired. Each error matrix has one row per scored origin.
    """
    n = len(series)
    if config.window + config.max_horizon > n:
        raise ConfigTooLargeForSeries(
            f"window {config.window} + horizon {config.max_horizon} exceeds length {n}"
        )
    if config.transform is not None and config.transform.lmbda == 0.0:
        if np.any(series.values <= 0):
            raise NonPositiveValue("log-scale cross-validation needs positive data")
    if np.any(series.values == 0):
        raise ZeroActual("zero actuals make MAPE undefined")

    errors = {m: [] for m in config.methods}
    pct = {m: [] for m in config.methods}
    excluded = []
    for origin in range(config.window, n - config.max_horizon + 1, config.step):
        win = TimeSeries(
            series.values[origin - config.window : origin],
            start_time=series.start_time + (origin - config.window) * series.interval,
            interval=series.interval,
            label=series.label,
        )
        if config.transform is not None:
            win = transform(win, config.transform)
        actual = series.values[origin : origin + config.max_horizon]
        points = {}
        try:
            for m in config.methods:
                model = fit(win, m)
                points[m] = forecast(model, config.max_horizon, config.level).point
        except (LrdForecastError, np.linalg.LinAlgError) as exc:
            excluded.append((origin, m, f"{type(exc).__name__}: {exc}"))
            continue
        for m in config.methods:
            e = actual - points[m]
            errors[m].append(e)
            pct[m].append(100.0 * e / actual)

    h = config.max_horizon
    return CvReport(
        per_method={m: MetricSet(np.asarray(errors[m]).reshape(-1, h),
                                 np.asarray(pct[m]).reshape(-1, h))
                    for m in config.methods},
        series_label=series.label,
        config=config,
        excluded_origins=tuple(excluded),
    )


def aggregate_reports(reports) -> CvReport:
    """Pool per-origin errors across series by stacking each method's
    error matrices; every metric of the pooled report derives from them.

    Configurations must match exactly.
    """
    reports = list(reports)
    if not reports:
        raise MalformedInput("no reports to aggregate")
    config = reports[0].config
    for r in reports[1:]:
        if r.config != config:
            raise ConfigMismatch("reports were produced under different configs")
    return CvReport(
        per_method={m: MetricSet(np.vstack([r.per_method[m].errors for r in reports]),
                                 np.vstack([r.per_method[m].pct_errors for r in reports]))
                    for m in config.methods},
        series_label=";".join(r.series_label for r in reports),
        config=config,
        excluded_origins=tuple(x for r in reports for x in r.excluded_origins),
    )
