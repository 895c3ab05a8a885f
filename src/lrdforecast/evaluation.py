"""Rolling-origin cross-validation and forecast accuracy metrics.

A fixed training window rolls over the series; at every origin each
configured method is fit on the (transformed) window and scored against
the actual values over all horizons. Errors are pooled across origins per
horizon, and methods are compared pairwise by percentage MAPE reduction.
"""

from __future__ import annotations

from collections import Counter
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
    NoScoredOrigins,
    ZeroActual,
    ZeroBaseline,
)
from ._pool import map_shards
from .models import ARFIMA, ARIMA, FAMILIES, MEAN, NAIVE, fit, forecast
from .series import TimeSeries, TransformSpec, transform


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation protocol: training window length, maximum forecast
    horizon, origin stride, the methods to compare, and the transform
    applied to every training window (None fits on the raw scale)."""

    window: int = 96
    max_horizon: int = 48
    step: int = 1
    methods: tuple = (NAIVE, MEAN, ARIMA, ARFIMA)
    transform: TransformSpec | None = TransformSpec(lmbda=0.0)
    # not a field: no score depends on it; perfbench's exact-MAPE replay reads it
    level = 0.95

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


@dataclass(frozen=True)
class MetricSet:
    """Per-origin errors of one method, origins x horizons: actual minus
    forecast, and that in percent of the actual; MAE, MAPE and count derive
    from them, and MAE and MAPE are NaN at every horizon with no origin."""

    errors: np.ndarray
    pct_errors: np.ndarray

    @cached_property
    def mae(self) -> np.ndarray:
        return _mean_abs(self.errors)

    @cached_property
    def mape(self) -> np.ndarray:
        return _mean_abs(self.pct_errors)

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
    config: CvConfig
    excluded_origins: tuple = ()

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
        """Per method, horizons x (min, q1, median, q3, max) of |pct_errors|.
        Raises NoScoredOrigins, with the exclusions counted by error type,
        when no origin was scored."""
        if any(ms.count == 0 for ms in self.per_method.values()):
            causes = Counter(reason.split(":", 1)[0] for _, _, reason in self.excluded_origins)
            raise NoScoredOrigins(
                f"all {len(self.excluded_origins)} origins were excluded ("
                + ", ".join(f"{name}: {count}" for name, count in sorted(causes.items())) + ")")
        return {m: np.percentile(np.abs(ms.pct_errors), [0, 25, 50, 75, 100], axis=0).T
                for m, ms in self.per_method.items()}


def _mean_abs(a: np.ndarray) -> np.ndarray:
    """Per-column mean of |a|, NaN for a matrix with no rows."""
    if a.shape[0] == 0:
        return np.full(a.shape[1], np.nan)
    return np.abs(a).mean(axis=0)


def _errors(actual: np.ndarray, forecast_values: np.ndarray) -> tuple:
    """actual - forecast, and that in percent of the actual: the arithmetic
    of mae, mape and every report. The percentage is inf or NaN where the
    actual is 0, which mape rejects and mae does not read."""
    e = actual - forecast_values
    with np.errstate(divide="ignore", invalid="ignore"):
        return e, 100.0 * e / actual


def mae(actual, forecast_values) -> float:
    """Mean absolute error."""
    actual = np.asarray(actual, dtype=float)
    forecast_values = np.asarray(forecast_values, dtype=float)
    if actual.shape != forecast_values.shape:
        raise LengthMismatch("actual and forecast lengths differ")
    return float(np.mean(np.abs(_errors(actual, forecast_values)[0])))


def mape(actual, forecast_values) -> float:
    """Mean absolute percentage error, in percent."""
    actual = np.asarray(actual, dtype=float)
    forecast_values = np.asarray(forecast_values, dtype=float)
    if actual.shape != forecast_values.shape:
        raise LengthMismatch("actual and forecast lengths differ")
    if np.any(actual == 0):
        raise ZeroActual("percentage error undefined for zero actuals")
    return float(np.mean(np.abs(_errors(actual, forecast_values)[1])))


def improvement(mape_baseline: float, mape_candidate: float) -> float:
    """Percentage reduction of the candidate's MAPE relative to the
    baseline's; negative when the candidate is worse."""
    if mape_baseline <= 0:
        raise ZeroBaseline("baseline MAPE must be positive")
    return float((mape_baseline - mape_candidate) / mape_baseline * 100.0)


def rolling_cv(series: TimeSeries, config: CvConfig) -> CvReport:
    """Run the rolling-origin protocol on one series.

    The series is transformed once, so a value the transform rejects fails
    before any fit, and for every origin o the window [o - window, o) is
    cut from it: the transform is elementwise, so that is the window
    transformed.
    Each method is fit and asked for forecasts over 1..max_horizon, and the
    back-transformed points are scored against the actuals. An origin where
    any method fails is excluded for all methods, keeping every pairwise
    comparison paired. Each error matrix has one row per scored origin.
    Origins may be scored in contiguous shards by the process pool's
    workers (see ``_pool``); they are joined in origin order, so the report
    is the same for any worker count.
    """
    n = len(series)
    if config.window + config.max_horizon > n:
        raise ConfigTooLargeForSeries(
            f"window {config.window} + horizon {config.max_horizon} exceeds length {n}"
        )
    scaled = series if config.transform is None else transform(series, config.transform)
    if np.any(series.values == 0):
        raise ZeroActual("zero actuals make MAPE undefined")

    errors = {m: [] for m in config.methods}
    pct = {m: [] for m in config.methods}
    excluded = []
    origins = range(config.window, n - config.max_horizon + 1, config.step)
    for outcome in map_shards(_score_origins, (series, scaled, config), origins):
        if isinstance(outcome, tuple):
            excluded.append(outcome)
            continue
        for m, (e, p) in outcome.items():
            errors[m].append(e)
            pct[m].append(p)

    h = config.max_horizon
    return CvReport(
        per_method={m: MetricSet(np.asarray(errors[m]).reshape(-1, h),
                                 np.asarray(pct[m]).reshape(-1, h))
                    for m in config.methods},
        config=config,
        excluded_origins=tuple(excluded),
    )


def _score_origins(series: TimeSeries, scaled: TimeSeries, config: CvConfig, origins) -> list:
    """Score rolling_cv's origins, each one either {method: (errors,
    percentage errors)} over the horizons or, when a method fails there,
    the exclusion (origin, method, reason). Runs in the caller and in the
    pool's workers."""
    out = []
    for origin in origins:
        win = TimeSeries(scaled.values[origin - config.window : origin],
                         transform=config.transform)
        actual = series.values[origin : origin + config.max_horizon]
        points = {}
        try:
            for m in config.methods:
                model = fit(win, m)
                points[m] = forecast(model, config.max_horizon).point
        except (LrdForecastError, np.linalg.LinAlgError) as exc:
            out.append((origin, m, f"{type(exc).__name__}: {exc}"))
            continue
        out.append({m: _errors(actual, points[m]) for m in config.methods})
    return out


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
        config=config,
        excluded_origins=tuple(x for r in reports for x in r.excluded_origins),
    )
