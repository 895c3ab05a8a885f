"""Forecasting models for response-time series.

Four families: last-value (naive), window mean, ARIMA, and fractionally
integrated ARIMA. ARIMA picks its integer differencing order with the
Dickey-Fuller test and its ARMA orders by the corrected AIC over a grid;
the fractional model always estimates the differencing exponent d jointly
with the ARMA coefficients by minimising the conditional sum of squared
innovations (CSS). ARIMA's pure AR cells are solved by least squares;
every other cell by Levenberg-Marquardt on the Jacobian of the innovation
filter, with the fractional d one more parameter projected onto [0, 0.4999]
and a Jacobian row -log(1-B) applied to the innovations. A fit stops at a
gradient below 1e-5, a step that moves the cell's AICc by at most 0.01, or
200 steps, and keeps the last admissible (causal, invertible, no common
root) point of its path. The fractional search starts every cell from the
best d of a coarse grid, on which the (0, 0) cell's CSS is closed-form.
Forecasts invert the fitted innovation filter
phi(B)(1-B)**d/theta(B), with Gaussian prediction intervals computed on the
(optionally Box-Cox transformed) fitting scale and mapped back. The filter,
its inverse and the other operator primitives are in lrdforecast.operators.

On a 96-point window an ARIMA fit takes about 10-12 ms and a fractional
fit about 5 ms (one Xeon core, numpy 2.4, scipy 1.17; the host's speed
drifts by tens of per cent). A Levenberg-Marquardt step is one Jacobian
fill (about 20 us for a (2, 2) cell with d), then per damping tried one
solve (3-5 us) and one innovation filter (2-3 us; 16 us more to
difference x fractionally). The walk back to an admissible point costs
about 10 us per point without an MA part and 30-50 us with both parts,
most of it the common-root test.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import (
    DegenerateSampleSize,
    InvalidLevel,
    MalformedInput,
    NoAdmissibleModel,
    SeriesTooShort,
)
from .lrd import adf_test
from .operators import (
    admissible,
    causal_convolver,
    fracdiff_of,
    innovations,
    integrate,
    linear_filter,
    solve,
)
from .series import TimeSeries, TransformSpec, inv_boxcox

NAIVE = "naive"
MEAN = "mean"
ARIMA = "arima"
ARFIMA = "arfima"
FAMILIES = (NAIVE, MEAN, ARIMA, ARFIMA)

_ARFIMA_D_CAP = 0.4999
# coarse d grid on which the (0, 0) cell's CSS is closed-form; its best d
# starts every cell's joint fit of (d, phi, theta)
_ARFIMA_D_GRID = tuple(
    float(d) for d in np.round(np.arange(0.0, 0.45 + 1e-9, 0.05), 10)
)
# Levenberg-Marquardt for the CSS fits with an MA part: the gradient bound,
# the step cap, the AICc change that ends a fit, and the damping range
_LM_GTOL = 1e-5
_LM_MAXITER = 200
_LM_AICC_TOL = 0.01
_LM_LAMBDA0 = 1e-3
_LM_LAMBDA_MAX = 1e10


@dataclass(frozen=True)
class ModelSpec:
    """Model family and orders. d is an integer for ARIMA and a real in
    [0, 0.5) for the fractional model."""

    family: str
    p: int = 0
    d: float = 0.0
    q: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise MalformedInput(f"unknown model family {self.family!r}")
        if self.p < 0 or self.q < 0:
            raise MalformedInput("orders p and q must be non-negative")
        if self.family in (NAIVE, MEAN) and (self.p or self.q or self.d):
            raise MalformedInput(f"{self.family} model takes no orders")
        if self.family == ARIMA and self.d not in (0, 1, 2):
            raise MalformedInput("ARIMA differencing order must be 0, 1 or 2")
        if self.family == ARFIMA and not 0.0 <= self.d < 0.5:
            raise MalformedInput("fractional d must lie in [0, 0.5)")

    @property
    def include_mean(self) -> bool:
        """Whether a mean is estimated: not for the naive model, nor for
        ARIMA with d >= 1, since a differenced model carries no drift."""
        return self.family in (MEAN, ARFIMA) or (self.family == ARIMA and self.d == 0)


@dataclass(frozen=True)
class FittedModel:
    """A fit anchored to its history; n, the history's length, is kept
    because a model document carries it without the history."""

    spec: ModelSpec
    phi: np.ndarray
    theta: np.ndarray
    mean: float
    sigma2: float
    aicc: float
    loglik: float
    transform: TransformSpec | None
    n: int
    history: np.ndarray  # the values anchoring the model, on the fitting scale

    @property
    def residuals(self) -> np.ndarray:
        """The one-step residuals on the history, derived from it on each
        access: its first differences for the naive model, its deviations
        from the mean for the mean model, innovations(diff(history, d) -
        mean, phi, theta) for ARIMA, d shorter than the history, and
        innovations(history - mean, phi, theta, d) for the fractional model."""
        fam, x = self.spec.family, self.history
        if fam == NAIVE:
            return np.diff(x)
        if fam == MEAN:
            return x - self.mean
        if fam == ARIMA:
            return innovations(np.diff(x, n=int(self.spec.d)) - self.mean, self.phi, self.theta)
        return innovations(x - self.mean, self.phi, self.theta, self.spec.d)


@dataclass(frozen=True)
class ForecastResult:
    """Per-horizon point forecasts and interval bounds on the original
    scale, plus the moving-average weights and per-horizon variance used on
    the fitting scale."""

    horizons: np.ndarray
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    psi: np.ndarray
    scale_sigma2: np.ndarray


# ---------------------------------------------------------------------------
# conditional-sum-of-squares estimation


def _ols_ar(x: np.ndarray, p: int) -> np.ndarray:
    """Exact CSS minimiser for a pure AR model (linear least squares on the
    zero-padded lag matrix, the same objective the optimizer would see)."""
    n = x.size
    X = np.zeros((n, p))
    for i in range(1, p + 1):
        X[i:, i - 1] = x[:-i]
    coef, _, _, _ = np.linalg.lstsq(X, x, rcond=None)
    return coef


_ONE = np.ones(1)


@functools.lru_cache(maxsize=8)
def _neg_log(n: int):
    """z -> -log(1-B) z on n points: the causal convolution by the first n
    coefficients (0, 1, 1/2, ..., 1/(n-1)), which every fit of length n
    shares, so their spectrum is kept (see causal_convolver)."""
    return causal_convolver(np.concatenate(([0.0], 1.0 / np.arange(1, n))))


def _fill_jacobian(jac: np.ndarray, buf: np.ndarray, y: np.ndarray, z: np.ndarray,
                   p: int, ma: np.ndarray) -> None:
    """Write into jac, zeros below its lag bands, the rows -dz/d(d, phi,
    theta) of the innovations z = phi(B)/theta(B) y, y = (1-B)**d x, under
    the zero presample, where ma is theta(B); the d row comes first when
    jac has p + q + 1 rows. They are lagged copies of y/theta(B) for phi
    and of z/theta(B) for theta, and for d the lagged sum
    sum_{j>=1} z_{t-j}/j = -log(1-B) z, exact because truncated
    lower-triangular Toeplitz operators commute. With both bands, y and z
    are copied into buf, a 2 x n array, and filtered by one linear_filter
    call; with q = 0 the filter is the identity and is not called."""
    q = ma.size - 1
    o = jac.shape[0] - p - q
    if o:
        jac[0] = _neg_log(z.size)(z)
    if q and p:
        buf[0], buf[1] = y, z
        y, z = linear_filter(_ONE, ma, buf)
    elif q:
        z = linear_filter(_ONE, ma, z)
    for first, row, lags in ((o, y, p), (o + p, z, q)):
        for i in range(1, lags + 1):
            jac[first + i - 1, i:] = row[:-i]


def _css_fit(x: np.ndarray, p: int, q: int, start=None, fracdiff=None):
    """Minimise the conditional sum of squared innovations (CSS) of
    z = phi(B)(1-B)**d/theta(B) x.

    The parameters are (phi, theta) with d = 0 or, given fracdiff =
    fracdiff_of(x), (d, phi, theta) with d projected onto [0, _ARFIMA_D_CAP].
    With d fixed, pure AR cells are solved exactly by least squares.
    Otherwise Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 1963)
    runs from start (zero when None; a start with a non-finite CSS falls
    back to zero coefficients at its d) on the Jacobian of _fill_jacobian,
    whose phi and theta rows come from one filter call on the stacked
    series y and z. Each step
    solves (J'J + lam diag(J'J)) s = J'z and is taken only if the CSS comes
    out finite and lower; otherwise lam grows tenfold, the damped diagonal
    is rewritten in place and the step is retried.
    A d on a bound whose gradient points outward is held for that step and
    left out of the gradient test; a fit with no free parameter left ends.
    The fit stops when max|grad CSS| <= 1e-5, when an accepted step moves
    the cell's AICc by at most 0.01 (n (f - f_new) / f_new <= 0.01), after
    200 steps, or when no damping gives a lower CSS. The steps are not
    constrained to the causal and invertible region, so the fit returns the
    last admissible point of its path, which is also its lowest-CSS
    admissible one (the final point when none is). The cells of one fit
    share fracdiff, so that x is transformed once per fit. Returns (params,
    css, admissible).
    """
    free_d = fracdiff is not None
    if not free_d and q == 0:
        phi = _ols_ar(x, p)
        z = innovations(x, phi, np.zeros(0))
        return phi, float(z @ z), admissible(phi, np.zeros(0))

    n, o = x.size, int(free_d)
    k = o + p + q
    ar, ma = np.ones(p + 1), np.ones(q + 1)  # phi(B) and theta(B) at the trial point

    def innovations_at(params):
        y = fracdiff(params[0]) if free_d else x
        np.negative(params[o : o + p], out=ar[1:])
        ma[1:] = params[o + p :]
        return y, linear_filter(ar, ma, y)

    lam = _LM_LAMBDA0
    with np.errstate(over="ignore", invalid="ignore"):
        params = np.zeros(k) if start is None else np.array(start, dtype=float)
        y, z = innovations_at(params)
        f = float(z @ z)
        if not np.isfinite(f):
            params[o:] = 0.0
            y, z = innovations_at(params)
            f = float(z @ z)
        path = [(params, f)]
        jac, buf = np.zeros((k, n)), np.empty((2, n))
        for _ in range(_LM_MAXITER):
            _fill_jacobian(jac, buf, y, z, p, ma)
            g = jac @ z  # -grad(CSS) / 2
            d = params[0]  # held this step when on a bound with g pointing out
            s = int(free_d and (d <= 0.0 and g[0] < 0 or d >= _ARFIMA_D_CAP and g[0] > 0))
            if s == k:
                break
            if s:
                g = g[s:]
            gmax = float(np.abs(g).max())
            if not math.isfinite(gmax) or 2.0 * gmax <= _LM_GTOL:
                break
            h = jac @ jac.T
            if s:
                h = h[s:, s:].copy()
            diag = h.ravel()[:: h.shape[0] + 1]  # a view: h is C-contiguous
            hdiag = diag.copy()
            # an all-zero Jacobian row would leave the damped system singular
            scale = np.where(hdiag > 0, hdiag, 1.0)
            while lam <= _LM_LAMBDA_MAX:
                diag[:] = hdiag + lam * scale
                trial = params.copy()
                trial[s:] += solve(h, g)
                if free_d:
                    trial[0] = min(max(trial[0], 0.0), _ARFIMA_D_CAP)
                y_new, z_new = innovations_at(trial)
                f_new = float(z_new @ z_new)
                if f_new < f:
                    break
                lam *= 10.0
            else:
                break
            done = n * (f - f_new) <= _LM_AICC_TOL * f_new
            params, y, z, f = trial, y_new, z_new, f_new
            path.append((params, f))
            lam /= 10.0
            if done:
                break
        # the order search keeps only admissible fits, so return the last,
        # lowest-CSS, admissible point of the path
        for point, css in reversed(path):
            if admissible(point[o : o + p], point[o + p :]):
                return point, css, True
    return params, f, False


def _gaussian_loglik(css: float, n: int) -> float:
    s2 = css / n
    if s2 <= 0:
        return float("nan")
    return -0.5 * n * (np.log(2.0 * np.pi * s2) + 1.0)


def aicc(loglik: float, n: int, p: int, q: int, extra_params: int = 0) -> float:
    """Corrected Akaike criterion with p + q + 1 + extra_params parameters."""
    denom = n - p - q - 2 - extra_params
    if denom <= 0:
        raise DegenerateSampleSize(f"n={n} too small for p={p}, q={q}")
    return -2.0 * loglik + 2.0 * (p + q + 1 + extra_params) * n / denom


def _aicc_or_nan(loglik: float, n: int, p: int, q: int, extra_params: int = 0) -> float:
    if not np.isfinite(loglik) or n - p - q - 2 - extra_params <= 0:
        return float("nan")
    return aicc(loglik, n, p, q, extra_params)


def _search_orders(cell, n: int, max_p: int, max_q: int, extra: int, name: str):
    """Exhaustive AICc search over the (p, q) grid up to the bounds.

    cell(p, q) fits one cell on n effective observations and returns
    (phi, theta, d, css, admissible); it is called row by row, q fastest.
    Cells whose AICc denominator n - p - q - 2 - extra is not positive are
    skipped, non-finite or inadmissible fits are rejected, and AICc ties
    break toward fewer parameters, then fewer AR terms. Returns the
    winner's (p, q, phi, theta, d, css, loglik, aicc).
    """
    best = None
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if n - p - q - 2 - extra <= 0:
                continue
            phi, theta, d, css, ok = cell(p, q)
            if css <= 0 or not np.isfinite(css) or not ok:
                continue
            ll = _gaussian_loglik(css, n)
            crit = aicc(ll, n, p, q, extra_params=extra)
            key = (crit, p + q, p)
            if best is None or key < best[0]:
                best = (key, (p, q, phi, theta, d, css, ll, crit))
    if best is None:
        raise NoAdmissibleModel(f"no causal and invertible {name} candidate")
    return best[1]


def _arma_cells(x: np.ndarray):
    """cell(p, q) for _search_orders on x, already differenced, with d = 0:
    each MA cell warm-starts from the previous q in its row."""
    prev = np.zeros(0)

    def cell(p, q):
        nonlocal prev
        prev, css, ok = _css_fit(x, p, q, np.append(prev, 0.0) if q else None)
        return prev[:p], prev[p:], 0.0, css, ok

    return cell


def _arfima_cells(x: np.ndarray):
    """cell(p, q) for _search_orders fitting (d, phi, theta) jointly on x.

    The (0, 0) cell's CSS is closed-form at each _ARFIMA_D_GRID value, and
    its best grid d starts every cell. A pure AR cell starts from the
    least-squares phi at that d. An MA cell runs from two starts, the
    previous q in its row with a zero appended and zero coefficients at the
    start d, and keeps the admissible fit with the lower CSS. The grid and
    every cell share one fracdiff_of(x), so x is transformed once.
    """
    fracdiff = fracdiff_of(x)
    y0, d0 = min(((fracdiff(d), d) for d in _ARFIMA_D_GRID),
                 key=lambda yd: float(yd[0] @ yd[0]))
    prev = np.zeros(0)

    def cell(p, q):
        nonlocal prev
        if q:
            starts = (np.append(prev, 0.0), np.concatenate(([d0], np.zeros(p + q))))
        else:
            starts = (np.concatenate(([d0], _ols_ar(y0, p))),)
        prev, css, ok = min((_css_fit(x, p, q, start, fracdiff)
                              for start in starts),
                            key=lambda fit: (not fit[2], fit[1]))
        return prev[1 : p + 1], prev[p + 1 :], float(prev[0]), css, ok

    return cell


# ---------------------------------------------------------------------------
# model fitting


def _fitted(series: TimeSeries, spec: ModelSpec, mean: float, sigma2: float,
            loglik: float, crit: float, phi=None, theta=None) -> FittedModel:
    """A fit on series as a FittedModel; the series gives the transform,
    the length n and the history, its read-only values. Without phi or
    theta the model has no AR or MA terms."""
    return FittedModel(
        spec=spec,
        phi=np.zeros(0) if phi is None else phi,
        theta=np.zeros(0) if theta is None else theta,
        mean=mean,
        sigma2=sigma2,
        aicc=crit,
        loglik=loglik,
        transform=series.transform,
        n=len(series),
        history=series.values,
    )


def fit_naive(series: TimeSeries) -> FittedModel:
    """Last-observed-value forecaster.

    Residuals are the first differences and sigma2 their sample variance,
    which is the innovation variance of the implied random walk.
    """
    n = len(series)
    if n < 2:
        raise SeriesTooShort("naive model needs at least 2 observations")
    x = series.values
    resid = np.diff(x)
    sigma2 = float(resid.var(ddof=1)) if resid.size > 1 else 0.0
    ll = _gaussian_loglik(float(resid @ resid), resid.size)
    crit = _aicc_or_nan(ll, resid.size, 0, 0)
    return _fitted(series, ModelSpec(NAIVE), float(x[-1]), sigma2, ll, crit)


def fit_mean(series: TimeSeries) -> FittedModel:
    """Constant forecaster at the sample mean of the window."""
    n = len(series)
    if n < 2:
        raise SeriesTooShort("mean model needs at least 2 observations")
    x = series.values
    mu = float(x.mean())
    resid = x - mu
    ll = _gaussian_loglik(float(resid @ resid), n)
    crit = _aicc_or_nan(ll, n, 0, 0, extra_params=1)
    return _fitted(series, ModelSpec(MEAN), mu, float(resid.var(ddof=1)), ll, crit)


def fit_arima(
    series: TimeSeries, max_p: int = 5, max_q: int = 5, max_d: int = 2
) -> FittedModel:
    """Fit an ARIMA(p, d, q) by CSS with AICc order selection.

    d is the smallest order in 0..max_d whose differenced series the
    Dickey-Fuller test declares stationary (falling back to max_d when none
    does). The (p, q) grid is searched exhaustively; inadmissible fits are
    discarded and ties break toward smaller orders. A mean is estimated
    only when ModelSpec.include_mean says so, that is for d = 0.
    """
    n = len(series)
    if n < 30:
        raise SeriesTooShort("ARIMA fitting needs at least 30 observations")
    if max_p < 0 or max_q < 0 or max_d < 0 or max_d > 2:
        raise MalformedInput("bad order bounds")
    for d in range(max_d + 1):
        wd = np.diff(series.values, n=d)
        if adf_test(TimeSeries(wd)).stationary_at_5pct:
            break
    include_mean = ModelSpec(ARIMA, d=d).include_mean
    mu = float(wd.mean()) if include_mean else 0.0
    x = wd - mu
    n_eff = x.size

    p, q, phi, theta, _, css, ll, crit = _search_orders(
        _arma_cells(x), n_eff, max_p, max_q, int(include_mean), "ARIMA"
    )
    spec = ModelSpec(ARIMA, p=p, d=d, q=q)
    return _fitted(series, spec, mu, css / n_eff, ll, crit, phi, theta)


def fit_arfima(series: TimeSeries, max_p: int = 2, max_q: int = 2) -> FittedModel:
    """Fit a fractionally integrated ARMA by CSS.

    The series mean is estimated by the sample mean and subtracted; for each
    (p, q) up to the bounds, the differencing exponent d in [0, 0.4999] is
    fitted jointly with the ARMA coefficients by one Levenberg-Marquardt
    solve per start (see _arfima_cells). Cells compete on AICc with d and
    the mean counted as parameters.
    """
    n = len(series)
    if n < 64:
        raise SeriesTooShort("fractional fitting needs at least 64 observations")
    if max_p < 0 or max_q < 0:
        raise MalformedInput("bad order bounds")
    mu = float(series.values.mean())
    p, q, phi, theta, d_hat, css, ll, crit = _search_orders(
        _arfima_cells(series.values - mu), n, max_p, max_q, 2, "fractional"
    )
    spec = ModelSpec(ARFIMA, p=p, d=d_hat, q=q)
    return _fitted(series, spec, mu, css / n, ll, crit, phi, theta)


_FITTERS = {
    NAIVE: (fit_naive, ()),
    MEAN: (fit_mean, ()),
    ARIMA: (fit_arima, ("max_p", "max_q", "max_d")),
    ARFIMA: (fit_arfima, ("max_p", "max_q")),
}


def fit(
    series: TimeSeries,
    family: str,
    max_p: int | None = None,
    max_q: int | None = None,
    max_d: int | None = None,
) -> FittedModel:
    """Fit one model family with its fitter's default order bounds.

    A bound that is given replaces the default of a family that takes it;
    bounds a family does not take (all of them for naive and mean, max_d
    for the fractional model) are ignored.
    """
    if family not in _FITTERS:
        raise MalformedInput(f"unknown model family {family!r}")
    fitter, takes = _FITTERS[family]
    given = {"max_p": max_p, "max_q": max_q, "max_d": max_d}
    return fitter(series, **{k: given[k] for k in takes if given[k] is not None})


# ---------------------------------------------------------------------------
# forecasting


def forecast(model: FittedModel, h: int, level: float = 0.95) -> ForecastResult:
    """Forecast h steps ahead with symmetric Gaussian intervals on the
    fitting scale, mapped back through the model's transform.

    The ARIMA/ARFIMA forecasts filter the whole history into innovations by
    phi(B)(1-B)**d/theta(B) and invert that filter over them followed by h
    zeros; the inverse's impulse response gives the weights psi, and the
    per-horizon variance is sigma2 times their cumulative sum of squares.
    With a log transform the mapped-back bounds are asymmetric and strictly
    positive. A horizon whose arrays numpy cannot address or allocate
    raises MalformedInput naming it.
    """
    if h < 1:
        raise MalformedInput("horizon must be >= 1")
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level {level} outside (0, 1)")
    try:
        return _forecast(model, h, level)
    except (MemoryError, ValueError) as exc:  # numpy refusing h-length arrays
        raise MalformedInput(f"horizon {h} is too long to forecast: {exc}") from None


def _forecast(model: FittedModel, h: int, level: float) -> ForecastResult:
    # the normal quantile; scipy.stats.norm.ppf returns this value after
    # about 85 us of argument handling per call
    z = float(ndtri(0.5 + level / 2.0))
    fam = model.spec.family

    if fam == NAIVE:
        point = np.full(h, model.history[-1])
        var = model.sigma2 * np.arange(1, h + 1, dtype=float)
        psi = np.ones(h)
    elif fam == MEAN:
        point = np.full(h, model.mean)
        var = np.full(h, model.sigma2 * (1.0 + 1.0 / model.n))
        psi = np.zeros(h)
        psi[0] = 1.0
    else:
        # For d >= 1 the operator annihilates a constant, so centring at the
        # history mean changes nothing analytically but keeps the absolute
        # level out of the filtered values and their rounding error.
        center = model.mean if model.spec.include_mean else float(model.history.mean())
        op = (model.phi, model.theta, model.spec.d)
        e = innovations(model.history - center, *op)
        point = integrate(np.concatenate([e, np.zeros(h)]), *op)[e.size :] + center
        psi = integrate(np.eye(1, h)[0], *op)  # impulse response
        var = model.sigma2 * np.cumsum(psi**2)

    half = z * np.sqrt(var)
    lower, upper = point - half, point + half
    if model.transform is not None:
        lam = model.transform.lmbda
        point = inv_boxcox(point, lam)
        lower = inv_boxcox(lower, lam)
        upper = inv_boxcox(upper, lam)
    return ForecastResult(
        horizons=np.arange(1, h + 1),
        point=point,
        lower=lower,
        upper=upper,
        psi=psi,
        scale_sigma2=var,
    )


def rebind(model: FittedModel, series: TimeSeries) -> FittedModel:
    """Re-anchor a fitted model to a new history.

    ARIMA/ARFIMA models keep their coefficients, mean, innovation variance
    and criteria and swap in the new history, from which their residuals
    follow. The naive and mean families are re-fit, since their level is a
    statistic of the history itself. The series must be on the model's
    fitting scale.
    """
    if series.transform != model.transform:
        raise MalformedInput("series transform does not match the model's")
    fam = model.spec.family
    if fam in (NAIVE, MEAN):
        return fit(series, fam)
    return dataclasses.replace(model, n=len(series), history=series.values)
