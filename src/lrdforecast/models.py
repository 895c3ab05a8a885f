"""Forecasting models for response-time series.

Four families: last-value (naive), window mean, ARIMA, and fractionally
integrated ARIMA. ARIMA picks its integer differencing order with the
Dickey-Fuller test and its ARMA orders by the corrected AIC over a grid;
the fractional model estimates the differencing exponent d jointly with
the ARMA coefficients by minimising the conditional sum of squared
innovations (CSS). Pure AR cells are solved by least squares; cells with an
MA part by Levenberg-Marquardt on the Jacobian of the innovation filter,
stopping at a gradient below 1e-5, a step that moves the cell's AICc by at
most 0.01, or 200 steps, and keeping the last admissible (causal,
invertible, no common root) point of the path. The fractional search
differences the series once per coarse-grid d and shares those series
across its (p, q) cells. Forecasts invert the fitted innovation filter
phi(B)(1-B)**d/theta(B), with Gaussian prediction intervals computed on the
(optionally Box-Cox transformed) fitting scale and mapped back. The filter,
its inverse and the other operator primitives are in lrdforecast.operators.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.stats import norm

from .errors import (
    DegenerateSampleSize,
    InvalidD,
    InvalidLevel,
    MalformedInput,
    NoAdmissibleModel,
    SeriesTooShort,
)
from .lrd import adf_test
from .operators import admissible, apply_fracdiff, innovations, integrate
from .series import TimeSeries, TransformSpec, inv_boxcox

NAIVE = "naive"
MEAN = "mean"
ARIMA = "arima"
ARFIMA = "arfima"
FAMILIES = (NAIVE, MEAN, ARIMA, ARFIMA)

_ARFIMA_D_CAP = 0.4999
# coarse d grid every ARFIMA cell scans before its golden-section refinement
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
    include_mean: bool = True

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


@dataclass(frozen=True)
class FittedModel:
    spec: ModelSpec
    phi: np.ndarray
    theta: np.ndarray
    mean: float
    sigma2: float
    residuals: np.ndarray
    aicc: float
    loglik: float
    transform: TransformSpec | None
    n: int
    history: np.ndarray  # training values on the fitting scale


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
    level: float


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


def _css_fit_arma(x: np.ndarray, p: int, q: int, warm: np.ndarray | None = None):
    """Minimise the conditional sum of squared innovations over (phi, theta).

    Pure AR cells are solved exactly by least squares. Cells with an MA part
    run Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 1963) from a
    zero or warm start; a warm start with a non-finite CSS falls back to
    zero. The innovations are z = phi(B)/theta(B) x, and the Jacobian rows
    are lagged copies of u = x/theta(B) (for phi) and v = z/theta(B) (for
    theta), the recursions behind the analytic gradient. Each step solves
    (J'J + lam diag(J'J)) s = J'z and is taken only if the CSS comes out
    finite and lower; otherwise lam grows tenfold and the step is retried.
    The fit stops when max|grad CSS| <= 1e-5, when an accepted step moves
    the cell's AICc by at most 0.01 (n (f - f_new) / f_new <= 0.01), after
    200 steps, or when no damping gives a lower CSS. The steps are not
    constrained, so the path may leave the causal and invertible region,
    which the order search rejects; the fit returns the last admissible
    point of its path, which is also its lowest-CSS admissible one (the
    final point when none is). Returns (phi, theta, css, innovations).
    """
    if p == 0 and q == 0:
        return np.zeros(0), np.zeros(0), float(x @ x), x.copy()
    if q == 0:
        phi = _ols_ar(x, p)
        z = innovations(x, phi, np.zeros(0))
        return phi, np.zeros(0), float(z @ z), z

    n, k = x.size, p + q
    apoly = np.zeros(p + 1)
    apoly[0] = 1.0
    mpoly = np.zeros(q + 1)
    mpoly[0] = 1.0
    one = np.ones(1)

    def innovations_at(params):
        apoly[1:] = -params[:p]
        mpoly[1:] = params[p:]
        return lfilter(apoly, mpoly, x)

    jac = np.zeros((k, n))
    lam = _LM_LAMBDA0
    with np.errstate(over="ignore", invalid="ignore"):
        params = np.zeros(k) if warm is None else np.array(warm, dtype=float)
        z = innovations_at(params)
        f = float(z @ z)
        if not np.isfinite(f):
            params = np.zeros(k)
            z = innovations_at(params)
            f = float(z @ z)
        path = [params]
        for _ in range(_LM_MAXITER):
            mpoly[1:] = params[p:]
            if p:
                u = lfilter(one, mpoly, x)
                for i in range(1, p + 1):
                    jac[i - 1, i:] = u[:-i]
            v = lfilter(one, mpoly, z)
            for j in range(1, q + 1):
                jac[p + j - 1, j:] = v[:-j]
            g = jac @ z  # -grad(CSS) / 2
            if not np.all(np.isfinite(g)) or 2.0 * np.max(np.abs(g)) <= _LM_GTOL:
                break
            h = jac @ jac.T
            # an all-zero Jacobian row would leave the damped system singular
            scale = np.diag(h).copy()
            scale[~(scale > 0)] = 1.0
            while lam <= _LM_LAMBDA_MAX:
                trial = params + np.linalg.solve(h + np.diag(lam * scale), g)
                z_new = innovations_at(trial)
                f_new = float(z_new @ z_new)
                if f_new < f:
                    break
                lam *= 10.0
            else:
                break
            done = n * (f - f_new) <= _LM_AICC_TOL * f_new
            params, z, f = trial, z_new, f_new
            path.append(params)
            lam /= 10.0
            if done:
                break
        # the order search keeps only admissible fits, so return the last,
        # lowest-CSS, admissible point of the path
        for point in reversed(path):
            if admissible(point[:p], point[p:]):
                if point is not params:
                    params = point
                    z = innovations_at(params)
                    f = float(z @ z)
                break
    return params[:p].copy(), params[p:].copy(), f, z


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


def _golden_min(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Deterministic golden-section minimiser on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _search_orders(cell, n: int, max_p: int, max_q: int, extra: int, name: str):
    """Exhaustive AICc search over the (p, q) grid up to the bounds.

    cell(p, q) fits one cell on n effective observations and returns
    (phi, theta, css, aux); it is called row by row, q fastest. Cells whose
    AICc denominator n - p - q - 2 - extra is not positive are skipped,
    non-finite or inadmissible fits are rejected, and AICc ties break toward
    fewer parameters, then fewer AR terms. Returns the winner's
    (p, q, phi, theta, css, aux, loglik, aicc).
    """
    best = None
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if n - p - q - 2 - extra <= 0:
                continue
            phi, theta, css, aux = cell(p, q)
            if css <= 0 or not np.isfinite(css) or not admissible(phi, theta):
                continue
            ll = _gaussian_loglik(css, n)
            crit = aicc(ll, n, p, q, extra_params=extra)
            key = (crit, p + q, p)
            if best is None or key < best[0]:
                best = (key, (p, q, phi, theta, css, aux, ll, crit))
    if best is None:
        raise NoAdmissibleModel(f"no causal and invertible {name} candidate")
    return best[1]


# ---------------------------------------------------------------------------
# model fitting


def _fitted(series: TimeSeries, spec: ModelSpec, mean: float, sigma2: float,
            residuals: np.ndarray, loglik: float, crit: float,
            phi=None, theta=None) -> FittedModel:
    """A fit on series as a FittedModel; the series gives the transform,
    the length n and the history. Without phi or theta the model has no AR
    or MA terms."""
    return FittedModel(
        spec=spec,
        phi=np.zeros(0) if phi is None else phi,
        theta=np.zeros(0) if theta is None else theta,
        mean=mean,
        sigma2=sigma2,
        residuals=residuals,
        aicc=crit,
        loglik=loglik,
        transform=series.transform,
        n=len(series),
        history=series.values.copy(),
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
    return _fitted(series, ModelSpec(NAIVE, include_mean=False), float(x[-1]),
                   sigma2, resid, ll, crit)


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
    return _fitted(series, ModelSpec(MEAN), mu, float(resid.var(ddof=1)), resid, ll, crit)


def fit_arima(
    series: TimeSeries, max_p: int = 5, max_q: int = 5, max_d: int = 2
) -> FittedModel:
    """Fit an ARIMA(p, d, q) by CSS with AICc order selection.

    d is the smallest order in 0..max_d whose differenced series the
    Dickey-Fuller test declares stationary (falling back to max_d when none
    does). The (p, q) grid is searched exhaustively; inadmissible fits are
    discarded and ties break toward smaller orders. A mean is estimated
    only for d = 0: differenced models carry no drift.
    """
    n = len(series)
    if n < 30:
        raise SeriesTooShort("ARIMA fitting needs at least 30 observations")
    if max_p < 0 or max_q < 0 or max_d < 0 or max_d > 2:
        raise MalformedInput("bad order bounds")
    w = series.values
    d = None
    for cand in range(0, max_d + 1):
        wd = np.diff(w, n=cand) if cand else w
        if wd.size >= 25 and adf_test(TimeSeries(wd)).stationary_at_5pct:
            d = cand
            break
    if d is None:
        d = max_d
    wd = np.diff(w, n=d) if d else w
    include_mean = d == 0
    mu = float(wd.mean()) if include_mean else 0.0
    x = wd - mu
    n_eff = x.size
    extra = 1 if include_mean else 0

    prev = []

    def cell(p, q):
        # warm-start each MA cell from the previous q in its row
        warm = np.concatenate([*prev, [0.0]]) if q else None
        phi, theta, css, z = _css_fit_arma(x, p, q, warm=warm)
        prev[:] = [phi, theta]
        return phi, theta, css, z

    p, q, phi, theta, css, z, ll, crit = _search_orders(
        cell, n_eff, max_p, max_q, extra, "ARIMA"
    )
    spec = ModelSpec(ARIMA, p=p, d=d, q=q, include_mean=include_mean)
    return _fitted(series, spec, mu, css / n_eff, z, ll, crit, phi, theta)


def _fit_arfima_cell(fracdiff, p: int, q: int, fix_d: float | None):
    """Best d for one (p, q) cell: coarse 0.05 grid, then golden-section
    refinement. fracdiff(d) is the fractionally differenced series. The
    inner ARMA fit warm-starts from the previous candidate along the
    (deterministic) search path."""
    state = {"warm": None}
    cache = {}

    def css_of(d):
        d = float(d)
        if d not in cache:
            phi, theta, css, _ = _css_fit_arma(fracdiff(d), p, q, warm=state["warm"])
            if phi.size + theta.size:
                state["warm"] = np.concatenate([phi, theta])
            cache[d] = (css, phi, theta)
        return cache[d][0]

    if fix_d is not None:
        d_hat = float(fix_d)
    else:
        vals = [css_of(d) for d in _ARFIMA_D_GRID]
        i = int(np.argmin(vals))
        lo = max(0.0, _ARFIMA_D_GRID[i] - 0.05)
        hi = min(_ARFIMA_D_CAP, _ARFIMA_D_GRID[i] + 0.05)
        d_hat = _golden_min(css_of, lo, hi, tol=1e-3)
    css = css_of(d_hat)
    _, phi, theta = cache[float(d_hat)]
    return phi, theta, css, d_hat


def fit_arfima(
    series: TimeSeries, max_p: int = 2, max_q: int = 2, fix_d: float | None = None
) -> FittedModel:
    """Fit a fractionally integrated ARMA by CSS.

    The series mean is estimated by the sample mean and subtracted; for each
    (p, q) up to the bounds, the differencing exponent d in [0, 0.4999] is
    searched jointly with the ARMA coefficients on the fractionally
    differenced series. Cells compete on AICc with d and the mean counted
    as parameters. fix_d pins the exponent instead of searching, which also
    reduces the model to a plain ARMA when fix_d = 0.
    """
    n = len(series)
    if n < 64:
        raise SeriesTooShort("fractional fitting needs at least 64 observations")
    if max_p < 0 or max_q < 0:
        raise MalformedInput("bad order bounds")
    if fix_d is not None and not 0.0 <= fix_d < 0.5:
        raise InvalidD("fix_d must lie in [0, 0.5)")
    w = series.values
    mu = float(w.mean())
    x0 = w - mu
    # the d values every cell evaluates are differenced once for all cells;
    # golden-section points are not kept, they differ from cell to cell
    shared = {
        d: apply_fracdiff(x0, d)
        for d in (_ARFIMA_D_GRID if fix_d is None else (float(fix_d),))
    }

    def fracdiff(d):
        return shared[d] if d in shared else apply_fracdiff(x0, d)

    p, q, phi, theta, css, d_hat, ll, crit = _search_orders(
        lambda p, q: _fit_arfima_cell(fracdiff, p, q, fix_d),
        n, max_p, max_q, 2, "fractional",
    )
    z = innovations(fracdiff(d_hat), phi, theta)
    spec = ModelSpec(ARFIMA, p=p, d=d_hat, q=q, include_mean=True)
    return _fitted(series, spec, mu, css / n, z, ll, crit, phi, theta)


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
    positive.
    """
    if h < 1:
        raise MalformedInput("horizon must be >= 1")
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level {level} outside (0, 1)")
    z = float(norm.ppf(0.5 + level / 2.0))
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
    if model.transform is not None and model.transform.applied:
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
        level=level,
    )


def rebind(model: FittedModel, series: TimeSeries) -> FittedModel:
    """Re-anchor a fitted model to a new history.

    ARIMA/ARFIMA coefficients, innovation variance and criteria are kept;
    residuals are recomputed for the new data. The naive and mean families
    are re-fit, since their level is a statistic of the history itself. The
    series must be on the model's fitting scale.
    """
    if series.transform != model.transform:
        raise MalformedInput("series transform does not match the model's")
    fam = model.spec.family
    if fam in (NAIVE, MEAN):
        return fit(series, fam)
    d = model.spec.d
    if fam == ARIMA:
        wd = np.diff(series.values, n=int(d)) if d else series.values
        x = wd - model.mean
    else:
        x = apply_fracdiff(series.values - model.mean, d)
    resid = innovations(x, model.phi, model.theta)
    return dataclasses.replace(
        model, residuals=resid, n=len(series), history=series.values.copy()
    )
