"""Forecasting models for response-time series.

Four families: last-value (naive), window mean, ARIMA, and fractionally
integrated ARIMA. ARIMA picks its integer differencing order with the
Dickey-Fuller test and its ARMA orders by the corrected AIC over a grid;
the fractional model estimates the differencing exponent d jointly with
the ARMA coefficients by minimising the conditional sum of squared
innovations. Forecasts come with Gaussian prediction intervals computed on
the (optionally Box-Cox transformed) fitting scale and mapped back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import fftconvolve, lfilter
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
from .series import TimeSeries, TransformSpec, inv_boxcox

NAIVE = "naive"
MEAN = "mean"
ARIMA = "arima"
ARFIMA = "arfima"
FAMILIES = (NAIVE, MEAN, ARIMA, ARFIMA)

# Largest differencing exponent accepted by the fractional operator. Values
# up to 2 cover the integer orders the ARIMA path needs.
_D_MAX = 2.0
_ARFIMA_D_CAP = 0.4999
_ROOT_TOL = 1e-6
_COMMON_ROOT_TOL = 0.05


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
class FracDiffCoeffs:
    """Series expansions of (1-B)**d (pi) and (1-B)**(-d) (eta)."""

    d: float
    pi: np.ndarray
    eta: np.ndarray


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
# fractional differencing


def _fracdiff_weights(d: float, length: int) -> np.ndarray:
    """Coefficients of (1-B)**d via pi_j = pi_{j-1} * (j-1-d) / j."""
    if length == 1:
        return np.ones(1)
    j = np.arange(1, length)
    return np.concatenate(([1.0], np.cumprod((j - 1 - d) / j)))


def frac_diff_coeffs(d: float, length: int) -> FracDiffCoeffs:
    """Expansion coefficients of the differencing operator and its inverse.

    Both are generated by ratio recursions rather than Gamma-function
    quotients, which keeps them exact for integer d and overflow-free for
    long expansions.
    """
    if not -1.0 < d <= _D_MAX:
        raise InvalidD(f"d={d} outside (-1, {_D_MAX}]")
    if length < 1:
        raise MalformedInput("length must be >= 1")
    return FracDiffCoeffs(
        d=d, pi=_fracdiff_weights(d, length), eta=_fracdiff_weights(-d, length)
    )


def _apply_fracdiff(x: np.ndarray, d: float) -> np.ndarray:
    """y_t = sum_{j<=t} pi_j x_{t-j}, truncating at the available history."""
    n = x.size
    w = _fracdiff_weights(d, n)
    if n <= 512:
        return np.convolve(w, x)[:n]
    return fftconvolve(w, x)[:n]


def frac_difference(series: TimeSeries, d: float) -> TimeSeries:
    """Fractionally difference a series; output has the input's length."""
    if not -1.0 < d <= _D_MAX:
        raise InvalidD(f"d={d} outside (-1, {_D_MAX}]")
    out = _apply_fracdiff(series.values, d)
    return dataclasses.replace(series, values=out)


# ---------------------------------------------------------------------------
# conditional-sum-of-squares estimation


def _arpoly(phi) -> np.ndarray:
    return np.concatenate(([1.0], -np.asarray(phi, dtype=float)))


def _mapoly(theta) -> np.ndarray:
    return np.concatenate(([1.0], np.asarray(theta, dtype=float)))


def _innovations(x: np.ndarray, phi, theta) -> np.ndarray:
    """One-step innovations of the ARMA recursion with a zero presample."""
    return lfilter(_arpoly(phi), _mapoly(theta), x)


def _admissible(phi, theta) -> bool:
    """Causality and invertibility: both polynomial root sets outside the
    unit circle, and no (near-)common root between them, since a shared
    factor cancels and leaves the parameterisation unidentified."""
    root_sets = []
    for poly in (_arpoly(phi), _mapoly(theta)):
        if poly.size > 1:
            roots = np.roots(poly[::-1])
            if roots.size and np.min(np.abs(roots)) <= 1.0 + _ROOT_TOL:
                return False
            root_sets.append(roots)
        else:
            root_sets.append(np.zeros(0))
    ar_roots, ma_roots = root_sets
    if ar_roots.size and ma_roots.size:
        dist = np.abs(ar_roots[:, None] - ma_roots[None, :])
        if dist.min() < _COMMON_ROOT_TOL:
            return False
    return True


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

    Pure AR cells are solved exactly by least squares; cells with an MA part
    use L-BFGS from a zero (or warm) start with the analytic gradient of the
    filtering recursion. Returns (phi, theta, css, innovations).
    """
    if p == 0 and q == 0:
        return np.zeros(0), np.zeros(0), float(x @ x), x.copy()
    if q == 0:
        phi = _ols_ar(x, p)
        z = _innovations(x, phi, np.zeros(0))
        return phi, np.zeros(0), float(z @ z), z

    apoly = np.zeros(p + 1)
    apoly[0] = 1.0
    mpoly = np.zeros(q + 1)
    mpoly[0] = 1.0
    one = np.ones(1)

    def objective(params):
        # the optimizer may probe non-invertible theta, where the filter
        # explodes; report a huge value and let it backtrack
        apoly[1:] = -params[:p]
        mpoly[1:] = params[p:]
        z = lfilter(apoly, mpoly, x)
        f = float(z @ z)
        if not np.isfinite(f):
            return 1e300, np.zeros(p + q)
        g = np.empty(p + q)
        if p:
            u = lfilter(one, mpoly, x)
            for i in range(1, p + 1):
                g[i - 1] = -2.0 * float(z[i:] @ u[:-i])
        v = lfilter(one, mpoly, z)
        for j in range(1, q + 1):
            g[p + j - 1] = -2.0 * float(z[j:] @ v[:-j])
        if not np.all(np.isfinite(g)):
            return 1e300, np.zeros(p + q)
        return f, g

    x0 = np.zeros(p + q) if warm is None else np.asarray(warm, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(
            objective, x0, jac=True, method="L-BFGS-B", options={"maxiter": 200}
        )
    phi, theta = res.x[:p].copy(), res.x[p:].copy()
    z = _innovations(x, phi, theta)
    return phi, theta, float(z @ z), z


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
            if css <= 0 or not np.isfinite(css) or not _admissible(phi, theta):
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
    css = float(resid @ resid)
    ll = _gaussian_loglik(css, resid.size)
    crit = _aicc_or_nan(ll, resid.size, 0, 0)
    return FittedModel(
        spec=ModelSpec(NAIVE, include_mean=False),
        phi=np.zeros(0),
        theta=np.zeros(0),
        mean=float(x[-1]),
        sigma2=sigma2,
        residuals=resid,
        aicc=crit,
        loglik=ll,
        transform=series.transform,
        n=n,
        history=series.values.copy(),
    )


def fit_mean(series: TimeSeries) -> FittedModel:
    """Constant forecaster at the sample mean of the window."""
    n = len(series)
    if n < 2:
        raise SeriesTooShort("mean model needs at least 2 observations")
    x = series.values
    mu = float(x.mean())
    resid = x - mu
    sigma2 = float(resid.var(ddof=1)) if n > 1 else 0.0
    css = float(resid @ resid)
    ll = _gaussian_loglik(css, n)
    crit = _aicc_or_nan(ll, n, 0, 0, extra_params=1)
    return FittedModel(
        spec=ModelSpec(MEAN),
        phi=np.zeros(0),
        theta=np.zeros(0),
        mean=mu,
        sigma2=sigma2,
        residuals=resid,
        aicc=crit,
        loglik=ll,
        transform=series.transform,
        n=n,
        history=series.values.copy(),
    )


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
    return FittedModel(
        spec=ModelSpec(ARIMA, p=p, d=d, q=q, include_mean=include_mean),
        phi=phi,
        theta=theta,
        mean=mu,
        sigma2=css / n_eff,
        residuals=z,
        aicc=crit,
        loglik=ll,
        transform=series.transform,
        n=n,
        history=series.values.copy(),
    )


def _fit_arfima_cell(x0: np.ndarray, p: int, q: int, fix_d: float | None):
    """Best d for one (p, q) cell: coarse 0.05 grid, then golden-section
    refinement. The inner ARMA fit warm-starts from the previous candidate
    along the (deterministic) search path."""
    state = {"warm": None}
    cache = {}

    def css_of(d):
        d = float(d)
        if d not in cache:
            y = _apply_fracdiff(x0, d)
            phi, theta, css, _ = _css_fit_arma(y, p, q, warm=state["warm"])
            if phi.size + theta.size:
                state["warm"] = np.concatenate([phi, theta])
            cache[d] = (css, phi, theta)
        return cache[d][0]

    if fix_d is not None:
        d_hat = float(fix_d)
    else:
        grid = np.round(np.arange(0.0, 0.45 + 1e-9, 0.05), 10)
        vals = [css_of(d) for d in grid]
        i = int(np.argmin(vals))
        lo = max(0.0, float(grid[i]) - 0.05)
        hi = min(_ARFIMA_D_CAP, float(grid[i]) + 0.05)
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

    p, q, phi, theta, css, d_hat, ll, crit = _search_orders(
        lambda p, q: _fit_arfima_cell(x0, p, q, fix_d), n, max_p, max_q, 2, "fractional"
    )
    z = _innovations(_apply_fracdiff(x0, d_hat), phi, theta)
    return FittedModel(
        spec=ModelSpec(ARFIMA, p=p, d=d_hat, q=q, include_mean=True),
        phi=phi,
        theta=theta,
        mean=mu,
        sigma2=css / n,
        residuals=z,
        aicc=crit,
        loglik=ll,
        transform=series.transform,
        n=n,
        history=series.values.copy(),
    )


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


def _ar_weights(model: FittedModel, length: int) -> np.ndarray:
    """Autoregressive expansion of phi(B) (1-B)^d / theta(B): the weights
    a_j with X_t = sum_j a_j X_{t-j} + Z_t on the mean-adjusted scale."""
    pi = _fracdiff_weights(model.spec.d, length + 1)
    num = np.convolve(_arpoly(model.phi), pi)
    impulse = np.zeros(length + 1)
    impulse[0] = 1.0
    c = lfilter(num, _mapoly(model.theta), impulse)
    return -c[1:]


def _psi_weights(model: FittedModel, h: int) -> np.ndarray:
    """Moving-average expansion theta(B) (1-B)^(-d) / phi(B), first h terms."""
    eta = _fracdiff_weights(-model.spec.d, h)
    num = np.convolve(_mapoly(model.theta), eta)[:h]
    impulse = np.zeros(h)
    impulse[0] = 1.0
    return lfilter(num, _arpoly(model.phi), impulse)


def forecast(model: FittedModel, h: int, level: float = 0.95) -> ForecastResult:
    """Forecast h steps ahead with symmetric Gaussian intervals on the
    fitting scale, mapped back through the model's transform.

    The ARIMA/ARFIMA point forecasts run the autoregressive expansion of
    the fitted operator recursively over the full available history; the
    per-horizon variance is sigma2 times the cumulative sum of squared
    moving-average weights. With a log transform the mapped-back bounds are
    asymmetric and strictly positive.
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
        # For d >= 1 the AR weights sum to 1, so centring at the history
        # mean changes nothing analytically but stops the truncation error
        # of the expansion from multiplying the absolute level.
        center = model.mean if model.spec.include_mean else float(model.history.mean())
        hist = model.history - center
        nh = hist.size
        a = _ar_weights(model, nh + h)
        ext = np.concatenate([hist, np.zeros(h)])
        for s in range(h):
            t = nh + s
            ext[t] = a[:t] @ ext[t - 1 :: -1]
        point = ext[nh:] + center
        psi = _psi_weights(model, h)
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
        x = _apply_fracdiff(series.values - model.mean, d)
    resid = _innovations(x, model.phi, model.theta)
    return dataclasses.replace(
        model, residuals=resid, n=len(series), history=series.values.copy()
    )
