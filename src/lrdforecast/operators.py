"""Operator primitives shared by the models and the generators.

The AR and MA polynomials phi(B) and theta(B) in ascending powers of the
backshift B, the innovation filter phi(B)(1-B)**d/theta(B) and its inverse,
the causality and invertibility test, the admissibility test (causal,
invertible, no common root), and the fractional differencing operator
(1-B)**d with its expansion coefficients.

Every rational filter goes through linear_filter, which calls the native
direct-form filter behind scipy.signal.lfilter without lfilter's array-API
wrapper. On the 96-point windows of a CSS fit that wrapper costs more than
the filtering itself (scipy 1.17 on a Xeon core: 6.2-6.9 us per lfilter
call against 2.5-2.9 us native). The results are the same bits as
lfilter's.

Each operator has one entry point; (1-B)**d is fracdiff_of. Every
truncated expansion goes through causal_convolver, which holds one
operand of a causal convolution: directly with np.convolve up to 512
points, and above that by keeping the held operand's real FFT, so that a
fit which convolves one fixed series (the data under every trial d, the
-log(1-B) weights of the Jacobian's d row) transforms it once. An
8192-point fractional fit makes about 130 such convolutions; each took
about 0.45 ms as an fftconvolve call, of which 0.13 ms was the transform
of the fixed operand (scipy 1.17, one Xeon core). The results are the
same bits as scipy.signal.fftconvolve's, which multiplies the spectra in
argument order; the swapped product rounds differently (numpy 2.4,
scipy 1.17).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.signal import lfilter

from .errors import InvalidD, MalformedInput
from .series import TimeSeries

try:  # private, so guarded: without it every filter goes through lfilter
    from scipy.signal._sigtools import _linear_filter
except ImportError:
    _linear_filter = None

# Largest differencing exponent accepted by the fractional operator. Values
# up to 2 cover the integer orders the ARIMA path needs.
_D_MAX = 2.0
_ROOT_TOL = 1e-6
_COMMON_ROOT_TOL = 0.05
# longest causal convolution done directly; longer ones go through the FFT
_DIRECT_MAX = 512


@dataclass(frozen=True)
class FracDiffCoeffs:
    """Series expansions of (1-B)**d (pi) and (1-B)**(-d) (eta)."""

    d: float
    pi: np.ndarray
    eta: np.ndarray


# ---------------------------------------------------------------------------
# fractional differencing


def _check_d(d: float) -> None:
    if not -1.0 < d <= _D_MAX:
        raise InvalidD(f"d={d} outside (-1, {_D_MAX}]")


def fracdiff_weights(d: float, length: int) -> np.ndarray:
    """Coefficients of (1-B)**d via pi_j = pi_{j-1} * (j-1-d) / j."""
    j = np.arange(1, length)
    return np.concatenate(([1.0], np.cumprod((j - 1 - d) / j)))


def frac_diff_coeffs(d: float, length: int) -> FracDiffCoeffs:
    """Expansion coefficients of the differencing operator and its inverse.

    Both are generated by ratio recursions rather than Gamma-function
    quotients, which keeps them exact for integer d and overflow-free for
    long expansions.
    """
    _check_d(d)
    if length < 1:
        raise MalformedInput("length must be >= 1")
    return FracDiffCoeffs(
        d=d, pi=fracdiff_weights(d, length), eta=fracdiff_weights(-d, length)
    )


def causal_convolver(held: np.ndarray, first: bool = True):
    """The map b -> y, y_t = sum_{j<=t} u_j v_{t-j} (truncated at b's
    length), for (u, v) = (held, b) when first, else (b, held).

    Up to _DIRECT_MAX points it is np.convolve in that argument order.
    Above, held's real FFT at next_fast_len(2n - 1) is taken once, here,
    and each call transforms only b and multiplies the spectra in argument
    order, first operand's spectrum on the left, as scipy.signal.fftconvolve
    does: the results are its bits, which the swapped product is not.
    """
    n = held.size
    if n <= _DIRECT_MAX:
        if first:
            return lambda b: np.convolve(held, b)[:n]
        return lambda b: np.convolve(b, held)[:n]
    size = next_fast_len(2 * n - 1, real=True)
    spectrum = rfft(held, size)
    if first:
        return lambda b: irfft(spectrum * rfft(b, size), size)[:n]
    return lambda b: irfft(rfft(b, size) * spectrum, size)[:n]


def fracdiff_of(x: np.ndarray):
    """The map d -> (1-B)**d x, y_t = sum_{j<=t} pi_j x_{t-j} truncated at
    the available history, with x's spectrum kept across d."""
    convolve = causal_convolver(x, first=False)
    return lambda d: convolve(fracdiff_weights(d, x.size))


def frac_difference(series: TimeSeries, d: float) -> TimeSeries:
    """Fractionally difference a series; output has the input's length."""
    _check_d(d)
    return dataclasses.replace(series, values=fracdiff_of(series.values)(d))


# ---------------------------------------------------------------------------
# ARMA polynomials and filters


def linear_filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """lfilter(b, a, x) along the last axis with a zero presample, each row
    of a 2-D x filtered on its own. An FIR filter (a.size == 1) goes through
    lfilter, whose np.convolve path the native filter would not reproduce
    bit for bit."""
    if _linear_filter is None or a.size == 1:
        return lfilter(b, a, x)
    return _linear_filter(b, a, x, -1)


def arpoly(phi) -> np.ndarray:
    return np.concatenate(([1.0], -np.asarray(phi, dtype=float)))


def mapoly(theta) -> np.ndarray:
    return np.concatenate(([1.0], np.asarray(theta, dtype=float)))


def _split_d(phi, d: float):
    """phi(B)(1-B)**int(d) and the rest d - int(d): integer orders are filtered
    exactly as unit roots, not by the truncated expansion; a negative d stays
    wholly fractional."""
    ar = arpoly(phi)
    for _ in range(int(d)):
        ar = np.convolve(ar, (1.0, -1.0))
    return ar, d - int(d)


def innovations(x: np.ndarray, phi, theta, d: float = 0.0) -> np.ndarray:
    """One-step innovations phi(B)(1-B)**d/theta(B) x with a zero presample."""
    ar, frac = _split_d(phi, d)
    if frac:
        x = fracdiff_of(x)(frac)
    return linear_filter(ar, mapoly(theta), x)


def integrate(z: np.ndarray, phi, theta, d: float = 0.0) -> np.ndarray:
    """The inverse of innovations: theta(B)(1-B)**(-d)/phi(B) z with a zero
    presample, so integrate(innovations(x, ...), ...) reproduces x."""
    ar, frac = _split_d(phi, d)
    if frac:
        z = fracdiff_of(z)(-frac)
    return linear_filter(mapoly(theta), ar, z)


def roots_outside_unit_circle(poly: np.ndarray) -> bool:
    """Whether every root of poly (ascending powers, poly[0] == 1) lies
    farther than 1 + _ROOT_TOL from the origin. Schur-Cohn step-down test
    on poly(r z), r = 1 + _ROOT_TOL: that holds exactly when every
    reflection coefficient lies inside (-1, 1)."""
    r = 1.0 + _ROOT_TOL
    c = [a * r**j for j, a in enumerate(poly.tolist()[1:], start=1)]
    while c:
        k = c.pop()
        if not abs(k) < 1.0:
            return False
        s = 1.0 - k * k
        c = [(a - k * b) / s for a, b in zip(c, reversed(c))]
    return True


def causal_invertible(phi, theta) -> bool:
    """Causality and invertibility: the roots of phi(B) and of theta(B) all
    lie outside the unit circle."""
    return (roots_outside_unit_circle(arpoly(phi))
            and roots_outside_unit_circle(mapoly(theta)))


def admissible(phi, theta) -> bool:
    """Causality and invertibility, and no (near-)common root between phi(B)
    and theta(B), since a shared factor cancels and leaves the
    parameterisation unidentified."""
    if not causal_invertible(phi, theta):
        return False
    if len(phi) and len(theta):
        # the reciprocal roots come from monic polynomials, so a subnormal top
        # coefficient cannot overflow; |1/a - 1/b| = |a - b| / |a b|
        ra, rm = np.roots(arpoly(phi))[:, None], np.roots(mapoly(theta))[None, :]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dist = np.abs(ra - rm) / np.abs(ra * rm)
        if np.any(dist < _COMMON_ROOT_TOL):
            return False
    return True
