"""Operator primitives shared by the models and the generators.

The AR and MA polynomials phi(B) and theta(B) in ascending powers of the
backshift B, the innovation filter phi(B)(1-B)**d/theta(B) and its inverse,
the causality and invertibility test, the admissibility test (causal,
invertible, no common root), and the fractional differencing operator
(1-B)**d with its expansion coefficients.

Every filter goes through linear_filter, the damped solves of a CSS fit
through solve and the roots of the common-root test through roots. Each
calls the kernel behind its public counterpart without the public
wrapper, which on the tiny arrays of a 96-point fit costs more than the
kernel. Per call, public against here, over timings taken at different
moments (numpy 2.4, scipy 1.17, one Xeon core):

- lfilter, IIR, 96 points: 4.6-6.9 us against 1.8-2.9 us (scipy's native
  direct-form filter);
- lfilter, FIR, 96 points: 15-16 us against 2.5-5.0 us (np.convolve, as
  lfilter);
- np.linalg.solve, 5 x 5 to 11 x 11: 6.6-11 us against 2.9-5.3 us
  (numpy's LAPACK gufunc solve1);
- np.roots, degree 2 and 3: 21-36 us against 7.5-12 us (numpy's LAPACK
  gufunc eigvals on a companion matrix built here).

The results are the same bits as the public calls'. The private entry
points are imported under guards, and without them the public calls are
made.

The native filter is scipy.signal._sigtools._linear_filter, but importing
scipy.signal runs the whole package's __init__, scipy.stats included:
0.91 s of CPU against 0.36 s for all of lrdforecast.cli (medians of 5
fresh interpreters, Python 3.11, scipy 1.17, one Xeon core). So
_native_filter loads the _sigtools extension from its file under the
directory of the scipy imported, without that __init__. scipy does not
promise that file layout: if the file is missing, does not load or lacks
_linear_filter, every rational filter goes through scipy.signal.lfilter,
imported at the first such call, with the same bits.

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

import cmath
import dataclasses
import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.fft import irfft, next_fast_len, rfft

from .errors import InvalidD, MalformedInput
from .series import TimeSeries


def _native_filter(scipy_dir: str):
    """_linear_filter from the _sigtools extension file in scipy_dir/signal,
    loaded without running scipy.signal's __init__; None when the file is
    missing, does not load or lacks it."""
    name = "scipy.signal._sigtools"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "signal", "_sigtools" + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
    except ImportError:
        return None
    return getattr(module, "_linear_filter", None)


# private, so guarded: without it every rational filter goes through lfilter
_linear_filter = _native_filter(os.path.dirname(scipy.__file__))

# The LAPACK gufuncs behind np.linalg.solve and np.linalg.eigvals. numpy 1.x
# (numpy.linalg.linalg) and 2.x (numpy.linalg._linalg) both import them from
# this extension module; private, so guarded: without them solve and roots
# make the public calls.
try:
    from numpy.linalg._umath_linalg import eigvals as _eigvals
except ImportError:
    _eigvals = None
try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:
    _solve1 = None

# Largest differencing exponent accepted by the public frac_difference and
# frac_diff_coeffs (criterion 3 checks d = 1); fits never check it.
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


@functools.lru_cache(maxsize=8)
def _lags(length: int):
    """j - 1 and j for j = 1 .. length - 1, as read-only float arrays: the
    values numpy casts the integers to, so the weights keep their bits."""
    j = np.arange(1.0, length)
    lags = (j - 1.0, j)
    for a in lags:
        a.flags.writeable = False
    return lags


def fracdiff_weights(d: float, length: int) -> np.ndarray:
    """Coefficients of (1-B)**d via pi_j = pi_{j-1} * (j-1-d) / j."""
    jm1, j = _lags(length)
    return np.concatenate(([1.0], np.cumprod((jm1 - d) / j)))


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
    """lfilter(b, a, x) along the last axis with a zero presample, the same
    bits without lfilter's wrapper. A rational filter calls the native
    filter behind lfilter, and filters each row of a 2-D x on its own. An
    FIR filter (a.size == 1) takes a 1-D x and is lfilter's own
    np.convolve(b / a[0], x), truncated to x's length; the native filter
    would not reproduce those bits."""
    if a.size == 1:
        return np.convolve(b / a[0], x)[:x.size]
    if _linear_filter is None:
        from scipy.signal import lfilter
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


def roots(p: np.ndarray) -> np.ndarray:
    """np.roots(p) for a 1-D float p, the same bits without its wrappers.

    Leading zeros are stripped, the eigenvalues of the companion matrix
    come from the LAPACK gufunc that np.linalg.eigvals calls, they are cast
    to real when every imaginary part is 0, and each stripped trailing zero
    adds a root at 0. A companion matrix that is not finite, which
    np.linalg.eigvals refuses, and eigenvalues that did not converge (NaN,
    with an invalid operation flagged, so call it where those are ignored,
    as admissible does) go to np.roots, which raises LinAlgError for both.
    """
    if _eigvals is None:
        return np.roots(p)
    nonzero = [i for i, c in enumerate(p.tolist()) if c]
    if not nonzero:
        return np.roots(p)
    lead, last = nonzero[0], nonzero[-1]
    if last > lead:
        comp = np.eye(last - lead, k=-1)
        comp[0] = -p[lead + 1 : last + 1] / p[lead]
        if not all(map(math.isfinite, comp[0].tolist())):
            return np.roots(p)
        w = _eigvals(comp, signature="d->D")
        if not all(map(cmath.isfinite, w.tolist())):
            return np.roots(p)
        if not w.imag.any():
            w = w.real
    else:
        w = np.zeros(0)
    trailing = p.size - 1 - last
    return np.concatenate((w, np.zeros(trailing, w.dtype))) if trailing else w


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a square float a and a 1-D float b, the
    same bits through the LAPACK gufunc it calls, without its wrapper. A
    singular a gives NaN and flags an invalid operation, so call it where
    those are ignored; a result that is not finite is solved again by
    np.linalg.solve, which raises LinAlgError for a singular a."""
    if _solve1 is not None:
        x = _solve1(a, b, signature="dd->d")
        if all(map(math.isfinite, x.tolist())):
            return x
    return np.linalg.solve(a, b)


def admissible(phi, theta) -> bool:
    """Causality and invertibility, and no (near-)common root between phi(B)
    and theta(B), since a shared factor cancels and leaves the
    parameterisation unidentified."""
    if not causal_invertible(phi, theta):
        return False
    if len(phi) and len(theta):
        # the reciprocal roots come from monic polynomials, so a subnormal top
        # coefficient cannot overflow; |1/a - 1/b| = |a - b| / |a b|
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ra, rm = roots(arpoly(phi))[:, None], roots(mapoly(theta))[None, :]
            dist = np.abs(ra - rm) / np.abs(ra * rm)
        if np.any(dist < _COMMON_ROOT_TOL):
            return False
    return True
