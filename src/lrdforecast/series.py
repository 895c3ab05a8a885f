"""Time-series container, CSV ingestion, Box-Cox transforms, differencing,
and the sample autocorrelation function."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    IrregularGrid,
    LagTooLarge,
    MalformedInput,
    NonPositiveValue,
    SeriesTooShort,
    ZeroVariance,
)

CSV_HEADER = ("timestamp", "value")


@dataclass(frozen=True)
class TransformSpec:
    """Box-Cox transform parameters. lmbda=0 selects the natural log."""

    lmbda: float = 0.0
    applied: bool = False


@dataclass(frozen=True)
class TimeSeries:
    """Regularly sampled observations on a gap-free grid.

    values is an immutable float64 array. start_time is the epoch timestamp
    (seconds) of the first observation and interval the sampling period in
    seconds. transform records the Box-Cox spec under which the values are
    expressed, or None for raw data.
    """

    values: np.ndarray
    start_time: float = 0.0
    interval: float = 1.0
    label: str = ""
    transform: TransformSpec | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise MalformedInput("values must be one-dimensional")
        if vals.size < 1:
            raise EmptyInput("series needs at least one observation")
        if not np.all(np.isfinite(vals)):
            raise MalformedInput("series contains non-finite values")
        if not (self.interval > 0):
            raise MalformedInput("sampling interval must be positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def timestamps(self) -> np.ndarray:
        return self.start_time + np.arange(self.values.size) * self.interval


@dataclass(frozen=True)
class AcfResult:
    """Sample autocorrelations rho(k) for lags 0..L, with rho(0) = 1."""

    lags: np.ndarray
    rho: np.ndarray
    gamma0: float


def ingest_csv(path, interval_hint=None, fill=None, label=None) -> TimeSeries:
    """Read a `timestamp,value` CSV into a gap-free TimeSeries.

    Parameters
    ----------
    path : str or os.PathLike
        CSV file with header ``timestamp,value``; timestamps are epoch
        seconds and must be strictly increasing, values are positive reals.
    interval_hint : float, optional
        Sampling period in seconds, finite and positive. When absent it is
        inferred as the modal difference of consecutive timestamps. A gap
        of more intervals than an index can count is an IrregularGrid.
    fill : {None, "locf"}
        Gap policy. None rejects any gap; "locf" fills gaps that span a
        whole number of intervals by carrying the last observation forward.
    label : str, optional
        Series label; defaults to the file stem.

    Raises
    ------
    EmptyInput, MalformedInput, NonPositiveValue, IrregularGrid
    """
    if fill not in (None, "locf"):
        raise MalformedInput(f"unknown fill policy {fill!r}")
    ts, vs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path}: empty file")
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise MalformedInput(f"{path}: expected header 'timestamp,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise MalformedInput(f"{path}:{lineno}: expected 2 columns")
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError as exc:
                raise MalformedInput(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(t):
                raise MalformedInput(f"{path}:{lineno}: non-finite timestamp {row[0]!r}")
            if not math.isfinite(v):
                raise MalformedInput(f"{path}:{lineno}: non-finite value {row[1]!r}")
            ts.append(t)
            vs.append(v)
    if not ts:
        raise EmptyInput(f"{path}: no data rows")
    ts = np.asarray(ts)
    vs = np.asarray(vs)
    if np.any(vs <= 0):
        raise NonPositiveValue(f"{path}: response times must be positive")
    if ts.size > 1 and np.any(np.diff(ts) <= 0):
        raise IrregularGrid(f"{path}: timestamps must be strictly increasing")

    if interval_hint is not None:
        interval = float(interval_hint)
        if not 0.0 < interval < math.inf:
            raise MalformedInput("interval_hint must be finite and positive")
    elif ts.size > 1:
        diffs, counts = np.unique(np.diff(ts), return_counts=True)
        interval = float(diffs[np.argmax(counts)])
    else:
        interval = 1.0

    # a gap may miss a whole number of intervals by 1e-9 of itself, or by
    # the rounding error of timestamps as large as these
    rel_tol = 1e-9 + 4.0 * sys.float_info.epsilon * float(np.abs(ts).max()) / interval
    # Python floats, on which a gap / interval that overflows is inf, not a warning
    stamps = ts.tolist()
    values = [vs[0]]
    for i in range(1, len(stamps)):
        gap = stamps[i] - stamps[i - 1]
        steps = gap / interval
        if not steps < sys.maxsize:  # inf too; a fill must fit in an index
            raise IrregularGrid(f"{path}: gap of {gap}s at t={stamps[i]} spans too "
                                f"many intervals of {interval}s to fill")
        k = int(round(steps))
        if k < 1 or abs(steps - k) > rel_tol * max(1.0, abs(steps)):
            raise IrregularGrid(
                f"{path}: gap of {gap}s at t={stamps[i]} is not a multiple of {interval}s"
            )
        if k > 1:
            if fill != "locf":
                raise IrregularGrid(
                    f"{path}: gap of {k} intervals at t={stamps[i]} (no fill policy)"
                )
            values.extend([values[-1]] * (k - 1))
        values.append(vs[i])

    if label is None:
        label = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return TimeSeries(np.asarray(values), start_time=float(ts[0]), interval=interval, label=label)


def write_csv(series: TimeSeries, path) -> None:
    """Write a series in the same `timestamp,value` format ingest_csv reads.

    Values are rendered with 9 significant digits so that an
    ingest/write round trip is bit-identical on the value column. Whole
    timestamps are written as integers, others in the shortest form that
    reads back as the same float, so ingest_csv recovers the grid.
    """
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,value\n")
        for t, v in zip(series.timestamps.tolist(), series.values):
            stamp = int(t) if t.is_integer() else repr(t)
            fh.write(f"{stamp},{v:.9g}\n")


def boxcox(values: np.ndarray, lmbda: float) -> np.ndarray:
    """Box-Cox transform: log for lmbda=0, else (y**lmbda - 1) / lmbda."""
    values = np.asarray(values, dtype=float)
    if lmbda == 0.0:
        if np.any(values <= 0):
            raise NonPositiveValue("log transform requires positive values")
        return np.log(values)
    return (np.power(values, lmbda) - 1.0) / lmbda


def inv_boxcox(values: np.ndarray, lmbda: float) -> np.ndarray:
    """Inverse of :func:`boxcox`."""
    values = np.asarray(values, dtype=float)
    if lmbda == 0.0:
        return np.exp(values)
    return np.power(lmbda * values + 1.0, 1.0 / lmbda)


def transform(series: TimeSeries, spec: TransformSpec) -> TimeSeries:
    """Apply the Box-Cox transform in spec and record it on the result."""
    w = boxcox(series.values, spec.lmbda)
    return dataclasses.replace(
        series, values=w, transform=TransformSpec(spec.lmbda, applied=True)
    )


def inverse_transform(series: TimeSeries) -> TimeSeries:
    """Undo the transform recorded on the series, returning raw values."""
    spec = series.transform
    if spec is None or not spec.applied:
        raise MalformedInput("series carries no applied transform")
    raw = inv_boxcox(series.values, spec.lmbda)
    return dataclasses.replace(series, values=raw, transform=None)


def difference(series: TimeSeries, order: int) -> TimeSeries:
    """Integer differencing (1 - B)**order; order 0 is the identity."""
    if order < 0 or int(order) != order:
        raise MalformedInput("differencing order must be a non-negative integer")
    order = int(order)
    if len(series) <= order:
        raise SeriesTooShort(f"need more than {order} observations to difference")
    out = np.diff(series.values, n=order) if order else series.values.copy()
    return dataclasses.replace(
        series, values=out, start_time=series.start_time + order * series.interval
    )


def acf(series: TimeSeries, max_lag: int) -> AcfResult:
    """Sample ACF with the biased (divide-by-N) autocovariance estimator.

    The 1/N normalisation keeps the autocorrelation sequence positive
    semidefinite, so rho(0) = 1 and |rho(k)| <= 1.
    """
    n = len(series)
    if max_lag < 0:
        raise MalformedInput("max_lag must be non-negative")
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} >= series length {n}")
    x = series.values - series.values.mean()
    gamma0 = float(x @ x) / n
    if gamma0 == 0:
        raise ZeroVariance("autocorrelation undefined for a constant series")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(x[k:] @ x[:-k]) / n / gamma0
    return AcfResult(lags=np.arange(max_lag + 1), rho=rho, gamma0=gamma0)
