"""Time-series container, CSV ingestion, Box-Cox transforms and the sample
autocorrelation function."""

from __future__ import annotations

import csv
import dataclasses
import itertools
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
    ZeroVariance,
)

CSV_HEADER = ("timestamp", "value")
# records read and converted at a time: few enough that their row lists do
# not on their own reach the cyclic collector's default first-generation
# threshold (700), which would make each chunk trigger a collection
_CHUNK_RECORDS = 256


@dataclass(frozen=True)
class TransformSpec:
    """A Box-Cox transform; lmbda=0 selects the natural log. On a series or
    a model it is the scale the values are on; in a CvConfig it is the
    transform to apply."""

    lmbda: float = 0.0


@dataclass(frozen=True)
class TimeSeries:
    """Regularly sampled observations on a gap-free grid.

    values is an immutable float64 array. start_time is the epoch timestamp
    (seconds) of the first observation and interval the sampling period in
    seconds, both finite. transform is the Box-Cox transform the values are
    on, or None for raw data.
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
        if not 0 < self.interval < math.inf:
            raise MalformedInput(f"sampling interval must be finite and positive, "
                                 f"got {self.interval}")
        if not math.isfinite(self.start_time):
            raise MalformedInput(f"start time must be finite, got {self.start_time}")
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


def _is_blank(row: list) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _columns(chunk: list):
    """The 2 x m float array of timestamps and values of the m data records
    in chunk, or None when a record is neither blank nor two finite numbers."""
    rows = [row for row in chunk if len(row) == 2]
    if len(rows) < len(chunk) and not all(_is_blank(row) for row in chunk if len(row) != 2):
        return None
    try:
        # every timestamp, then every value
        cols = np.fromiter(map(float, itertools.chain(*zip(*rows))), float, 2 * len(rows))
    except ValueError:
        return None
    cols = cols.reshape(2, len(rows))
    return cols if np.isfinite(cols).all() else None


def _bad_record(path, chunk: list, lineno: int) -> MalformedInput:
    """The error of the first record in chunk, numbered from lineno, that is
    neither blank nor two finite numbers; called only once one is known to
    exist."""
    for lineno, row in enumerate(chunk, start=lineno):
        if _is_blank(row):
            continue
        if len(row) != 2:
            return MalformedInput(f"{path}:{lineno}: expected 2 columns")
        try:
            t, v = float(row[0]), float(row[1])
        except ValueError as exc:
            return MalformedInput(f"{path}:{lineno}: {exc}")
        if not math.isfinite(t):
            return MalformedInput(f"{path}:{lineno}: non-finite timestamp {row[0]!r}")
        if not math.isfinite(v):
            return MalformedInput(f"{path}:{lineno}: non-finite value {row[1]!r}")
    raise AssertionError("no bad record")


def _records(path, first: int, count: int) -> list:
    """(line number, row) of count data records of path from the first-th
    on, found by reading it again: only an error message needs them."""
    with open(path, newline="") as fh:
        records = ((lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
                   if lineno > 1 and not _is_blank(row))
        return list(itertools.islice(records, first, first + count))


def _fill_too_long(path, total: int, ts: np.ndarray, gaps: np.ndarray, limit: str):
    at = float(ts[int(np.argmax(gaps)) + 1])
    return IrregularGrid(f"{path}: filling the gaps takes {total} points, more than "
                         f"{limit} (largest gap at t={at})")


def ingest_csv(path, interval_hint=None, fill=None) -> TimeSeries:
    """Read a `timestamp,value` CSV into a gap-free TimeSeries labelled
    with the file stem.

    The rows are split by csv.reader and their fields converted by
    float(), and the checks and the gap fill run on whole columns. An error
    names the first offending row or gap in file order, by its record
    number (the header is line 1).

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
        A fill whose total length an index cannot count, or for which
        memory cannot be allocated, is an IrregularGrid naming that length
        and the timestamp that ends the largest gap.

    Raises
    ------
    EmptyInput, MalformedInput, NonPositiveValue, IrregularGrid
    """
    if fill not in (None, "locf"):
        raise MalformedInput(f"unknown fill policy {fill!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path}: empty file")
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise MalformedInput(f"{path}: expected header 'timestamp,value'")
        # records are read and converted in chunks, so that their text is
        # never all held at once; record numbers start after the header
        parts, lineno = [np.empty((2, 0))], 2
        for chunk in iter(lambda: list(itertools.islice(reader, _CHUNK_RECORDS)), []):
            cols = _columns(chunk)
            if cols is None:
                raise _bad_record(path, chunk, lineno)
            parts.append(cols)
            lineno += len(chunk)
    ts, vs = np.concatenate(parts, axis=1)
    if not ts.size:
        raise EmptyInput(f"{path}: no data rows")
    if np.any(vs <= 0):
        (lineno, row), = _records(path, int(np.argmax(vs <= 0)), 1)
        raise NonPositiveValue(f"{path}:{lineno}: response times must be positive, "
                               f"got {row[1]!r}")
    # as Python floats would: a difference or quotient that overflows is inf
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(ts)
    if np.any(gaps <= 0):
        (_, before), (lineno, row) = _records(path, int(np.argmax(gaps <= 0)), 2)
        raise IrregularGrid(f"{path}:{lineno}: timestamps must be strictly increasing, "
                            f"got {row[0]!r} after {before[0]!r}")

    if interval_hint is not None:
        interval = float(interval_hint)
        if not 0.0 < interval < math.inf:
            raise MalformedInput("interval_hint must be finite and positive")
    elif ts.size > 1:
        diffs, counts = np.unique(gaps, return_counts=True)
        interval = float(diffs[np.argmax(counts)])
    else:
        interval = 1.0

    # a gap may miss a whole number of intervals by 1e-9 of itself, or by
    # the rounding error of timestamps as large as these
    rel_tol = 1e-9 + 4.0 * sys.float_info.epsilon * float(np.abs(ts).max()) / interval
    with np.errstate(over="ignore", invalid="ignore"):
        steps = gaps / interval
        k = np.rint(steps)  # half to even, as round()
        too_many = ~(steps < sys.maxsize)  # inf too; a fill must fit in an index
        not_multiple = (k < 1) | (np.abs(steps - k) > rel_tol * np.maximum(1.0, np.abs(steps)))
    no_policy = (k > 1) & (fill != "locf")
    bad = too_many | not_multiple | no_policy
    if bad.any():
        i = int(np.argmax(bad))
        gap, at = float(gaps[i]), float(ts[i + 1])
        if too_many[i]:
            raise IrregularGrid(f"{path}: gap of {gap}s at t={at} spans too "
                                f"many intervals of {interval}s to fill")
        if not_multiple[i]:
            raise IrregularGrid(f"{path}: gap of {gap}s at t={at} is not a multiple of {interval}s")
        raise IrregularGrid(f"{path}: gap of {int(k[i])} intervals at t={at} (no fill policy)")

    # each observation is carried over the intervals up to the next one
    repeats = np.append(k, 1.0).astype(np.int64)
    total = sum(repeats.tolist())  # exact: each count fits an index, their sum may not
    if total > sys.maxsize:
        raise _fill_too_long(path, total, ts, gaps, "an index can count")
    try:
        values = np.repeat(vs, repeats)
    except MemoryError:
        raise _fill_too_long(path, total, ts, gaps, "memory can hold") from None

    label = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return TimeSeries(values, start_time=float(ts[0]), interval=interval, label=label)


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
    """Box-Cox transform: log for lmbda=0, else (y**lmbda - 1) / lmbda.
    Every lmbda needs positive values; any other is a NonPositiveValue."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise NonPositiveValue("Box-Cox transform requires positive values")
    if lmbda == 0.0:
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
    return dataclasses.replace(series, values=w, transform=spec)


def inverse_transform(series: TimeSeries) -> TimeSeries:
    """Undo the transform recorded on the series, returning raw values."""
    spec = series.transform
    if spec is None:
        raise MalformedInput("series carries no transform")
    raw = inv_boxcox(series.values, spec.lmbda)
    return dataclasses.replace(series, values=raw, transform=None)


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
