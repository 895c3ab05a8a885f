"""Container, ingestion, transform, differencing, and ACF behavior."""

import csv
import math
import os
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrdforecast import series
from lrdforecast import (
    AcfResult,
    EmptyInput,
    IrregularGrid,
    LagTooLarge,
    MalformedInput,
    NonPositiveValue,
    TimeSeries,
    TransformSpec,
    ZeroVariance,
    acf,
    ingest_csv,
    inverse_transform,
    transform,
    write_csv,
)


def _write(tmp_path, rows, header="timestamp,value"):
    path = tmp_path / "series.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def _ingest_by_rows(path, interval_hint=None, fill=None):
    """ingest_csv as a loop over rows and gaps, which the column-wise one
    replaced: the reference for its series and its errors."""
    if fill not in (None, "locf"):
        raise MalformedInput(f"unknown fill policy {fill!r}")
    ts, vs, records = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path}: empty file")
        if tuple(h.strip().lower() for h in header) != ("timestamp", "value"):
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
            records.append((lineno, row))
    if not ts:
        raise EmptyInput(f"{path}: no data rows")
    for (lineno, row), v in zip(records, vs):
        if v <= 0:
            raise NonPositiveValue(f"{path}:{lineno}: response times must be positive, "
                                   f"got {row[1]!r}")
    for (_, before), (lineno, row), t0, t1 in zip(records, records[1:], ts, ts[1:]):
        if t1 - t0 <= 0:
            raise IrregularGrid(f"{path}:{lineno}: timestamps must be strictly increasing, "
                                f"got {row[0]!r} after {before[0]!r}")
    ts = np.asarray(ts)
    vs = np.asarray(vs)
    if interval_hint is not None:
        interval = float(interval_hint)
        if not 0.0 < interval < math.inf:
            raise MalformedInput("interval_hint must be finite and positive")
    elif ts.size > 1:
        diffs, counts = np.unique(np.diff(ts), return_counts=True)
        interval = float(diffs[np.argmax(counts)])
    else:
        interval = 1.0
    rel_tol = 1e-9 + 4.0 * sys.float_info.epsilon * float(np.abs(ts).max()) / interval
    stamps = ts.tolist()
    values = [vs[0]]
    for i in range(1, len(stamps)):
        gap = stamps[i] - stamps[i - 1]
        steps = gap / interval
        if not steps < sys.maxsize:
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
    label = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return TimeSeries(np.asarray(values), start_time=float(ts[0]), interval=interval, label=label)


def _outcome(read, path, **kw):
    try:
        s = read(path, **kw)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return s.values.tobytes(), s.start_time, s.interval, s.label


def _mostly(good, bad, odds=40):
    """good, or bad once in about odds draws."""
    return st.integers(0, odds - 1).flatmap(lambda i: bad if i == 0 else good)


# a step between rows as a multiple of the grid interval: whole gaps of up to
# four intervals and fractional ones, and rarely none, backwards, or one too
# many to count
_STEPS = _mostly(st.sampled_from([1.0] * 6 + [2.0, 3.0, 4.0, 1.5, 2.0000000001]),
                 st.sampled_from([0.0, -1.0, 1e30]))
_VALUES = _mostly(st.one_of(st.floats(1e-3, 1e4).map(repr), st.just("1_000")),
                  st.sampled_from(["0", "-2.5", "nan", "inf", "-inf", "abc", "", "1e400"]))
_CELLS = st.sampled_from(["{}", " {} ", '"{}"', "{:_}"])


@st.composite
def _csv_text(draw):
    interval = draw(st.sampled_from([1.0, 0.1, 60.0, 3600.0]))
    t = draw(st.sampled_from([0.0, 1.5, 1_700_000_000.0, -7200.0]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(_mostly(st.sampled_from(["row"] * 6 + ["blank", "space"]),
                            st.sampled_from(["extra", "short"])))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append("  \t")
        elif kind == "short":
            lines.append(draw(_VALUES))
        else:
            stamp = int(t) if t.is_integer() else t
            cell = draw(_CELLS)
            if cell == "{:_}" and not isinstance(stamp, int):
                cell = "{}"
            row = [cell.format(stamp), draw(_CELLS).replace(":_", "").format(draw(_VALUES))]
            if kind == "extra":
                row.append(draw(_VALUES))
            lines.append(",".join(row))
            t += draw(_STEPS) * interval
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "timestamp,value" + newline + newline.join(lines) + newline


class TestIngest:
    def test_direct_parse(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "7200,125"])
        ts = ingest_csv(path)
        assert ts.interval == 3600
        assert ts.start_time == 0
        np.testing.assert_array_equal(ts.values, [120, 130, 125])

    def test_gap_without_policy_rejected(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "10800,125"])
        with pytest.raises(IrregularGrid):
            ingest_csv(path)

    def test_gap_filled_with_locf(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "10800,125"])
        ts = ingest_csv(path, fill="locf")
        np.testing.assert_array_equal(ts.values, [120, 130, 130, 125])

    def test_fractional_gap_rejected_even_with_locf(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,130", "9000,125"])
        with pytest.raises(IrregularGrid):
            ingest_csv(path, fill="locf")

    def test_nonpositive_value(self, tmp_path):
        path = _write(tmp_path, ["0,120", "3600,0"])
        with pytest.raises(NonPositiveValue):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            ingest_csv(path)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, [])
        with pytest.raises(EmptyInput):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, ["0,1"], header="time,val")
        with pytest.raises(MalformedInput):
            ingest_csv(path)

    def test_decreasing_timestamps(self, tmp_path):
        path = _write(tmp_path, ["3600,120", "0,130"])
        with pytest.raises(IrregularGrid):
            ingest_csv(path)

    def test_nonpositive_and_unordered_rows_are_located(self, tmp_path):
        # blank rows count in the line numbers, and cells are quoted as written
        path = _write(tmp_path, ["0,1", "", "5,2", "6, -2.5 ", "5,3", "4,0"])
        with pytest.raises(NonPositiveValue, match=rf"^{re.escape(str(path))}:5: response "
                                                   r"times must be positive, got ' -2\.5 '$"):
            ingest_csv(path)
        path = _write(tmp_path, ["0,1", "", "5,2", "6,2", "", '" 6",3', "4,3"])
        with pytest.raises(IrregularGrid, match=rf"^{re.escape(str(path))}:7: timestamps "
                                                r"must be strictly increasing, got ' 6' after '6'$"):
            ingest_csv(path)

    def test_interval_hint_overrides_inference(self, tmp_path):
        path = _write(tmp_path, ["0,1", "7200,2"])
        ts = ingest_csv(path, interval_hint=3600, fill="locf")
        assert len(ts) == 3

    @pytest.mark.parametrize("hint", [float("nan"), float("inf"), 0.0, -1.0])
    def test_interval_hint_must_be_finite_and_positive(self, tmp_path, hint):
        path = _write(tmp_path, ["0,1", "3600,2"])
        with pytest.raises(MalformedInput, match="finite and positive"):
            ingest_csv(path, interval_hint=hint)

    @pytest.mark.parametrize("hint, fill", [(1e-310, None), (1e-300, "locf")],
                             ids=["count-overflows", "count-too-large-to-fill"])
    def test_gap_of_too_many_intervals_is_irregular(self, tmp_path, hint, fill):
        # 3600 / 1e-310 is inf, and 3600 / 1e-300 intervals cannot be filled
        path = _write(tmp_path, ["0,1", "3600,2", "7200,3"])
        with pytest.raises(IrregularGrid, match=r"gap of 3600\.0s at t=3600\.0"):
            ingest_csv(path, interval_hint=hint, fill=fill)

    def test_modal_interval_inference(self, tmp_path):
        rows = ["0,1", "60,2", "120,3", "180,4", "360,5"]
        ts = ingest_csv(_write(tmp_path, rows), fill="locf")
        assert ts.interval == 60
        assert len(ts) == 7

    def test_label_defaults_to_stem(self, tmp_path):
        ts = ingest_csv(_write(tmp_path, ["0,1", "60,2"]))
        assert ts.label == "series"

    def test_write_ingest_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = 100.0 * np.exp(rng.standard_normal(50) * 0.3)
        ts = TimeSeries(vals, start_time=0.0, interval=60.0, label="x")
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(ts, p1)
        again = ingest_csv(p1)
        write_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # start_time up to 2e9 s covers epoch timestamps; a write must keep even
    # sub-second grids apart, which integer timestamps did not
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(start=st.integers(0, 2_000_000_000), interval=st.floats(1e-3, 86400.0),
           n=st.integers(2, 40))
    @example(start=0, interval=0.5, n=10)
    @example(start=1_700_000_000, interval=0.1, n=40)
    @example(start=16_777_216, interval=0.001, n=2)
    @example(start=2_000_000_000, interval=0.001, n=40)
    def test_write_ingest_round_trip_fractional_interval(self, tmp_path, start,
                                                         interval, n):
        ts = TimeSeries(np.arange(1.0, n + 1.0), start_time=float(start),
                        interval=interval)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ts, p1)
        back = ingest_csv(p1)
        np.testing.assert_array_equal(back.values, ts.values)
        assert back.start_time == ts.start_time
        # the inferred interval is a difference of two float timestamps, so it
        # carries their rounding error: the grid tolerance ingest_csv uses
        t_max = float(np.abs(ts.timestamps).max())
        rel = 1e-6 + 4.0 * sys.float_info.epsilon * t_max / interval
        assert back.interval == pytest.approx(interval, rel=rel)
        write_csv(back, p2)
        hinted = ingest_csv(p2, interval_hint=interval)
        np.testing.assert_array_equal(hinted.timestamps, ts.timestamps)
        np.testing.assert_array_equal(hinted.values, ts.values)

    @pytest.mark.parametrize("row, what", [
        ("nan,2", "timestamp"), ("inf,2", "timestamp"),
        ("1,nan", "value"), ("1,inf", "value"),
    ], ids=["nan", "inf", "value-nan", "value-inf"])
    def test_non_finite_timestamp_is_malformed(self, tmp_path, row, what):
        path = _write(tmp_path, ["0,1", row, "2,3"])
        with pytest.raises(MalformedInput, match=rf"series\.csv:3: non-finite {what}"):
            ingest_csv(path)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_text(), hint=st.sampled_from([None, 1.0, 0.1, 60.0, 3600.0]),
           fill=st.sampled_from([None, "locf"]), chunk=st.sampled_from([1, 2, 5, 1024]))
    @example(text="timestamp,value\n0,1\n1,2\n\n3,nan\n4,x\n", hint=None, fill=None,
             chunk=1024)
    @example(text='timestamp,value\r\n"0",1_000\r\n 2 ,2\r\n3,3,3\r\n', hint=1.0,
             fill="locf", chunk=2)
    def test_matches_row_loop_reference(self, tmp_path, text, hint, fill, chunk):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        # small chunks put record boundaries and errors in later chunks
        with mock.patch.object(series, "_CHUNK_RECORDS", chunk):
            got = _outcome(ingest_csv, path, interval_hint=hint, fill=fill)
        assert got == _outcome(_ingest_by_rows, path, interval_hint=hint, fill=fill)

    def test_first_bad_gap_in_file_order_and_check_order(self, tmp_path):
        # the third row's gap is both fractional and unfilled, the fourth's
        # unfilled: the earlier gap is reported, by its first failing check
        path = _write(tmp_path, ["0,1", "1,2", "3.5,3", "5.5,4"])
        with pytest.raises(IrregularGrid, match=r"gap of 2\.5s at t=3\.5 is not a multiple"):
            ingest_csv(path, interval_hint=1.0)

    def test_fill_longer_than_an_index_is_irregular(self, tmp_path):
        # each gap counts under sys.maxsize intervals, their sum does not
        path = _write(tmp_path, ["0,1", "6000000000000000000,2", "12000000000000000000,3"])
        with pytest.raises(IrregularGrid, match=r"takes 12000000000000000001 points, more "
                                                r"than an index can count \(largest gap"):
            ingest_csv(path, interval_hint=1.0, fill="locf")

    def test_fill_too_large_to_allocate_is_irregular(self, tmp_path):
        # about 1e12 points (8 TB), which an allocation refuses at once
        path = _write(tmp_path, ["0,1.5", "3600,1.6", "3600000000000000,1.7"])
        with pytest.raises(IrregularGrid, match=r"takes 1000000000001 points, more than memory "
                                                r"can hold \(largest gap at t=3600000000000000\.0\)"):
            ingest_csv(path, interval_hint=3600, fill="locf")


class TestContainer:
    def test_needs_observations(self):
        with pytest.raises(EmptyInput):
            TimeSeries(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(MalformedInput):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_bad_interval(self):
        with pytest.raises(MalformedInput):
            TimeSeries(np.array([1.0]), interval=0.0)

    @pytest.mark.parametrize("interval", [math.inf, math.nan])
    def test_rejects_non_finite_interval(self, interval):
        with pytest.raises(MalformedInput, match="sampling interval must be finite"):
            TimeSeries(np.array([1.0]), interval=interval)

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_start_time(self, start):
        with pytest.raises(MalformedInput, match="start time must be finite"):
            TimeSeries(np.array([1.0]), start_time=start)

    def test_values_immutable(self):
        ts = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_timestamps(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]), start_time=10.0, interval=5.0)
        np.testing.assert_array_equal(ts.timestamps, [10.0, 15.0, 20.0])


class TestTransform:
    def test_log_identities(self):
        ts = TimeSeries(np.array([1.0, np.e, np.e**2]))
        out = transform(ts, TransformSpec(lmbda=0.0))
        np.testing.assert_allclose(out.values, [0.0, 1.0, 2.0], atol=1e-12)
        assert out.transform == TransformSpec(0.0)

    def test_lambda_one(self):
        out = transform(TimeSeries(np.array([5.0])), TransformSpec(lmbda=1.0))
        np.testing.assert_allclose(out.values, [4.0])

    @pytest.mark.parametrize("lmbda", [0.0, 0.5, 1.0])
    def test_round_trip(self, lmbda):
        ts = TimeSeries(np.array([120.0, 130.0, 125.0]))
        back = inverse_transform(transform(ts, TransformSpec(lmbda=lmbda)))
        np.testing.assert_allclose(back.values, ts.values, rtol=1e-10)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NonPositiveValue):
            transform(TimeSeries(np.array([1.0, -2.0])), TransformSpec(lmbda=0.0))

    @pytest.mark.parametrize("lmbda", [0.5, -0.3, 1.0])
    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_every_lambda_rejects_nonpositive(self, lmbda, bad):
        with pytest.raises(NonPositiveValue):
            transform(TimeSeries(np.array([1.0, bad])), TransformSpec(lmbda=lmbda))

    @pytest.mark.parametrize("lmbda, limit", [(-0.8, math.inf), (-1.0, math.inf),
                                              (0.5, 0.0), (2.0, 0.0)])
    def test_inverse_past_the_pole_is_the_limit(self, lmbda, limit):
        # lmbda * w + 1 <= 0 has no preimage; the inverse takes its limit
        # there, so it stays increasing, and within its domain keeps its bits
        pole = -1.0 / lmbda
        w = np.array([pole - 10.0, pole - 1e-9, pole, pole + 1e-9, pole + 10.0])
        with np.errstate(all="raise"):
            out = series.inv_boxcox(w, lmbda)
        beyond = lmbda * w + 1.0 <= 0.0
        assert beyond.sum() >= 2 and np.all(out[beyond] == limit)
        inside = np.power(lmbda * w[~beyond] + 1.0, 1.0 / lmbda)
        np.testing.assert_array_equal(out[~beyond], inside)
        assert np.all(out[1:] >= out[:-1])

    def test_inverse_requires_applied_transform(self):
        with pytest.raises(MalformedInput):
            inverse_transform(TimeSeries(np.array([1.0, 2.0])))


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(1)
        res = acf(TimeSeries(rng.standard_normal(100)), 10)
        assert res.rho[0] == 1.0

    def test_alternating_series_lag_one(self):
        # biased estimator on [1,-1,...] of length 8: gamma(1) = -7/8
        ts = TimeSeries(np.array([1.0, -1.0] * 4))
        res = acf(ts, 2)
        assert res.rho[1] == pytest.approx(-0.875)

    def test_white_noise_small_correlations(self):
        rng = np.random.default_rng(42)
        res = acf(TimeSeries(rng.standard_normal(10000)), 20)
        assert np.all(np.abs(res.rho[1:]) < 0.05)

    def test_iid_band_property(self):
        # at most 10% of lags 1..40 outside +-1.96/sqrt(N), across 50 seeds
        n = 2000
        band = 1.96 / np.sqrt(n)
        exceed_fractions = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            res = acf(TimeSeries(rng.standard_normal(n)), 40)
            exceed_fractions.append(np.mean(np.abs(res.rho[1:]) > band))
        assert np.mean(np.asarray(exceed_fractions) <= 0.10) >= 0.9

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.standard_normal(500))
        res = acf(TimeSeries(x), 100)
        assert np.all(np.abs(res.rho) <= 1 + 1e-12)

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            acf(TimeSeries(np.arange(1.0, 11.0)), 10)

    def test_constant_series(self):
        with pytest.raises(ZeroVariance):
            acf(TimeSeries(np.full(50, 3.0)), 5)

    def test_result_shape(self):
        res = acf(TimeSeries(np.arange(1.0, 101.0)), 7)
        assert isinstance(res, AcfResult)
        assert res.lags.tolist() == list(range(8))
        assert res.rho.shape == (8,)
        assert res.gamma0 > 0


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: TimeSeries(np.ones((2, 3))), MalformedInput, "one-dimensional",
                 id="two-dimensional"),
    pytest.param(lambda: ingest_csv("series.csv", fill="zero"), MalformedInput,
                 "unknown fill policy", id="unknown-fill"),
    pytest.param(lambda: acf(TimeSeries(np.arange(1.0, 11.0)), -1), MalformedInput,
                 "max_lag", id="negative-lag"),
    pytest.param(lambda: TransformSpec(lmbda=math.nan), MalformedInput,
                 "Box-Cox lambda must be finite, got nan", id="nan-lambda"),
    pytest.param(lambda: TransformSpec(lmbda=-math.inf), MalformedInput,
                 "Box-Cox lambda must be finite, got -inf", id="infinite-lambda"),
    # 10 ** 1e308 and (1e-300) ** -2 overflow; neither may warn
    pytest.param(lambda: transform(TimeSeries(np.array([0.5, 10.0])), TransformSpec(1e308)),
                 MalformedInput, r"Box-Cox lambda 1e\+308 overflows", id="overflowing-lambda"),
    pytest.param(lambda: transform(TimeSeries(np.array([1e-300, 2.0])), TransformSpec(-2.0)),
                 MalformedInput, "Box-Cox lambda -2.0 overflows", id="overflowing-negative-lambda"),
])
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
