"""Accuracy metrics, rolling-origin mechanics, pairing guarantees, and
report pooling."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from lrdforecast import (
    ConfigMismatch,
    ConfigTooLargeForSeries,
    CvConfig,
    CvReport,
    GenSpec,
    LengthMismatch,
    MalformedInput,
    MetricSet,
    NonPositiveValue,
    NoScoredOrigins,
    TimeSeries,
    TransformSpec,
    ZeroActual,
    ZeroBaseline,
    aggregate_reports,
    fit,
    forecast,
    generate,
    improvement,
    mae,
    mape,
    rolling_cv,
    transform,
)
import lrdforecast.evaluation as evaluation
from lrdforecast import _pool
from oracles import theoretical_acf_arfima0d0

DEMO_03 = Path(__file__).resolve().parent.parent / "demos" / "03_rolling_comparison.py"


class TestMetrics:
    def test_mape_example(self):
        assert mape([100, 200], [110, 180]) == pytest.approx(10.0)

    def test_mape_perfect(self):
        assert mape([5, 7], [5, 7]) == 0.0

    def test_mape_full_miss(self):
        assert mape([100], [0]) == pytest.approx(100.0)

    def test_mae_example(self):
        assert mae([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)

    def test_mae_identical(self):
        assert mae([4, 4], [4, 4]) == 0.0

    def test_mae_absolute(self):
        assert mae([0, 0], [-1, 1]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mae([1, 2], [1])
        with pytest.raises(LengthMismatch):
            mape([1, 2], [1])

    def test_zero_actual(self):
        with pytest.raises(ZeroActual):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_scale_invariance(self):
        actual = np.array([10.0, 20.0, 30.0])
        fc = np.array([12.0, 18.0, 33.0])
        assert mape(actual, fc) == pytest.approx(mape(7 * actual, 7 * fc))
        assert mae(7 * actual, 7 * fc) == pytest.approx(7 * mae(actual, fc))


class TestImprovement:
    def test_table_value(self):
        assert improvement(40.0, 25.0) == pytest.approx(37.5)

    def test_equal_is_zero(self):
        assert improvement(10.0, 10.0) == 0.0

    def test_worse_candidate_negative(self):
        assert improvement(10.0, 20.0) == pytest.approx(-100.0)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            improvement(0.0, 5.0)


class TestConfig:
    def test_defaults_follow_protocol(self):
        cfg = CvConfig()
        assert cfg.window == 96 and cfg.max_horizon == 48 and cfg.step == 1
        assert cfg.transform == TransformSpec(lmbda=0.0)
        # a class constant, not a field: perfbench's exact-MAPE replay reads it
        assert cfg.level == 0.95

    def test_bad_values(self):
        with pytest.raises(MalformedInput):
            CvConfig(step=0)
        with pytest.raises(MalformedInput):
            CvConfig(methods=("naive", "naive"))
        with pytest.raises(MalformedInput):
            CvConfig(methods=("ets",))


def _small_config(**kw):
    base = dict(window=24, max_horizon=4, step=8, methods=("naive", "mean"),
                transform=TransformSpec(lmbda=0.0))
    base.update(kw)
    return CvConfig(**base)


class TestRollingCv:
    def test_origin_count_and_shapes(self):
        s = generate(GenSpec(kind="white_noise", n=100, seed=0, offset=50.0))
        cfg = _small_config()
        rep = rolling_cv(s, cfg)
        expected_origins = len(range(24, 100 - 4 + 1, 8))
        for ms in rep.per_method.values():
            assert ms.count == expected_origins
            assert ms.errors.shape == (expected_origins, 4)
            assert ms.mape.shape == (4,)

    def test_config_too_large(self):
        s = generate(GenSpec(kind="white_noise", n=20, seed=0, offset=50.0))
        with pytest.raises(ConfigTooLargeForSeries):
            rolling_cv(s, _small_config())

    def test_log_scale_needs_positive_series(self):
        s = TimeSeries(np.random.default_rng(0).standard_normal(100))
        with pytest.raises(NonPositiveValue):
            rolling_cv(s, _small_config())

    @pytest.mark.parametrize("lmbda", [0.5, -0.3])
    def test_nonpositive_value_raises_before_any_fit(self, monkeypatch, lmbda):
        monkeypatch.setenv("LRDFORECAST_WORKERS", "1")  # workers cannot see the patch
        # every Box-Cox lambda needs positive data; the series is transformed
        # once, so the error comes before the first origin is fitted
        values = 50.0 + np.random.default_rng(1).standard_normal(100)
        values[70] = -1.0

        def no_fit(series, family):
            raise AssertionError("fitted before the transform was checked")

        monkeypatch.setattr(evaluation, "fit", no_fit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveValue):
                rolling_cv(TimeSeries(values), _small_config(transform=TransformSpec(lmbda)))

    @pytest.mark.parametrize("lmbda", [0.0, 0.5, -0.3, None])
    def test_transform_once_same_bits_as_per_window(self, lmbda):
        # rolling_cv cuts its windows from the transformed series; that must
        # give the bits of transforming each window alone, at every offset
        spec = None if lmbda is None else TransformSpec(lmbda)
        s = generate(GenSpec(kind="arfima", n=200, seed=7, d=0.35, offset=80.0))
        if spec is not None:
            whole = transform(s, spec).values
            for start in range(64):
                for size in (64, 96, 97):
                    win = TimeSeries(s.values[start : start + size])
                    assert np.array_equal(whole[start : start + size],
                                          transform(win, spec).values)
        cfg = CvConfig(window=64, max_horizon=8, step=7, transform=spec)
        rep = rolling_cv(s, cfg)
        for m, (err, pct) in _per_window_errors(s, cfg).items():
            assert np.array_equal(rep.per_method[m].errors, err)
            assert np.array_equal(rep.per_method[m].pct_errors, pct)

    def test_mean_beats_naive_on_iid(self):
        # the sample mean is the best constant predictor of exchangeable
        # data, so it must out-forecast the last value
        wins = 0
        for seed in range(30):
            s = generate(GenSpec(kind="white_noise", n=120, seed=seed, offset=50.0))
            rep = rolling_cv(s, _small_config())
            if rep.per_method["mean"].mape.mean() < rep.per_method["naive"].mape.mean():
                wins += 1
        assert wins >= 27

    def test_improvement_sign_consistency(self):
        s = generate(GenSpec(kind="white_noise", n=140, seed=3, offset=50.0))
        rep = rolling_cv(s, _small_config())
        ab = rep.improvements[("naive", "mean")].mean
        ba = rep.improvements[("mean", "naive")].mean
        ma = rep.per_method["naive"].mape.mean()
        mb = rep.per_method["mean"].mape.mean()
        assert ab == pytest.approx(-ba * mb / ma)

    def test_deterministic(self):
        s = generate(GenSpec(kind="white_noise", n=120, seed=4, offset=50.0))
        a = rolling_cv(s, _small_config())
        b = rolling_cv(s, _small_config())
        for m in a.per_method:
            np.testing.assert_array_equal(a.per_method[m].errors, b.per_method[m].errors)

    def test_failed_origin_excluded_for_all_methods(self, monkeypatch):
        monkeypatch.setenv("LRDFORECAST_WORKERS", "1")  # workers cannot see the patch
        s = generate(GenSpec(kind="white_noise", n=120, seed=5, offset=50.0))
        cfg = _small_config()
        plain = rolling_cv(s, cfg)
        target_count = plain.per_method["naive"].count

        real = evaluation.fit
        calls = {"i": 0}

        def flaky(series, family):
            if family == "mean":
                calls["i"] += 1
                if calls["i"] == 3:
                    raise MalformedInput("injected failure")
            return real(series, family)

        monkeypatch.setattr(evaluation, "fit", flaky)
        rep = rolling_cv(s, cfg)
        assert len(rep.excluded_origins) == 1
        for ms in rep.per_method.values():
            assert ms.count == target_count - 1

    def test_every_origin_excluded(self):
        # every ARIMA fit of a constant series fails: the report scores no
        # origin, its MAE and MAPE are NaN without a warning, and its
        # boxplot is one typed error that counts the exclusions by type
        cfg = CvConfig(window=96, max_horizon=4, step=20, methods=("arima",))
        rep = rolling_cv(TimeSeries(np.full(200, 5.0)), cfg)
        ms = rep.per_method["arima"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ms.count == 0
            assert ms.mae.shape == ms.mape.shape == (4,)
            assert np.isnan(ms.mae).all() and np.isnan(ms.mape).all()
            assert rep.improvements == {}
        with pytest.raises(NoScoredOrigins) as info:
            rep.boxplot
        assert str(info.value) == "all 6 origins were excluded (SingularRegression: 6)"

    def test_programming_error_propagates(self, monkeypatch):
        # only the package's own errors and singular linear algebra mark an
        # origin as failed; anything else is a defect and must surface
        monkeypatch.setenv("LRDFORECAST_WORKERS", "1")  # workers cannot see the patch
        s = generate(GenSpec(kind="white_noise", n=120, seed=5, offset=50.0))

        def broken(series, family):
            raise TypeError("injected defect")

        monkeypatch.setattr(evaluation, "fit", broken)
        with pytest.raises(TypeError, match="injected defect"):
            rolling_cv(s, _small_config())

    def test_naive_near_optimal_on_random_walk_h1(self):
        # the last value is the exact one-step conditional median of a
        # random walk; pooled over origins it must beat the windowed mean
        # and plain ARIMA, and sit within a whisker of the fractional model
        # whose d cap lets it imitate the walk
        cfg = CvConfig(window=64, max_horizon=4, step=25,
                       methods=("naive", "mean", "arima", "arfima"),
                       transform=TransformSpec(lmbda=0.0))
        reports = []
        for seed in range(5):
            s = generate(GenSpec(kind="random_walk", n=300, seed=seed, offset=100.0))
            reports.append(rolling_cv(s, cfg))
        pooled = aggregate_reports(reports)
        h1 = {m: pooled.per_method[m].mape[0] for m in cfg.methods}
        assert h1["naive"] < h1["mean"]
        assert h1["naive"] < h1["arima"] * 1.02
        assert h1["naive"] < h1["arfima"] * 1.05


def _spied_tasks(monkeypatch) -> list:
    """Record each task the pool sends: (the worker's channel, its items)."""
    sent, real = [], Connection.send

    def spy(conn, obj):
        sent.append((conn, list(obj[2])))
        real(conn, obj)

    monkeypatch.setattr(Connection, "send", spy)
    return sent


class _Unrebuildable(Exception):
    """Pickles, but does not unpickle: its two arguments are kept as one."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


class _Unsendable(Exception):
    """Does not pickle: it holds a lock."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


_PAST_FIRST = {"picklable": lambda: ValueError("past the first"),
               "unrebuildable": lambda: _Unrebuildable("past", "first"),
               "unsendable": _Unsendable}


def _raise_past_first(kind, items):
    """items, or an exception of that kind if they hold anything but 0: the
    pool hands the caller item 0, so only a worker raises."""
    if items != [0]:
        raise _PAST_FIRST[kind]()
    return items


def _interrupt_first(items):
    """A keyboard interrupt on item 0, which the caller computes; a long
    sleep on any other block, which a worker computes."""
    if items == [0]:
        raise KeyboardInterrupt
    time.sleep(60)
    return items


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _ended(pid: int) -> bool:
    """Whether the process has exited: it is gone, or a zombie, which its
    new parent need not reap."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _same_outcomes(a, b):
    """_score_origins outcomes, equal to the bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        if isinstance(x, tuple):
            assert x == y
        else:
            assert list(x) == list(y)
            for m in x:
                assert all(u.tobytes() == v.tobytes() for u, v in zip(x[m], y[m]))


def _same_report(a, b):
    assert a.excluded_origins == b.excluded_origins
    assert list(a.per_method) == list(b.per_method)
    for m in a.per_method:
        for field in ("errors", "pct_errors"):
            x, y = getattr(a.per_method[m], field), getattr(b.per_method[m], field)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture()
def fresh_pool(monkeypatch):
    """The pool with no worker, able to launch; as it was afterwards."""
    monkeypatch.setattr(_pool.POOL, "_usable", True)
    _pool.POOL.close()
    yield _pool.POOL
    _pool.POOL.close()


class TestParallelOrigins:
    @staticmethod
    def _series():
        # a constant stretch: every ARIMA fit inside it fails the ADF
        # regression, so three origins in the middle are excluded
        values = generate(GenSpec(kind="arfima", n=300, seed=2, d=0.35, offset=50.0)).values.copy()
        values[100:200] = 50.0
        return TimeSeries(values)

    CONFIG = CvConfig(window=96, max_horizon=8, step=8, methods=("naive", "mean", "arima"))
    ORIGINS = list(range(96, 300 - 8 + 1, 8))

    def test_same_bytes_for_any_worker_count(self, workers, monkeypatch):
        s = self._series()
        workers(1)
        serial = rolling_cv(s, self.CONFIG)
        assert len(serial.excluded_origins) == 3
        used = []
        for k in (3, 2):
            workers(k)
            sent = _spied_tasks(monkeypatch)
            _same_report(serial, rolling_cv(s, self.CONFIG))
            used.append(len({id(stream) for stream, _ in sent}))
        assert used == [2, 1]
        _pool.POOL.close()

    def test_worker_ready_mid_call_takes_part_of_it(self, workers, monkeypatch):
        # the worker is seen ready only from the caller's fourth origin on:
        # it is handed a block from the back of what the caller has left
        s = self._series()
        workers(1)
        serial = rolling_cv(s, self.CONFIG)
        pool, real, polls = workers(2), _pool.Pool.ready, []

        def late(self, want, busy=()):
            polls.append(want)
            return real(self, want, busy) if len(polls) > 3 else []

        monkeypatch.setattr(_pool.Pool, "ready", late)
        sent = _spied_tasks(monkeypatch)
        _same_report(serial, rolling_cv(s, self.CONFIG))
        rest = len(self.ORIGINS) - 3
        assert sent[0][1] == self.ORIGINS[-(rest // 4):]
        assert len(pool._workers) == 1

    def test_a_call_launches_no_more_workers_than_it_can_use(self, fresh_pool, monkeypatch):
        monkeypatch.setenv("LRDFORECAST_WORKERS", "4")
        s = self._series()
        _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), self.ORIGINS[:2])
        assert len(fresh_pool._workers) == 1
        _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), self.ORIGINS[:3])
        assert len(fresh_pool._workers) == 2

    @pytest.mark.parametrize("files, count", [
        ({"cpu.max": "200000 100000\n"}, 2),
        ({"cpu.max": "150000 100000\n"}, 2),  # rounded up
        ({"cpu.max": "max 100000\n"}, 64),
        ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 64),
        ({"cpu/cpu.cfs_quota_us": "100000\n"}, 64),  # no period to read
        ({"cpu.max": None, "cpu/cpu.cfs_quota_us": "50000\n",  # cpu.max unreadable
          "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({}, 64),
    ])
    def test_default_worker_count_is_capped_by_the_cpu_quota(
            self, monkeypatch, tmp_path, files, count):
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if text is None:  # a directory, which cannot be read as a file
                path.mkdir()
            else:
                path.write_text(text)
        monkeypatch.setattr(_pool, "_CGROUP_ROOT", str(tmp_path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.delenv("LRDFORECAST_WORKERS", raising=False)
        assert _pool.worker_count() == count
        monkeypatch.setenv("LRDFORECAST_THREADS", "8")  # the old name is not read
        assert _pool.worker_count() == count
        monkeypatch.setenv("LRDFORECAST_WORKERS", "8")  # never capped
        assert _pool.worker_count() == 8

    def test_killed_worker_shard_is_recomputed(self, workers):
        s = self._series()
        pool = workers(2)
        first = rolling_cv(s, self.CONFIG)
        (w,) = pool.ready(1)
        os.kill(w.proc.pid, signal.SIGKILL)
        _same_report(first, rolling_cv(s, self.CONFIG))
        assert w.proc.returncode is not None  # reaped
        workers(1)
        _same_report(first, rolling_cv(s, self.CONFIG))

    def test_worker_that_ended_before_its_task_is_sent_has_its_block_computed_here(
            self, workers, monkeypatch):
        # every worker ends just before it is sent a task: the send fails,
        # and the caller computes the block
        s = self._series()
        serial = evaluation._score_origins(s, s, self.CONFIG, self.ORIGINS)
        pool, real, ended = workers(2), Connection.send, []

        def ending(conn, obj):
            w = next(w for w in pool._workers if w.conn is conn)
            w.proc.kill()
            w.proc.wait()
            ended.append(w)
            real(conn, obj)

        monkeypatch.setattr(Connection, "send", ending)
        out = _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), self.ORIGINS)
        _same_outcomes(serial, out)
        assert ended
        assert not any(w in pool._workers for w in ended)

    def test_caller_exception_is_raised_first(self, workers, monkeypatch):
        # the caller's first item is past the end: it stops there, and its
        # exception comes first in item order
        s = self._series()
        workers(2)
        sent = _spied_tasks(monkeypatch)
        with pytest.raises(ValueError, match="broadcast"):
            _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), [len(s), 96, 104])
        assert [items for _, items in sent] == [[104]]

    def test_worker_exception_is_raised_in_caller(self, workers, monkeypatch):
        # an origin past the end leaves no actuals to score: numpy's
        # broadcasting error, raised in the worker that scores it
        s = self._series()
        workers(2)
        sent = _spied_tasks(monkeypatch)
        with pytest.raises(ValueError, match="broadcast"):
            _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), [96, len(s)])
        assert [items for _, items in sent] == [[len(s)]]

    @staticmethod
    def _raised_by_the_caller(workers, monkeypatch, kind, expected):
        # no reply can be read, so the caller computes the worker's block
        # and raises the exception itself, as with one process
        pool = workers(2)
        (w,) = pool.ready(1)
        sent = _spied_tasks(monkeypatch)
        with pytest.raises(expected, match=str(_PAST_FIRST[kind]())) as info:
            _pool.map_shards(_raise_past_first, (kind,), [0, 1])
        assert [items for _, items in sent] == [[1]]
        assert not hasattr(info.value, "__notes__")
        assert w not in pool._workers and w.proc.returncode is not None

    def test_exception_that_does_not_unpickle_raises_in_caller(
            self, workers, monkeypatch):
        self._raised_by_the_caller(workers, monkeypatch, "unrebuildable", _Unrebuildable)

    def test_exception_that_does_not_pickle_raises_in_caller(
            self, workers, monkeypatch):
        # the worker cannot send it, and ends
        self._raised_by_the_caller(workers, monkeypatch, "unsendable", _Unsendable)

    def test_picklable_worker_exception_arrives_as_itself_with_a_note(
            self, workers, monkeypatch):
        workers(2)
        sent = _spied_tasks(monkeypatch)
        with pytest.raises(ValueError, match="past the first") as info:
            _pool.map_shards(_raise_past_first, ("picklable",), [0, 1])
        assert [items for _, items in sent] == [[1]]
        (note,) = info.value.__notes__
        assert note.startswith("in an lrdforecast worker:\nTraceback")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_interrupt_drops_the_busy_worker(self, workers):
        pool = workers(2)
        (w,) = pool.ready(1)
        before, start = _open_fds(), time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _pool.map_shards(_interrupt_first, (), [0, 1])
        assert time.monotonic() - start < 10
        assert pool._workers == [] and w.proc.returncode is not None
        assert _open_fds() == before - 1  # the worker's channel

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_outlives_a_worker(self, fresh_pool, monkeypatch):
        monkeypatch.setenv("LRDFORECAST_WORKERS", "2")
        before = _open_fds()
        fresh_pool.ready(1)  # launches the worker
        (w,) = fresh_pool._workers  # held, so only close() can close its end
        fresh_pool.close()
        assert w.proc.returncode is not None and _open_fds() == before
        # a launch that fails turns the pool off, and leaves nothing open
        monkeypatch.setattr(sys, "executable", "/nonexistent/python")
        fresh_pool.ready(1)
        assert not fresh_pool._usable and fresh_pool._workers == []
        assert _open_fds() == before

    def test_worker_that_imported_another_package_is_not_used(self, fresh_pool, monkeypatch):
        monkeypatch.setenv("LRDFORECAST_WORKERS", "2")
        monkeypatch.setattr(_pool, "_PACKAGE_FILE", "/elsewhere/lrdforecast/__init__.py")
        deadline = time.monotonic() + 120
        fresh_pool.ready(1)  # launches the worker
        while fresh_pool._usable:
            assert time.monotonic() < deadline, "worker did not start"
            time.sleep(0.05)
            assert fresh_pool.ready(1) == []
        assert fresh_pool._workers == []

    def test_worker_that_ends_before_it_reports_is_not_launched_again(
            self, fresh_pool, monkeypatch, tmp_path):
        # as a worker that cannot import lrdforecast: it ends at once
        fake = tmp_path / "python"
        fake.write_text("#!/bin/sh\necho 'no module named lrdforecast' >&2\nexit 1\n")
        fake.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(fake))
        monkeypatch.setenv("LRDFORECAST_WORKERS", "2")
        launched, real = [], _pool.Pool._launch
        monkeypatch.setattr(_pool.Pool, "_launch",
                            staticmethod(lambda: launched.append(1) or real()))
        s = self._series()
        serial = evaluation._score_origins(s, s, self.CONFIG, self.ORIGINS)
        for _ in range(3):
            out = _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), self.ORIGINS)
            _same_outcomes(serial, out)
            for w in fresh_pool._workers:
                w.proc.wait()
        assert launched == [1]
        assert not fresh_pool._usable and fresh_pool._workers == []

    def test_output_printed_at_worker_start_does_not_reach_the_replies(
            self, fresh_pool, monkeypatch, tmp_path, capfd):
        # a sitecustomize on the worker's path prints before lrdforecast
        # is imported; it shows on standard error
        (tmp_path / "sitecustomize.py").write_text("print('hello from start-up')\n")
        monkeypatch.setattr(sys, "path", [str(tmp_path), *sys.path])
        monkeypatch.setenv("LRDFORECAST_WORKERS", "2")
        deadline = time.monotonic() + 120
        while not fresh_pool.ready(1):
            assert fresh_pool._usable, "worker was given up"
            assert time.monotonic() < deadline, "worker did not start"
            time.sleep(0.05)
        s = self._series()
        sent = _spied_tasks(monkeypatch)
        out = _pool.map_shards(evaluation._score_origins, (s, s, self.CONFIG), self.ORIGINS)
        _same_outcomes(evaluation._score_origins(s, s, self.CONFIG, self.ORIGINS), out)
        assert sent and fresh_pool._usable
        assert "hello from start-up" in capfd.readouterr().err

    def test_unguarded_script_runs_once_and_reaps_its_workers(self, tmp_path):
        # demo 03 calls rolling_cv at top level without a __main__ guard
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
        serial = subprocess.run([sys.executable, str(DEMO_03)], capture_output=True, text=True,
                                env={**env, "LRDFORECAST_WORKERS": "1"}, cwd=tmp_path,
                                check=True, timeout=300)
        run_demo = (
            "import runpy, sys\n"
            "from lrdforecast import _pool\n"
            "runpy.run_path(sys.argv[1], run_name='__main__')\n"
            "print('worker pids:', *(w.proc.pid for w in _pool.POOL._workers), file=sys.stderr)\n"
        )
        par = subprocess.run([sys.executable, "-c", run_demo, str(DEMO_03)], capture_output=True,
                             text=True, env={**env, "LRDFORECAST_WORKERS": "2"}, cwd=tmp_path,
                             check=True, timeout=300)
        assert par.stdout == serial.stdout
        (line,) = [x for x in par.stderr.splitlines() if x.startswith("worker pids:")]
        pids = [int(x) for x in line.split(":")[1].split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_worker_of_a_killed_caller_stops_within_an_origin(self):
        # the worker is handed about 340 of the 1,357 origins, seconds of
        # work; it checks for its caller before each one
        caller = (
            "import time\n"
            "from lrdforecast import CvConfig, GenSpec, _pool, generate, rolling_cv\n"
            "s = generate(GenSpec(kind='arfima', n=1500, seed=1, d=0.35, offset=50.0))\n"
            "deadline = time.monotonic() + 120\n"
            "while not _pool.POOL.ready(1):\n"
            "    assert time.monotonic() < deadline, 'worker did not start'\n"
            "    time.sleep(0.05)\n"
            "print(_pool.POOL._workers[0].proc.pid, flush=True)\n"
            "rolling_cv(s, CvConfig())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1",
                   LRDFORECAST_WORKERS="2")
        proc = subprocess.Popen([sys.executable, "-c", caller], stdout=subprocess.PIPE,
                                text=True, env=env)
        try:
            pid = int(proc.stdout.readline())
            time.sleep(1.0)  # the worker is inside its block
            assert not _ended(pid)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 1.0
        while not _ended(pid):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("the worker outlived its killed caller by over 1 s")
            time.sleep(0.02)


def _per_window_errors(series, cfg):
    """{method: (errors, pct_errors)} of rolling_cv's protocol with every
    window transformed on its own: the reference for the transform-once
    loop, for a series on which no origin fails."""
    out = {m: ([], []) for m in cfg.methods}
    for origin in range(cfg.window, len(series) - cfg.max_horizon + 1, cfg.step):
        win = TimeSeries(series.values[origin - cfg.window : origin])
        if cfg.transform is not None:
            win = transform(win, cfg.transform)
        actual = series.values[origin : origin + cfg.max_horizon]
        for m, (err, pct) in out.items():
            e = actual - forecast(fit(win, m), cfg.max_horizon).point
            err.append(e)
            pct.append(100.0 * e / actual)
    return {m: (np.array(err), np.array(pct)) for m, (err, pct) in out.items()}


def _report_from_matrices(cfg, err, pct):
    per_method = {m: MetricSet(err[m], pct[m]) for m in cfg.methods}
    return CvReport(per_method=per_method, config=cfg)


class TestAggregation:
    def test_single_report_identity_plus_quantiles(self):
        s = generate(GenSpec(kind="white_noise", n=120, seed=6, offset=50.0))
        rep = rolling_cv(s, _small_config())
        agg = aggregate_reports([rep])
        for m in rep.per_method:
            np.testing.assert_array_equal(agg.per_method[m].errors, rep.per_method[m].errors)
            np.testing.assert_allclose(agg.per_method[m].mape, rep.per_method[m].mape)
            assert agg.boxplot[m].shape == (4, 5)
            q = agg.boxplot[m]
            assert np.all(q[:, 0] <= q[:, 2]) and np.all(q[:, 2] <= q[:, 4])

    def test_pooled_mape_is_count_weighted(self):
        cfg = _small_config()
        rng = np.random.default_rng(0)
        reps = []
        counts = (3, 7)
        for i, cnt in enumerate(counts):
            err = {m: rng.standard_normal((cnt, 4)) for m in cfg.methods}
            pct = {m: rng.standard_normal((cnt, 4)) * 10 for m in cfg.methods}
            reps.append(_report_from_matrices(cfg, err, pct))
        agg = aggregate_reports(reps)
        m = cfg.methods[0]
        manual = (
            reps[0].per_method[m].mape * counts[0] + reps[1].per_method[m].mape * counts[1]
        ) / sum(counts)
        np.testing.assert_allclose(agg.per_method[m].mape, manual)

    def test_pooling_preserves_shared_improvement_sign(self):
        # when the candidate beats the baseline at every horizon in every
        # report, the pooled mean improvement stays positive
        cfg = _small_config()
        rng = np.random.default_rng(42)
        for _ in range(20):
            reps = []
            for i in range(3):
                cnt = int(rng.integers(2, 6))
                base = np.abs(rng.standard_normal((cnt, 4))) + 1.0
                better = base * rng.uniform(0.3, 0.95, size=(cnt, 4))
                err = {"naive": base.copy(), "mean": better.copy()}
                pct = {"naive": base, "mean": better}
                reps.append(_report_from_matrices(cfg, err, pct))
            agg = aggregate_reports(reps)
            assert agg.improvements[("naive", "mean")].mean > 0

    def test_config_mismatch(self):
        s = generate(GenSpec(kind="white_noise", n=120, seed=7, offset=50.0))
        a = rolling_cv(s, _small_config())
        b = rolling_cv(s, _small_config(step=4))
        with pytest.raises(ConfigMismatch):
            aggregate_reports([a, b])

    def test_improvement_max_over_horizons(self):
        s = generate(GenSpec(kind="white_noise", n=140, seed=8, offset=50.0))
        rep = rolling_cv(s, _small_config())
        imp = rep.improvements[("naive", "mean")]
        assert imp.max == pytest.approx(np.nanmax(imp.per_horizon))


class TestAccuracyOracle:
    """The fitted ARFIMA against the best forecaster possible. On fractional
    noise, ARFIMA(0, d, 0), the autocorrelations are closed-form, so the
    exact finite-sample best linear predictor at the true d is one Toeplitz
    solve per window, centred at the window mean. The fit must pool a MAPE
    within MARGIN_PCT per cent of the predictor's.

    The margin is the mean plus four standard deviations of the fit's
    excess in a Monte Carlo of 120 draws of this design, sixteen series
    each on seeds 16 to 1935, none of them used here: mean 0.51%, standard
    deviation 0.20%, largest 1.07%. On the same draws the window mean
    exceeded the predictor by 1.71% on average; on this test's seeds the
    fit's excess is 0.45% and the window mean's 2.0%."""

    D, N, SERIES, MARGIN_PCT = 0.35, 600, 16, 1.3
    CONFIG = CvConfig(window=96, max_horizon=48, step=24, methods=("arfima",),
                      transform=None)

    def _oracle_abs_pct(self, x):
        w, h = self.CONFIG.window, self.CONFIG.max_horizon
        rho = theoretical_acf_arfima0d0(self.D, w + h)
        # cross[i, k - 1]: the correlation of window point i with step k
        cross = rho[(w - 1) + np.arange(1, h + 1)[None, :] - np.arange(w)[:, None]]
        rows = []
        for origin in range(w, x.size - h + 1, self.CONFIG.step):
            window = x[origin - w : origin]
            center = window.mean()
            point = center + solve_toeplitz(rho[:w], window - center) @ cross
            actual = x[origin : origin + h]
            rows.append(np.abs(100.0 * (actual - point) / actual))
        return np.array(rows)

    def test_fitted_arfima_within_margin_of_true_d_predictor(self):
        fitted, oracle = [], []
        for seed in range(self.SERIES):
            s = generate(GenSpec(kind="arfima", n=self.N, seed=seed, d=self.D, offset=50.0))
            rep = rolling_cv(s, self.CONFIG)
            assert not rep.excluded_origins
            fitted.append(np.abs(rep.per_method["arfima"].pct_errors))
            oracle.append(self._oracle_abs_pct(s.values))
        fitted, oracle = np.concatenate(fitted), np.concatenate(oracle)
        assert fitted.shape == oracle.shape == (self.SERIES * 20, 48)
        excess = 100.0 * (fitted.mean() / oracle.mean() - 1.0)
        assert excess <= self.MARGIN_PCT


_ONES_WITH_A_ZERO = TimeSeries(np.r_[np.full(60, 5.0), 0.0, np.full(39, 5.0)])


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: CvConfig(window=1), MalformedInput, "window", id="window"),
    pytest.param(lambda: CvConfig(methods=()), MalformedInput, "at least one method",
                 id="no-methods"),
    # the interval level changes no score, so a config does not take one
    pytest.param(lambda: CvConfig(level=0.9), TypeError, "unexpected keyword argument 'level'",
                 id="level"),
    pytest.param(lambda: aggregate_reports([]), MalformedInput, "no reports",
                 id="aggregate-nothing"),
    pytest.param(lambda: rolling_cv(_ONES_WITH_A_ZERO, _small_config(transform=None)),
                 ZeroActual, "zero actuals", id="raw-scale-zero"),
])
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
