"""The benchmark's workloads, their seeded inputs and their output checks.

Every workload runs as a closed loop with one caller: the next unit of
work starts when the previous one has returned. A unit is

* ``cv-window96``   one ``rolling_cv`` call on one series (one trace);
* ``pipeline-long`` one long trace through ``analyze``, ``fit`` and
  ``forecast`` of the in-process CLI (one forecast origin per trace).

``run`` is the timed call. ``check`` runs afterwards, outside the timing:
it verifies the outputs and, when asked to, replays the layer calls the
unit made through the public API inside spans, which is where the
per-layer numbers come from.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from lrdforecast import (
    CvConfig,
    GenSpec,
    TimeSeries,
    TransformSpec,
    acf,
    adf_test,
    classify_memory,
    cli,
    fit_arfima,
    fit_arima,
    fit_mean,
    fit_naive,
    forecast,
    generate,
    hurst_aggregated_variance,
    hurst_periodogram,
    hurst_rescaled_range,
    ingest_csv,
    rebind,
    rolling_cv,
    seasonal_peak_diagnostic,
    transform,
)

FITTERS = {"naive": fit_naive, "mean": fit_mean, "arima": fit_arima, "arfima": fit_arfima}
HOURLY = 3600.0
LOG = TransformSpec(lmbda=0.0)


@dataclass(frozen=True)
class Sizes:
    """How much input one run generates. TINY is for the smoke test."""

    cv_series: int = 24
    cv_origins: int = 2
    pl_traces: int = 16
    pl_points: int = 8192
    setup_reps: int = 7


FULL = Sizes()
TINY = Sizes(cv_series=2, cv_origins=1, pl_traces=2, pl_points=600, setup_reps=1)


@dataclass
class Outcome:
    """What checking one unit found."""

    origins: int = 0
    traces: int = 0
    attempted: int = 0
    failed: int = 0
    excluded: int = 0
    origin_mape: dict = field(default_factory=dict)  # method -> [MAPE of each origin]
    problems: list = field(default_factory=list)


def cli_call(argv) -> tuple:
    """Run ``lrdforecast.cli.main`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def interval_problems(where: str, lower, point, upper) -> list:
    """Intervals must be finite, ordered and positive (log-scale fits)."""
    lower, point, upper = (np.asarray(a, dtype=float) for a in (lower, point, upper))
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)) and np.all(np.isfinite(point))):
        return [f"{where}: non-finite forecast or interval"]
    if not (np.all(lower <= point) and np.all(point <= upper) and np.all(lower < upper)):
        return [f"{where}: interval not ordered lower <= point <= upper"]
    if not np.all(lower > 0):
        return [f"{where}: interval bound not positive"]
    return []


def prepare(wl, seed: int, workdir, tracer) -> list:
    """Generate the workload's inputs into a fresh workdir, then warm up
    with one rolling-origin origin of all four methods, so that lazy
    imports and first-call costs land in set-up, not in the first unit.
    Returns the items."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    items = wl.setup(seed, str(workdir), tracer)
    series = generate(GenSpec(kind="arfima", n=144, seed=seed, d=0.35, offset=50.0))
    rolling_cv(series, CvConfig(window=96, max_horizon=48, step=5))
    return items


def replay_origin(tracer, parent, series, origin: int, config: CvConfig):
    """Redo one rolling_cv origin through the public calls it makes;
    returns {method: ForecastResult}."""
    win = TimeSeries(
        series.values[origin - config.window : origin],
        start_time=series.start_time + (origin - config.window) * series.interval,
        interval=series.interval,
        label=series.label,
    )
    with tracer.span("series", "transform", parent=parent):
        win = transform(win, config.transform)
    results = {}
    for m in config.methods:
        with tracer.span("models", f"fit_{m}", parent=parent):
            model = FITTERS[m](win)
        with tracer.span("models", "forecast", parent=parent):
            results[m] = forecast(model, config.max_horizon, config.level)
    return results


def replay_cv(tracer, parent, series, report, config: CvConfig) -> list:
    """Replay every origin rolling_cv kept and compare its percentage
    errors with the report's, exactly."""
    problems = []
    dropped = {o for o, _, _ in report.excluded_origins}
    kept = [o for o in range(config.window, len(series) - config.max_horizon + 1, config.step)
            if o not in dropped]
    for row, origin in enumerate(kept):
        actual = series.values[origin : origin + config.max_horizon]
        for m, fc in replay_origin(tracer, parent, series, origin, config).items():
            pct = 100.0 * (actual - fc.point) / actual
            if not np.array_equal(pct, report.per_method[m].pct_errors[row]):
                problems.append(f"{series.label}@{origin}: replayed {m} MAPE differs from rolling_cv")
            problems += interval_problems(f"{series.label}@{origin} {m}", fc.lower, fc.point, fc.upper)
    return problems


def replay_analysis(tracer, parent, series) -> None:
    """The layer calls behind the CLI's analysis document."""
    with tracer.span("lrd", "classify_memory", parent=parent) as cm:
        classify_memory(series)
    # The three estimators classify_memory runs, timed one by one.
    for name, fn in (("hurst_aggregated_variance", hurst_aggregated_variance),
                     ("hurst_rescaled_range", hurst_rescaled_range),
                     ("hurst_periodogram", hurst_periodogram)):
        with tracer.span("lrd", name, parent=cm):
            fn(series)
    with tracer.span("lrd", "adf_test", parent=parent):
        adf_test(series)
    daily_lag = int(round(86400.0 / series.interval))
    if daily_lag >= 2 and len(series) > 2 * daily_lag:
        with tracer.span("series", "acf", parent=parent):
            r = acf(series, min(len(series) - 1, 4 * daily_lag))
        with tracer.span("lrd", "seasonal_peak_diagnostic", parent=parent):
            seasonal_peak_diagnostic(r, daily_lag)


def traced_ingest(tracer, parent, path, **kw):
    with tracer.span("series", "ingest_csv", parent=parent) as sid:
        series = ingest_csv(path, **kw)
    if sid is not None:
        tracer.spans[sid].attrs["rows"] = len(series)
    return series


class CvWindow96:
    """Library rolling_cv, window 96, horizon 48, step 5, four methods:
    the criterion-5 protocol at a smaller scale, one series per unit."""

    name = "cv-window96"
    config = CvConfig(window=96, max_horizon=48, step=5)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed, workdir, tracer) -> list:
        c = self.config
        n = c.window + c.max_horizon + c.step * (self.sizes.cv_origins - 1)
        items = []
        for i in range(self.sizes.cv_series):
            spec = GenSpec(kind="arfima", n=n, seed=seed * 1000 + i, d=0.35, offset=50.0,
                           label=f"cv{i:02d}")
            with tracer.span("synthgen", "generate"):
                items.append(generate(spec))
        return items

    @staticmethod
    def replays(index: int, traced: bool) -> bool:
        # Untraced runs replay the first unit too: the exact-MAPE check.
        return traced or index == 0

    def run(self, series, tracer):
        with tracer.span("evaluation", "rolling_cv") as sid:
            report = rolling_cv(series, self.config)
        return report, sid

    def check(self, series, out, tracer, replay: bool) -> Outcome:
        report, sid = out
        c = self.config
        expected = len(range(c.window, len(series) - c.max_horizon + 1, c.step))
        excluded = len(report.excluded_origins)
        o = Outcome(origins=expected, traces=1, attempted=expected, failed=excluded,
                    excluded=excluded)
        if sid is not None:
            tracer.spans[sid].attrs["origins"] = expected
        for m, ms in report.per_method.items():
            if ms.count + excluded != expected:
                o.problems.append(f"{series.label}: {m} has {ms.count} origins, expected "
                                  f"{expected - excluded}")
            o.origin_mape[m] = np.abs(ms.pct_errors).mean(axis=1).tolist()
        if replay:
            o.problems += replay_cv(tracer, sid, series, report, c)
        return o


class PipelineLong:
    """Long hourly traces with dropped rows through the in-process CLI:
    analyze, then fit and forecast --steps 48 for arfima and arima."""

    name = "pipeline-long"
    steps = 48
    families = ("arfima", "arima")

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed, workdir, tracer) -> list:
        n = self.sizes.pl_points
        items = []
        for i in range(self.sizes.pl_traces):
            spec = GenSpec(kind="arfima", n=n + self.steps, seed=seed * 1000 + i, d=0.35,
                           offset=50.0, interval=HOURLY)
            with tracer.span("synthgen", "generate"):
                s = generate(spec)
            # Drop 1% of the interior rows; --fill locf restores the grid.
            rng = np.random.default_rng([seed, i])
            keep = np.ones(n, dtype=bool)
            keep[rng.choice(np.arange(1, n - 1), size=n // 100, replace=False)] = False
            path = os.path.join(workdir, f"trace{i:02d}.csv")
            ts, vs = s.timestamps[:n][keep], s.values[:n][keep]
            with open(path, "w") as fh:
                fh.write("timestamp,value\n")
                fh.writelines(f"{int(round(t))},{v:.9g}\n" for t, v in zip(ts, vs))
            items.append((path, s.values[n:].copy()))
        return items

    def _calls(self, path):
        stem = path[:-4]
        io_flags = ["--fill", "locf"]
        calls = [("analyze", None, ["analyze", path, *io_flags, "--out", stem + ".analysis.json"])]
        for fam in self.families:
            model = f"{stem}.{fam}.json"
            calls.append(("fit", fam, ["fit", path, *io_flags, "--family", fam, "--out", model]))
            calls.append(("forecast", fam, ["forecast", "--model", model, "--series", path,
                                            *io_flags, "--steps", str(self.steps),
                                            "--out", f"{stem}.{fam}.csv"]))
        return calls

    @staticmethod
    def replays(index: int, traced: bool) -> bool:
        return traced

    def run(self, item, tracer):
        done = []
        for sub, fam, argv in self._calls(item[0]):
            with tracer.span("cli", sub) as sid:
                rc, err = cli_call(argv)
            done.append((sub, fam, argv, rc, err, sid))
        return done

    def check(self, item, out, tracer, replay: bool) -> Outcome:
        path, holdout = item
        stem = path[:-4]
        o = Outcome(origins=1, traces=1, attempted=len(out))
        for _, _, argv, rc, err, _ in out:
            if rc != 0:
                o.failed += 1
                o.problems.append(f"{' '.join(argv[:2])}: exit {rc}: {err}")
        if o.failed:
            return o
        with open(stem + ".analysis.json") as fh:
            doc = json.load(fh)
        if doc["n"] != self.sizes.pl_points or doc["verdict"] != "LRD":
            o.problems.append(f"{path}: analysis n={doc['n']} verdict={doc['verdict']}, "
                              f"expected n={self.sizes.pl_points} verdict=LRD")
        for fam in self.families:
            with open(f"{stem}.{fam}.json") as fh:
                model = json.load(fh)
            sigma2 = model["sigma2"]
            if model["family"] != fam or sigma2 is None or not math.isfinite(sigma2):
                o.problems.append(f"{path}: bad {fam} model document")
            table = np.loadtxt(f"{stem}.{fam}.csv", delimiter=",", skiprows=1, ndmin=2)
            if table.shape != (self.steps, 4):
                o.problems.append(f"{path}: {fam} forecast has shape {table.shape}")
                continue
            o.problems += interval_problems(f"{path} {fam}", table[:, 2], table[:, 1], table[:, 3])
            o.origin_mape[fam] = [float(np.mean(np.abs(100.0 * (holdout - table[:, 1]) / holdout)))]
        if replay:
            self._replay(path, out, tracer)
        return o

    def _replay(self, path, out, tracer) -> None:
        """Mirror, call for call, what each CLI subcommand did below it."""
        models = {}
        for sub, fam, _, _, _, sid in out:
            series = traced_ingest(tracer, sid, path, fill="locf")
            if sub == "analyze":
                replay_analysis(tracer, sid, series)
                continue
            with tracer.span("series", "transform", parent=sid):
                series = transform(series, LOG)
            if sub == "fit":
                with tracer.span("models", f"fit_{fam}", parent=sid):
                    models[fam] = FITTERS[fam](series)
                continue
            with tracer.span("models", "rebind", parent=sid):
                model = rebind(models[fam], series)
            with tracer.span("models", "forecast", parent=sid):
                forecast(model, self.steps)


WORKLOADS = {w.name: w for w in (CvWindow96, PipelineLong)}


# Passes over the first item in default_blas_child; its time is the fastest.
PROBE_PASSES = 3


def default_blas_child(name: str, seed: str, workdir: str, sizes: str) -> dict:
    """Run in a child with the thread variables as the benchmark found
    them: raw wall and CPU seconds per origin of the workload's first
    item, the fastest of PROBE_PASSES passes. Unscaled, because the
    reference computation would slow down with the same BLAS threads."""
    from spans import Tracer

    one = dataclasses.replace(Sizes(**json.loads(sizes)), cv_series=1, pl_traces=1)
    wl = WORKLOADS[name](one)
    items = prepare(wl, int(seed), workdir, Tracer(False))
    walls, cpus = [], []
    for _ in range(PROBE_PASSES):
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = wl.run(items[0], Tracer(False))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        o = wl.check(items[0], out, Tracer(False), False)
        if o.problems:
            raise RuntimeError("; ".join(o.problems))
    return {"default_blas.wall_s_per_origin": min(walls) / o.origins,
            "default_blas.cpu_s_per_origin": min(cpus) / o.origins}
