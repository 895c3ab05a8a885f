"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py`; the PASS/FAIL lines print
past pytest's capture, so `-s` is not needed. Criterion 5 is the heavy
one (a full rolling-origin protocol over ten simulated services) and took
about three minutes on 2 cores with one BLAS thread; everything else
finishes in a few seconds.

Criterion 2's white-noise half is expected to FAIL: the rescaled-range
estimator is biased above 1/2 on short-memory data (its own tolerated
range here reaches 0.65), so the median-of-three rule can only call white
noise short-memory when both remaining estimators land below 1/2, which
happens for roughly 44% of seeds, not 90%. The check is kept faithful to
its stated form rather than weakened.
"""

import time

import numpy as np
import pytest

from lrdforecast import (
    CvConfig,
    GenSpec,
    TimeSeries,
    TransformSpec,
    aggregate_reports,
    classify_memory,
    fit_arfima,
    fit_mean,
    fit_naive,
    forecast,
    frac_diff_coeffs,
    frac_difference,
    generate,
    hurst_aggregated_variance,
    hurst_periodogram,
    hurst_rescaled_range,
    improvement,
    mae,
    mape,
    adf_test,
    rolling_cv,
    transform,
)
from lrdforecast.models import rebind

SEEDS = range(50)


def _check(capsys, ok: bool, label: str, detail: str) -> None:
    # with capture off, so the line shows in a plain `pytest -q` run too
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_hurst_recovery(capsys):
    t0 = time.time()
    estimators = {
        "aggregated_variance": hurst_aggregated_variance,
        "rescaled_range": hurst_rescaled_range,
        "periodogram": hurst_periodogram,
    }
    details = []
    worst = 0.0
    for hurst in (0.6, 0.7, 0.8, 0.9):
        errs = {name: [] for name in estimators}
        for seed in SEEDS:
            s = generate(GenSpec(kind="fgn", n=8192, seed=seed, hurst=hurst))
            for name, fn in estimators.items():
                errs[name].append(abs(fn(s).h - hurst))
        for name in estimators:
            mean_err = float(np.mean(errs[name]))
            worst = max(worst, mean_err)
            details.append(f"{name}@H={hurst}: {mean_err:.3f}")
    elapsed = time.time() - t0
    ok = worst <= 0.1 and elapsed <= 60
    _check(capsys, ok, "criterion 1 (Hurst recovery)",
           f"worst mean |H^ - H| = {worst:.3f} (<= 0.1), {elapsed:.0f}s; "
           + "; ".join(details))


def test_criterion_2_memory_classification(capsys):
    t0 = time.time()
    rates = {}
    for d in (0.2, 0.3, 0.4):
        hits = sum(
            classify_memory(generate(GenSpec(kind="arfima", n=4096, seed=s, d=d))).verdict
            == "LRD"
            for s in SEEDS
        )
        rates[f"LRD@d={d}"] = hits
    srd = sum(
        classify_memory(generate(GenSpec(kind="white_noise", n=4096, seed=s))).verdict
        == "SRD"
        for s in SEEDS
    )
    rates["SRD@white-noise"] = srd
    elapsed = time.time() - t0
    ok = all(v >= 45 for v in rates.values()) and elapsed <= 60
    _check(capsys, ok, "criterion 2 (memory classification)",
           f"{rates} out of 50 each (need >= 45), {elapsed:.0f}s")


def test_criterion_3_fractional_differencing_algebra(capsys):
    t0 = time.time()
    impulse = np.zeros(256)
    impulse[0] = 1.0
    inverse_ok = True
    for d in (0.1, 0.25, 0.45):
        c = frac_diff_coeffs(d, 512)
        conv = np.convolve(c.pi, c.eta)[:256]
        inverse_ok &= bool(np.max(np.abs(conv - impulse)) <= 1e-10)

    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.standard_normal(400))
    back = frac_difference(frac_difference(ts, 0.3), -0.3)
    round_trip_ok = bool(np.max(np.abs(back.values - ts.values)) <= 1e-8)

    ts2 = TimeSeries(rng.standard_normal(256))
    d1 = frac_difference(ts2, 1.0).values
    integer_ok = bool(np.array_equal(d1[1:], np.diff(ts2.values)))
    elapsed = time.time() - t0
    ok = inverse_ok and round_trip_ok and integer_ok and elapsed <= 1.0
    _check(capsys, ok, "criterion 3 (fractional differencing algebra)",
           f"operator inverse {inverse_ok}, round trip {round_trip_ok}, "
           f"integer match {integer_ok}, {elapsed:.2f}s")


def test_criterion_4_d_estimation_consistency(capsys):
    t0 = time.time()
    d_hats = []
    for seed in SEEDS:
        s = generate(GenSpec(kind="arfima", n=2000, seed=seed, d=0.3))
        d_hats.append(fit_arfima(s, max_p=0, max_q=0).spec.d)
    d_hats = np.asarray(d_hats)
    in_range = int(np.sum((d_hats >= 0.2) & (d_hats <= 0.4)))
    mean_dev = abs(float(d_hats.mean()) - 0.3)
    elapsed = time.time() - t0
    ok = mean_dev <= 0.05 and in_range >= 45 and elapsed <= 300
    _check(capsys, ok, "criterion 4 (d-estimation consistency)",
           f"mean d^ = {d_hats.mean():.4f} (|dev| {mean_dev:.4f} <= 0.05), "
           f"{in_range}/50 in [0.2, 0.4], {elapsed:.0f}s")


def test_criterion_5_long_horizon_advantage(capsys):
    # ten simulated long-memory services, the full windowed protocol; the
    # series are lifted above zero so the log-scale pipeline applies
    t0 = time.time()
    config = CvConfig(window=96, max_horizon=48, step=5)
    reports = []
    for seed in range(10):
        s = generate(GenSpec(kind="arfima", n=2000, seed=seed, d=0.35, offset=50.0))
        reports.append(rolling_cv(s, config))
    pooled = aggregate_reports(reports)
    origins = pooled.per_method["arfima"].count
    imp = pooled.improvements[("arima", "arfima")]
    mean_mapes = {m: float(ms.mape.mean()) for m, ms in pooled.per_method.items()}
    gain_positive = imp.mean > 0
    longer_better = imp.per_horizon[47] > imp.per_horizon[0]
    beats_baselines = (
        mean_mapes["arfima"] < mean_mapes["naive"]
        and mean_mapes["arfima"] < mean_mapes["mean"]
    )
    elapsed = time.time() - t0
    ok = (origins >= 1000 and gain_positive and longer_better and beats_baselines
          and elapsed <= 1800)
    _check(capsys, ok, "criterion 5 (long-horizon advantage)",
           f"{origins} origins; arfima-over-arima mean {imp.mean:.2f}% "
           f"(h=1 {imp.per_horizon[0]:.2f}%, h=48 {imp.per_horizon[47]:.2f}%); "
           f"mean MAPEs {({m: round(v, 3) for m, v in mean_mapes.items()})}; "
           f"{elapsed / 60:.1f} min")


def test_criterion_6_window_speed(capsys):
    s = generate(GenSpec(kind="arfima", n=96, seed=0, d=0.35, offset=50.0))
    st = transform(s, TransformSpec(lmbda=0.0))
    t0 = time.time()
    model = fit_arfima(st)
    forecast(model, 24)
    elapsed = time.time() - t0
    _check(capsys, elapsed <= 1.0, "criterion 6 (per-window speed)",
           f"fit + 24-step forecast in {elapsed * 1000:.0f} ms (<= 1000 ms)")


def test_criterion_7_adf_calibration(capsys):
    t0 = time.time()
    type1 = sum(
        adf_test(generate(GenSpec(kind="random_walk", n=2000, seed=s))).stationary_at_5pct
        for s in range(200)
    )
    power = sum(
        adf_test(generate(GenSpec(kind="arma", n=2000, seed=s, phi=(0.5,)))).stationary_at_5pct
        for s in range(200)
    )
    elapsed = time.time() - t0
    ok = type1 <= 20 and power >= 180 and elapsed <= 120
    _check(capsys, ok, "criterion 7 (ADF calibration)",
           f"type-I {type1}/200 (<= 20), power {power}/200 (>= 180), {elapsed:.0f}s")


def test_criterion_8_metric_identities(capsys):
    checks = [
        mape([100, 200], [110, 180]) == pytest.approx(10.0),
        mape([100], [0]) == pytest.approx(100.0),
        mape([3, 4], [3, 4]) == 0.0,
        mae([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3),
        mae([0, 0], [-1, 1]) == pytest.approx(1.0),
        mae([9], [9]) == 0.0,
        improvement(40.0, 25.0) == pytest.approx(37.5),
        improvement(10.0, 10.0) == 0.0,
        improvement(10.0, 20.0) == pytest.approx(-100.0),
    ]
    _check(capsys, all(checks), "criterion 8 (metric identities)",
           f"{sum(checks)}/{len(checks)} exact identities hold, "
           f"improvement(40, 25) = {improvement(40.0, 25.0)}")


def test_criterion_9_interval_shape(capsys):
    rng = np.random.default_rng(4)
    base = TimeSeries(np.cumsum(rng.standard_normal(200)) + 100.0)
    naive_fc = forecast(fit_naive(base), 24)
    naive_ratio = (naive_fc.upper - naive_fc.lower) / np.sqrt(np.arange(1, 25))
    naive_ok = bool(np.ptp(naive_ratio) <= 1e-9)

    mean_fc = forecast(fit_mean(base), 24)
    mean_widths = mean_fc.upper - mean_fc.lower
    mean_ok = bool(np.ptp(mean_widths) == 0.0)

    sim = generate(GenSpec(kind="arfima", n=1510, seed=11, d=0.3))
    model = fit_arfima(TimeSeries(sim.values[:1000]), max_p=0, max_q=0)
    hits = 0
    for origin in range(1000, 1500):
        fc = forecast(rebind(model, TimeSeries(sim.values[:origin])), 10, level=0.95)
        if fc.lower[9] <= sim.values[origin + 9] <= fc.upper[9]:
            hits += 1
    coverage = hits / 5.0
    coverage_ok = 88.0 <= coverage <= 99.0
    ok = naive_ok and mean_ok and coverage_ok
    _check(capsys, ok, "criterion 9 (interval shape)",
           f"naive width ~ sqrt(h) spread {np.ptp(naive_ratio):.2e} (<= 1e-9), "
           f"mean width constant {mean_ok}, coverage {coverage:.1f}% in [88, 99]")
