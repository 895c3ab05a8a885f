"""Detecting long-range dependence in a response-time series.

Generates three synthetic traces with known memory structure, estimates
the Hurst exponent three ways, runs the stationarity test, and prints the
combined verdict for each.
"""

from lrdforecast import (
    GenSpec,
    adf_test,
    classify_memory,
    generate,
)

N = 4096

traces = {
    "short memory (white noise)": GenSpec(kind="white_noise", n=N, seed=3, offset=100.0),
    "long memory (fractional noise, H=0.85)": GenSpec(kind="fgn", n=N, seed=3, hurst=0.85, offset=100.0),
    "long memory (fractional ARIMA, d=0.35)": GenSpec(kind="arfima", n=N, seed=3, d=0.35, offset=100.0),
}

for name, spec in traces.items():
    series = generate(spec)
    cls = classify_memory(series)
    adf = adf_test(series)
    print(f"\n=== {name} ===")
    for method, est in cls.h_by_method.items():
        print(f"  {method:22s} H = {est.h:.4f}   (log-log slope {est.slope:+.4f}, "
              f"R^2 = {est.r_squared:.3f})")
    print(f"  median H = {cls.h_median:.4f}  ->  verdict: {cls.verdict}")
    print(f"  ADF statistic {adf.statistic:.2f} vs 5% critical "
          f"{adf.critical_values['5%']:.2f}  ->  "
          f"{'stationary' if adf.stationary_at_5pct else 'non-stationary'}")

print("""
Reading the output: a median Hurst estimate above 0.571, the 95% quantile
of its white-noise null at this length, marks long-range dependence
(slowly decaying autocorrelation), while the ADF test checks
that the level itself is stable enough to model without differencing.
Long-memory series can be stationary AND strongly autocorrelated, which
is exactly the regime where the fractional forecaster earns its keep.
""")
