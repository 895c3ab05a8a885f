"""Long-range dependence diagnostics and forecasting for response-time
series: Hurst estimation, stationarity testing, four forecasting models
with prediction intervals, rolling-origin cross-validation, and seeded
synthetic-series generators."""

from .errors import (
    ClampWarning,
    ConfigMismatch,
    ConfigTooLargeForSeries,
    DegenerateSampleSize,
    DegenerateScaleWarning,
    EmptyInput,
    InvalidD,
    InvalidLevel,
    InvalidSpec,
    IrregularGrid,
    LagTooLarge,
    LengthMismatch,
    LrdForecastError,
    MalformedInput,
    NoAdmissibleModel,
    NonEmbeddableCovariance,
    NonPositiveValue,
    SeriesTooShort,
    SingularRegression,
    ZeroActual,
    ZeroBaseline,
    ZeroVariance,
)
from .evaluation import (
    CvConfig,
    CvReport,
    Improvement,
    MetricSet,
    aggregate_reports,
    improvement,
    mae,
    mape,
    rolling_cv,
)
from .lrd import (
    AdfResult,
    HurstEstimate,
    MemoryClassification,
    adf_test,
    classify_memory,
    hurst_aggregated_variance,
    hurst_periodogram,
    hurst_rescaled_range,
    seasonal_peak_diagnostic,
)
from .models import (
    ARFIMA,
    ARIMA,
    MEAN,
    NAIVE,
    FittedModel,
    ForecastResult,
    FracDiffCoeffs,
    ModelSpec,
    aicc,
    fit,
    fit_arfima,
    fit_arima,
    fit_mean,
    fit_naive,
    forecast,
    frac_diff_coeffs,
    frac_difference,
    rebind,
)
from .series import (
    AcfResult,
    TimeSeries,
    TransformSpec,
    acf,
    difference,
    ingest_csv,
    inverse_transform,
    transform,
    write_csv,
)
from .synthgen import GenSpec, generate, theoretical_acf_arfima0d0

__version__ = "0.1.0"
