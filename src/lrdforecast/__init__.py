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
    NoScoredOrigins,
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
    ModelSpec,
    aicc,
    fit,
    fit_arfima,
    fit_arima,
    fit_mean,
    fit_naive,
    forecast,
    rebind,
)
from .operators import FracDiffCoeffs, frac_diff_coeffs, frac_difference
from .series import (
    AcfResult,
    TimeSeries,
    TransformSpec,
    acf,
    ingest_csv,
    inverse_transform,
    transform,
    write_csv,
)
from .synthgen import GenSpec, generate

__version__ = "0.2.0"
