"""Exception and warning types shared across the package."""


class LrdForecastError(ValueError):
    """Base class for all errors raised by this package."""


class MalformedInput(LrdForecastError):
    """Input violates a structural requirement (bad header, NaN, bad bound)."""


class EmptyInput(LrdForecastError):
    """No observations were provided."""


class NonPositiveValue(LrdForecastError):
    """A value was <= 0 where strict positivity is required."""


class IrregularGrid(LrdForecastError):
    """Timestamps do not form a gap-free regular grid."""


class SeriesTooShort(LrdForecastError):
    """Series has too few observations for the requested operation."""


class LagTooLarge(LrdForecastError):
    """Requested lag exceeds what the series or ACF supports."""


class ZeroVariance(LrdForecastError):
    """Series is constant where variation is required."""


class SingularRegression(LrdForecastError):
    """Regression design matrix is rank deficient."""


class InvalidD(LrdForecastError):
    """Differencing exponent outside the supported range."""


class NoAdmissibleModel(LrdForecastError):
    """Every candidate in the order grid failed the causality or
    invertibility constraints."""


class DegenerateSampleSize(LrdForecastError):
    """Sample too small for the corrected information criterion."""


class InvalidLevel(LrdForecastError):
    """Prediction-interval level outside (0, 1)."""


class LengthMismatch(LrdForecastError):
    """Paired vectors have different lengths."""


class ZeroActual(LrdForecastError):
    """Actual value of 0 makes a percentage error undefined."""


class ZeroBaseline(LrdForecastError):
    """Baseline MAPE of 0 makes an improvement percentage undefined."""


class ConfigTooLargeForSeries(LrdForecastError):
    """Cross-validation window plus horizon exceeds the series length."""


class NoScoredOrigins(LrdForecastError):
    """Every cross-validation origin was excluded, so there is nothing to
    pool."""


class ConfigMismatch(LrdForecastError):
    """Reports built under different configurations cannot be pooled."""


class NonEmbeddableCovariance(LrdForecastError):
    """The circulant embedding of size 2n of the computed fGn covariance has
    an eigenvalue below the rounding tolerance. The exact covariance embeds
    at every H (Craigmile 2003), so the computed one has lost precision."""


class InvalidSpec(LrdForecastError):
    """Generator specification violates its invariants."""


class ClampWarning(UserWarning):
    """An estimated exponent fell outside its admissible range and was
    clamped."""


class DegenerateScaleWarning(UserWarning):
    """A block scale was dropped because every block had zero spread."""
