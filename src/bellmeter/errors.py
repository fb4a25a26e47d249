"""Exception types shared across the package."""


class InvalidNormalizationError(ValueError):
    """A shoulder (normalization) count sum is zero where a positive value is required."""


class NoDataError(ValueError):
    """An estimator was applied to counts containing no usable events."""


class SchemaViolationError(ValueError):
    """A dataset or config file is missing a required field or carries an unknown one."""
