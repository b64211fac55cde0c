"""Exception types shared across the package."""


class SaddlemapError(Exception):
    """Base class for all package-specific errors."""


class DegenerateChartError(SaddlemapError):
    """A chart is unusable: rank-deficient Jacobian or no component subset
    spans the estimated dimension. Signals the caller to resample."""


class ChartFitError(SaddlemapError):
    """A regressor did not reach the required held-out score."""


class NonFiniteEvaluationError(SaddlemapError):
    """A callable produced NaN/inf. Carries the offending point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class TetherResidualError(SaddlemapError):
    """The chart-inversion tether landed too far from the prescribed chart point.
    Carries the best point found so the caller can fall back gracefully."""

    def __init__(self, message, point=None, residual=None):
        super().__init__(message)
        self.point = point
        self.residual = residual
