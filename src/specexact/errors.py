"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Matrix shape does not satisfy an operation's precondition."""


class DataError(ValueError):
    """Input data is malformed (non-finite entry, inconsistent table, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative kernel hit its iteration cap."""

    def __init__(self, message: str, stuck_index: int | None = None):
        super().__init__(message)
        self.stuck_index = stuck_index


class PoleError(ValueError):
    """A shift landed on (or too close to) a spectrum point it must avoid."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ContourError(RuntimeError):
    """An eigenvalue sits too close to an integration contour."""


class ResolutionError(RuntimeError):
    """Contour quadrature cannot separate kept from dropped singular values."""


class CoefficientError(ValueError):
    """A sampled coefficient violates its declared bounds."""


class AssumptionError(ValueError):
    """A declared hypothesis constant is violated or inadmissible."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location
