"""Exception hierarchy with stable error tokens.

Every computational error carries a short machine-readable token that the
CLI prints verbatim and that reports serialize.
"""


class CumulantError(Exception):
    """Base class for computation errors; ``token`` is stable across versions."""

    token = "error"

    def __init__(self, message=""):
        super().__init__(message or self.token)


class PoleError(CumulantError):
    token = "pole"


class InvalidOrderError(CumulantError):
    token = "invalid-order"


class UnsupportedBetaError(CumulantError):
    token = "unsupported-beta"


class NonexistentCumulantError(CumulantError):
    token = "nonexistent-cumulant"


class LatticeOrderShortfallError(CumulantError):
    token = "lattice-order-shortfall"


class BoundaryUnavailableError(CumulantError):
    token = "boundary-unavailable"


class ExcludedIndexError(CumulantError):
    token = "excluded-index"


class InsufficientOrderError(CumulantError):
    token = "insufficient-order"


class IntegralityViolationError(CumulantError):
    token = "integrality-violation"


class IllConditionedError(CumulantError):
    token = "ill-conditioned"


class QuadratureFailureError(CumulantError):
    token = "quadrature-failure"

    def __init__(self, message="", achieved=None):
        super().__init__(message)
        self.achieved = achieved


class InvalidGammaArgumentError(CumulantError):
    token = "invalid-gamma-argument"


class InvalidCountError(CumulantError):
    token = "invalid-count"


class UnsupportedParameterError(CumulantError):
    token = "unsupported-parameter"


class EnvelopeFailureError(CumulantError):
    token = "envelope-failure"


class InsufficientSamplesError(CumulantError):
    token = "insufficient-samples"


class InvalidVarianceError(CumulantError):
    token = "invalid-variance"
