"""Exception types shared across the package."""


class ChernLabError(Exception):
    """Base class for all chernlab errors."""


class NotPositiveDefinite(ChernLabError):
    """A matrix expected to be Hermitian positive-definite is not."""


class DimensionMismatch(ChernLabError):
    """Array dimensions are incompatible."""


class ZeroVector(ChernLabError):
    """A direction vector must be nonzero."""


class UnknownCatalogName(ChernLabError):
    """Requested model metric or map is not in the catalog."""


class BadParams(ChernLabError):
    """Catalog parameters are out of range."""


class BadIndices(ChernLabError):
    """Moment-check indices are malformed or out of range."""


class ParseError(ChernLabError):
    """Metric-expression source failed to parse."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NonHermitianExpression(ChernLabError):
    """Parsed metric table is not Hermitian at the domain center."""


class EvaluationDomainError(ChernLabError):
    """Metric evaluator hit a singularity inside its declared domain."""


class DomainMarginError(ChernLabError):
    """Point too close to the domain boundary for the stencil width."""


class NonFiniteSample(ChernLabError):
    """Evaluator returned NaN or Inf at a stencil point."""


class NotHolomorphicAtPoint(ChernLabError):
    """Cauchy-Riemann residual of a map exceeded tolerance."""


class NearCriticalPoint(ChernLabError):
    """Energy density too small for the logarithmic Laplacian."""


class ZeroSingularValue(ChernLabError):
    """Rank-deficient differential where full rank is required."""


class RankDeficient(ChernLabError):
    """Map is not biholomorphic onto its image on the sampled grid."""


class InfeasibleHypothesis(ChernLabError):
    """No constants satisfying the theorem's sign constraints fit the data."""


class UnboundedSbc(ChernLabError):
    """SBC infimum is -inf; carries the divergence certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class HypothesisSignError(ChernLabError):
    """Supplied constants violate the theorem's sign constraints."""


class FormInequalityViolated(ChernLabError):
    """A pointwise form inequality failed; carries worst point and eigenvalue."""

    def __init__(self, message, point=None, eigenvalue=None):
        super().__init__(message)
        self.point = point
        self.eigenvalue = eigenvalue


class SchemaError(ChernLabError):
    """Scenario file fails schema validation; carries a JSON-path location."""

    def __init__(self, message, location="$"):
        super().__init__(f"{message} (at {location})")
        self.location = location


class SearchBudgetExhausted(Warning):
    """Frame/multistart search hit its budget; best found is returned."""
