"""Exception types shared across the toolkit."""


class CfpkError(Exception):
    """Base class for all toolkit errors; `diagnostics` holds what the
    raiser measured (empty when it passes none)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ContractViolation(CfpkError):
    """An operation was called with arguments violating its preconditions."""


class DegenerateInputError(CfpkError):
    """Input density has zero or negative mass, or is otherwise unusable."""


class GridTooSmallError(CfpkError):
    """The truncated domain cannot represent the requested state."""


class RangeError(CfpkError):
    """A target value lies outside the reachable range on this grid."""


class SolverError(CfpkError):
    """An iterative solver failed to converge; carries diagnostics."""


class StepError(CfpkError):
    """A time step could not be completed; carries diagnostics."""


class WeightTooStrongError(CfpkError):
    """exp(w^2) is not integrable against the reference measure on the grid."""


class ConfigError(CfpkError):
    """Configuration file is malformed or violates an invariant."""
