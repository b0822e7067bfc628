"""Exception hierarchy shared across the laboratory.

The CLI maps these onto exit codes: configuration errors exit 2,
numerical failures (including degenerate inputs, atom collisions and
solver breakdowns) exit 3.
"""


class EsdLabError(Exception):
    """Base class for all laboratory errors."""


class ConfigurationError(EsdLabError):
    """Invalid parameters, malformed specs, or malformed config files."""


class NumericalFailureError(EsdLabError):
    """A numerical kernel failed to converge or produce usable output."""


class DegenerateInputError(NumericalFailureError):
    """Input matrix violates a rank or invertibility precondition."""


class SingularityError(NumericalFailureError):
    """Evaluation point collides with an atom of a measure."""


class SolverFailureError(NumericalFailureError):
    """A solver did not reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BranchError(SolverFailureError):
    """A solution is not on the upper-half-plane branch, or not the only one."""
