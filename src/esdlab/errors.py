"""Exception hierarchy shared across the laboratory.

The two error classes are the CLI's exit codes: configuration errors
exit 2, numerical failures (degenerate inputs, the Girko kernel at its
jump s = Re w, and solver breakdowns) exit 3.
"""


class EsdLabError(Exception):
    """Base class for all laboratory errors."""


class ConfigurationError(EsdLabError):
    """Invalid parameters, malformed specs, or malformed config files."""


class NumericalFailureError(EsdLabError):
    """A numerical kernel failed to converge or produce usable output."""
