"""Error taxonomy shared across the simulator, by what the user fixes.

`failure` decides what the commands report: a config or input problem exits
the CLI with code 1, a run that fails with code 2; a sweep records either
as a failed cell.
"""


class FeduafError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FeduafError):
    """Invalid configuration value or unusable call arguments."""


class ValidationError(FeduafError):
    """Input data or tensors that violate a documented schema or shape."""


class ParseError(ValidationError):
    """Unparseable input file (reported with a line number where possible)."""


class NumericError(FeduafError):
    """A run that diverged: non-finite values where finite ones are needed."""


# how numpy refuses an array size it cannot represent; any other ValueError
# or OverflowError is a bug and keeps its traceback
UNREPRESENTABLE = ("array is too big", "Maximum allowed dimension exceeded",
                   "Python int too large to convert to C")


def failure(exc: Exception) -> tuple[int, str] | None:
    """(exit code, message) the commands report for `exc`, or None for a bug:
    1 for a config or input the user corrects, 2 for a run that diverged,
    could not write, or asked for a size that cannot be allocated."""
    if isinstance(exc, (ConfigError, ValidationError)):
        return 1, str(exc)
    if isinstance(exc, (FeduafError, OSError, MemoryError)):
        return 2, str(exc)
    if isinstance(exc, (ValueError, OverflowError)) and str(exc).startswith(UNREPRESENTABLE):
        return 2, f"a size numpy cannot represent: {exc}"
    return None
