"""Error taxonomy shared across the simulator.

Config/validation problems exit the CLI with code 1, runtime/numeric
problems with code 2; a sweep records either as a failed cell.
"""


class FeduafError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FeduafError):
    """Invalid configuration value or unusable call arguments."""


class ValidationError(FeduafError):
    """Input data violates a documented schema or invariant."""


class ParseError(ValidationError):
    """Unparseable input file (reported with a line number where possible)."""


class ShapeError(FeduafError):
    """Array dimensions do not match the declared contract."""


class NumericError(FeduafError):
    """Non-finite values where finite ones are required."""


class DegenerateInputError(FeduafError):
    """Input admits no prediction path (e.g. all modalities missing)."""


class ProtocolError(FeduafError):
    """A client reliability that is not finite and positive."""


CONFIG_EXIT_ERRORS = (ConfigError, ValidationError)

# how numpy refuses an array size it cannot represent; any other ValueError
# or OverflowError is a bug and keeps its traceback
UNREPRESENTABLE = ("array is too big", "Maximum allowed dimension exceeded",
                   "Python int too large to convert to C")


def failure_message(exc: Exception) -> str | None:
    """The message the commands report for `exc`, or None for a bug."""
    if isinstance(exc, (FeduafError, OSError, MemoryError)):
        return str(exc)
    if isinstance(exc, (ValueError, OverflowError)) and str(exc).startswith(UNREPRESENTABLE):
        return f"a size numpy cannot represent: {exc}"
    return None
