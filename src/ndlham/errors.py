"""Exception types shared across the package."""

import os


class NdlError(Exception):
    """Base class for all library errors."""


class InvalidParameters(NdlError, ValueError):
    """Family / operation parameters violate their constraints."""


class ParseError(NdlError, ValueError):
    """Malformed edge-list input."""


class GenerationTimeout(NdlError, RuntimeError):
    """Rejection sampling exceeded its restart cap."""


class TooLarge(NdlError, ValueError):
    """Input exceeds the size cap of an exponential-time operation."""


class NotRegular(NdlError, ValueError):
    """Operation requires a regular graph."""


class InvariantViolation(NdlError, AssertionError):
    """A mathematical identity that must hold was observed to fail."""


class InconsistentTrace(NdlError, ValueError):
    """An edge-replacement trace does not replay cleanly."""


def effective_cap(default):
    """Size cap for an exponential operation.

    The NDL_SIZE_CAP environment variable may lower (never raise) the
    built-in cap; a value that is not an integer raises InvalidParameters.
    """
    env = os.environ.get("NDL_SIZE_CAP")
    if env is None:
        return default
    try:
        return min(default, int(env))
    except ValueError:
        raise InvalidParameters(f"NDL_SIZE_CAP must be an integer, got {env!r}") from None


def check_cap(n, default, what):
    cap = effective_cap(default)
    if n > cap:
        raise TooLarge(f"{what}: n={n} exceeds size cap {cap}")
