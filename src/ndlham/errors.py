"""Exception types shared across the package, the size-cap guard of the
exponential-time operations, the seed guard of the seeded ones and the
guard that a certificate belongs to the graph it is used with."""

from numbers import Integral


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


def check_cap(n, cap, what):
    """Raise TooLarge if an exponential-time operation's input size n
    exceeds its built-in cap."""
    if n > cap:
        raise TooLarge(f"{what}: n={n} exceeds size cap {cap}")


def check_seed(seed, what):
    """Raise InvalidParameters unless seed is a non-negative integer:
    random.Random takes abs(seed), so -1 would silently act as 1."""
    if not isinstance(seed, Integral) or seed < 0:
        raise InvalidParameters(f"{what} must be a non-negative integer, got {seed!r}")


def check_certificate(g, cert, what):
    """Raise InvalidParameters unless ``cert`` was made for a graph on as
    many vertices as ``g``: another graph's d and lambda would silently set
    the bounds and budgets computed for g."""
    if cert.n != g.n:
        raise InvalidParameters(f"{what}: certificate is for n={cert.n}, graph has n={g.n}")
