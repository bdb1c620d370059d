"""Exception types shared across the package, the size-cap guard of the
exponential-time operations, the seed guard of the seeded ones and the
guard that a certificate belongs to the graph it is used with."""

from numbers import Integral, Real


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


def is_int(x):
    """Whether x is an integer other than a bool: True would otherwise
    silently act as 1."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_real(x):
    """Whether x is a real number other than a bool.  A float is let through
    before the ABC check, which costs about 0.5 us: the rotation engine's
    merge budget checks its float constant once per 2-factor."""
    return type(x) is float or isinstance(x, Real) and not isinstance(x, bool)


def check_seed(seed, what):
    """Raise InvalidParameters unless seed is a non-negative integer other
    than a bool: random.Random takes abs(seed), so -1 would silently act
    as 1."""
    if not is_int(seed) or seed < 0:
        raise InvalidParameters(f"{what} must be a non-negative integer, got {seed!r}")


def check_certificate(g, cert, what):
    """Raise InvalidParameters unless ``cert`` was made for a graph with
    as many vertices as ``g`` and vertex 0's degree as its d, since another
    graph's d and lambda would silently set the bounds and budgets computed
    for g, and unless its lambda passes ``check_lambda``.  The degree is
    one bit count, so the guard stays O(1)."""
    if cert.n != g.n:
        raise InvalidParameters(f"{what}: certificate is for n={cert.n}, graph has n={g.n}")
    if cert.d != (d := g.rows[0].bit_count()):
        raise InvalidParameters(f"{what}: certificate is for d={cert.d}, graph has d={d}")
    check_lambda(cert.lam, cert.d, what)


def check_lambda(lam, d, what):
    """Raise InvalidParameters unless lambda is a real number other than a
    bool with 0 <= lambda <= d: a nan or infinite lambda would pass the
    mixing check and break the merge budget's formula."""
    if not (is_real(lam) and 0 <= lam <= d):
        raise InvalidParameters(f"{what}: lambda must be a number with 0 <= lambda <= d={d}, got {lam!r}")
