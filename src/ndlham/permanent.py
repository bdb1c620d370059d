"""Exact 0-1 permanents (Ryser with Gray-code updates) and the log-domain
permanent bounds used by the counting arguments."""

import math
from dataclasses import dataclass

from .errors import InvalidParameters, check_cap

EXACT_CAP = 28  # Ryser is Theta(2^n * n); beyond this is not desk scale


@dataclass(frozen=True)
class ZeroOneMatrix:
    """Square 0-1 matrix with rows stored as bitsets."""

    n: int
    rows: tuple

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if len(self.rows) != self.n or any(r & ~mask for r in self.rows):
            raise InvalidParameters("rows must be n bitsets of width n")

    @property
    def row_sums(self):
        return [r.bit_count() for r in self.rows]

    def entry(self, i, j):
        return self.rows[i] >> j & 1

    def permuted(self, row_perm, col_perm):
        new_rows = [0] * self.n
        for i in range(self.n):
            r = 0
            for j in range(self.n):
                if self.entry(i, j):
                    r |= 1 << col_perm[j]
            new_rows[row_perm[i]] = r
        return ZeroOneMatrix(self.n, tuple(new_rows))


def adjacency_matrix_of(g):
    return ZeroOneMatrix(g.n, tuple(g.rows))


def permanent_exact(m):
    """Exact permanent via Ryser's inclusion-exclusion.

    Column subsets are visited in Gray-code order so that each step updates
    the per-row partial sums by a single column.
    """
    n = m.n
    if n == 0:
        return 1
    check_cap(n, EXACT_CAP, "permanent_exact")
    if any(r == 0 for r in m.rows):
        return 0
    cols = [[i for i in range(n) if m.entry(i, j)] for j in range(n)]
    sums = [0] * n
    total = 0
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        j = (gray ^ prev).bit_length() - 1
        if gray >> j & 1:
            for i in cols[j]:
                sums[i] += 1
        else:
            for i in cols[j]:
                sums[i] -= 1
        prev = gray
        prod = 1
        for s in sums:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            total += -prod if gray.bit_count() % 2 else prod
    # per(A) = (-1)^n * sum over nonempty column subsets
    return total if n % 2 == 0 else -total


@dataclass(frozen=True)
class LogBound:
    """A permanent bound in the natural-log domain.

    ``is_zero`` marks the degenerate case (a zero row forces permanent 0,
    where the product bounds have no finite log).
    """

    value: float
    kind: str  # "lower" | "upper"
    source: str  # "bregman" | "vdw" | "regular-upper" | "alon-friedland"
    is_zero: bool = False

    def to_json_dict(self):
        return {
            "value": None if self.is_zero else self.value,
            "kind": self.kind,
            "source": self.source,
            "is_zero": self.is_zero,
        }


def _log_factorial(k):
    return math.lgamma(k + 1)


def bregman_bound(row_sums):
    """Minc-Bregman upper bound: sum over rows of log(r_i!)/r_i."""
    if any(r < 0 for r in row_sums):
        raise InvalidParameters("bregman_bound: negative row sum")
    if any(r == 0 for r in row_sums):
        return LogBound(value=-math.inf, kind="upper", source="bregman", is_zero=True)
    value = sum(_log_factorial(r) / r for r in row_sums)
    return LogBound(value=value, kind="upper", source="bregman")


def equal_row_sums(total, n):
    """Integers summing to ``total``, as equal as possible: total mod n rows
    get the ceiling, the rest the floor."""
    if n < 1 or total < 0:
        raise InvalidParameters("equal_row_sums: n >= 1 and total >= 0 required")
    lo, extra = divmod(total, n)
    return [lo + 1] * extra + [lo] * (n - extra)


def bregman_bound_total(total, n):
    """Bregman bound knowing only the total number of ones."""
    return bregman_bound(equal_row_sums(total, n))


def vdw_lower(n, d):
    """Egorychev-Falikman lower bound for a d-regular adjacency matrix:
    per(A) >= n! (d/n)^n, via the doubly stochastic matrix A/d."""
    if not 1 <= d <= n:
        raise InvalidParameters("vdw_lower: 1 <= d <= n required")
    value = _log_factorial(n) + n * math.log(d / n)
    return LogBound(value=value, kind="lower", source="vdw")


def regular_upper(n, d):
    """(d!)^(n/d): permanent (hence 2-factor and Hamilton-cycle) upper bound
    for any d-regular graph."""
    if d < 1:
        raise InvalidParameters("regular_upper: d >= 1 required")
    return LogBound(value=n / d * _log_factorial(d), kind="upper", source="regular-upper")


def alon_friedland_upper(n, d):
    """(d!)^(n/(2d)): perfect-matching count upper bound for d-regular graphs."""
    if n % 2 != 0:
        raise InvalidParameters("alon_friedland_upper: n must be even")
    if d < 1:
        raise InvalidParameters("alon_friedland_upper: d >= 1 required")
    return LogBound(
        value=n / (2 * d) * _log_factorial(d), kind="upper", source="alon-friedland"
    )
