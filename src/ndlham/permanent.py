"""Exact 0-1 permanents (Glynn's formula, meet in the middle over the row
signs) and the log-domain permanent bounds used by the counting arguments."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, InvariantViolation, check_cap

# Glynn visits 2^(n-1) sign vectors at n products each; beyond this is not
# desk scale
EXACT_CAP = 28


@dataclass(frozen=True)
class ZeroOneMatrix:
    """Square 0-1 matrix with rows stored as bitsets."""

    n: int
    rows: tuple

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if len(self.rows) != self.n or any(r & ~mask for r in self.rows):
            raise InvalidParameters("rows must be n bitsets of width n")


def adjacency_matrix_of(g):
    return ZeroOneMatrix(g.n, tuple(g.rows))


def permanent_exact(m):
    """Exact permanent via Glynn's formula,

        per(A) = 2^-(n-1) * sum over d in {+1,-1}^n with d_0 = +1 of
                 (prod_i d_i) * prod_j (sum_i d_i a_ij).

    Each inner sum is at most the largest column sum c in absolute value,
    and one signed dot product in ``_glynn`` adds 2^(n//2) products.  The
    tables are int64 when c^n < 2^63, so that every product fits, and
    arbitrary precision otherwise; on int64 each dot product is summed in
    two exact halves by ``_split_dot``, so the sum cannot overflow.
    """
    n = m.n
    if n == 0:
        return 1
    check_cap(n, EXACT_CAP, "permanent_exact")
    if any(r == 0 for r in m.rows):
        return 0
    max_col = max(sum(r >> j & 1 for r in m.rows) for j in range(n))
    return _glynn(m, np.int64 if max_col**n < 1 << 63 else object)


def _glynn(m, dtype):
    """Glynn's sum, meet in the middle.

    Rows 1..n-1 are split into n//2 low and (n-1)//2 high rows.  Each half
    gets an n x 2^rows table of its share of the column sums for every sign
    pattern of its rows, built by doubling (flipping row i subtracts 2 a_i),
    and the sign of each pattern.  Each high pattern then takes the column
    products for all low patterns at once and one signed dot product, by
    ``_split_dot`` on int64.
    """
    n = m.n
    a = np.array([[r >> j & 1 for j in range(n)] for r in m.rows], dtype=dtype)

    def table(rows, start):
        sums = np.zeros((n, 1 << len(rows)), dtype=dtype)
        sums[:, 0] = start
        sign = np.ones(1 << len(rows), dtype=dtype)
        for b, i in enumerate(rows):
            sums[:, 1 << b:2 << b] = sums[:, :1 << b] - 2 * a[i][:, None]
            sign[1 << b:2 << b] = -sign[:1 << b]
        return sums, sign

    split = 1 + n // 2
    low, low_sign = table(range(1, split), a.sum(axis=0))
    high, high_sign = table(range(split, n), 0)
    total = 0
    for k in range(high.shape[1]):
        prods = np.prod(low + high[:, k:k + 1], axis=0)
        s = int(low_sign @ prods) if dtype is object else _split_dot(low_sign, prods)
        total += s if high_sign[k] > 0 else -s
    per, rest = divmod(total, 1 << (n - 1))
    if rest:
        raise InvariantViolation(
            f"permanent_exact: Glynn sum {total} is not divisible by 2^{n - 1}"
        )
    return per


def _split_dot(sign, prods):
    """The exact integer ``sign @ prods`` for int64 arrays of at most 2^30
    terms, with ``sign`` in {+1, -1}.

    Each product p is split as (p >> 32) * 2^32 + (p & 0xFFFFFFFF) and the
    halves are dotted apart: |p >> 32| <= 2^31 and 0 <= p & 0xFFFFFFFF <
    2^32, so neither sum can overflow.  Glynn's low half has 2^(n//2) <= 2^14
    terms (n <= EXACT_CAP).
    """
    return (int(sign @ (prods >> 32)) << 32) + int(sign @ (prods & 0xFFFFFFFF))


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
