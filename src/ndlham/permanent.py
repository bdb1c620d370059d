"""Exact 0-1 permanents (Glynn's formula, meet in the middle over the row
signs, with the sign patterns whose terms vanish dropped) and the log-domain
permanent bounds used by the counting arguments.

Glynn's sum runs over sign vectors d with d_0 = +1.  Rows 1..n-1 are split
into a low and a high half, chosen greedily so that few columns have rows on
both sides.  A column whose rows other than row 0 all lie in one half has a
sum fixed by that half's signs alone: the half's patterns where that sum is 0
contribute 0 and are dropped, and the others fold the sum into their weight.
Only the mixed columns are multiplied in the join of the two halves."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, InvariantViolation, check_cap
from .graph import _bits

# a dense matrix, the worst case, makes Glynn visit all 2^(n-1) sign vectors
# at n products each; beyond this is not desk scale
EXACT_CAP = 28
PRIMES = (2**31 - 1, 2**31 - 19)  # the residue passes after the one mod 2^64


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

    ``_glynn`` gives the sum mod 2^64, hence per(A) mod 2^(65-n): the low
    n - 1 bits of the sum must be zero.  ``crt_lift`` adds passes mod
    PRIMES until min(n!, Minc-Bregman) is below the modulus; 2^37 times
    both primes exceeds 28!.
    """
    n = m.n
    if n == 0:
        return 1
    check_cap(n, EXACT_CAP, "permanent_exact")
    if any(r == 0 for r in m.rows):
        return 0
    # n <= 28, so every bitset fits int64
    a = np.array(m.rows, dtype=np.int64)[:, None] >> np.arange(n) & 1
    total = _glynn(a)
    if total % (1 << (n - 1)):
        raise InvariantViolation(f"permanent_exact: Glynn sum {total} is not divisible by 2^{n - 1}")
    return crt_lift(total >> (n - 1), 1 << (65 - n), math.factorial(n),
                    [r.bit_count() for r in m.rows], lambda p: _glynn(a, p) * pow(2, 1 - n, p))


def _glynn(a, p=None):
    """Glynn's sum 2^(n-1) per(A) of the n x n 0-1 int64 array ``a``, meet
    in the middle, mod 2^64 by int64 wraparound or mod a prime ``p`` < 2^31.

    Row 0 keeps d_0 = +1; ``_split`` divides rows 1..n-1 into n//2 low and
    (n-1)//2 high rows.  A column whose rows other than row 0 all lie in one
    half (or that has no such row) is that half's: for every sign pattern of
    the half, ``_half`` folds the column's whole sum into the pattern's
    signed weight, and drops the patterns of weight 0.  Dropping is exact
    because each term of a dropped pattern is a multiple of its weight, so 0
    in the working modulus.  A mixed column's sum is the low pattern's share
    plus the high pattern's, so each block of high patterns takes the product
    over the mixed columns only, against all kept low patterns, and one dot
    product with the low weights.  A block holds at most as many sums as a
    dense matrix's whole low table, n x 2^(n//2), the working set of one high
    pattern when nothing is dropped.

    With wraparound every product and sum is exact mod 2^64.  Mod p, at most
    6 column sums (each |sum| <= n <= 28, so their product is below 2^29)
    are multiplied before a reduction, and the first group also takes the
    weight, a residue or a sign, so no product reaches 2^60; a sum of at most
    2^(n//2) residues stays below 2^45, and a high weight times a residue
    below 2^62.
    """
    n = len(a)
    low_rows, high_rows, low_cols, high_cols = _split(a)
    mixed = list(_bits(low_cols & high_cols))
    start = a.sum(axis=0)
    low, low_w = _half(a, low_rows, start, list(_bits(((1 << n) - 1) & ~high_cols)), p)
    # the low half's start already holds a mixed column's all-plus sum
    start[mixed] = 0
    high, high_w = _half(a, high_rows, start, list(_bits(high_cols & ~low_cols)), p)
    low, high = low[mixed, None, :], high[mixed, :, None]
    block = max(1, (n << len(low_rows)) // max(1, low.size))
    acc = np.empty(len(high_w), dtype=np.int64)
    for k in range(0, len(high_w), block):
        sums = low + high[:, k:k + block]
        if p is None:
            acc[k:k + block] = np.prod(sums, axis=0) @ low_w
        else:
            acc[k:k + block] = _product(sums, p, low_w).sum(axis=1)
    if p is None:
        return int(high_w @ acc) % (1 << 64)
    return int((acc % p * high_w % p).sum()) % p


def _split(a):
    """Rows 1..n-1 of ``a`` as n//2 low and (n-1)//2 high rows, with the
    bitsets of the columns that have a low row and of those that have a high
    row.  The low rows are picked one at a time, each pick leaving the
    fewest open columns (columns with a low row and a row among 1..n-1 not
    yet low), the lowest row on a tie.  At the end the open columns are the
    mixed ones.  On a matrix where every pick opens and closes as many
    columns as any other, such as J or the adjacency matrix of K_n, the low
    rows are 1..n//2.  O(n^2) operations on n-bit bitsets."""
    n = len(a)
    rows = [int(r) for r in a @ (1 << np.arange(n))]
    # rest[j]: the rows among 1..n-1 of column j that are not low yet
    rest = [int(c) for c in a[1:].T @ (2 << np.arange(n - 1))]
    low_cols = 0
    low, high = [], list(range(1, n))
    for _ in range(n // 2):
        last = sum(1 << j for j, c in enumerate(rest) if not c & (c - 1))
        r = min(high, key=lambda i: (rows[i] & ~low_cols).bit_count() - (rows[i] & last).bit_count())
        low.append(r)
        high.remove(r)
        low_cols |= rows[r]
        for j in _bits(rows[r]):
            rest[j] &= ~(1 << r)
    high_cols = 0
    for i in high:
        high_cols |= rows[i]
    return low, high, low_cols, high_cols


def _half(a, rows, start, fold, p):
    """One half's table: its share of every column sum, from ``start``, for
    each sign pattern of ``rows`` (n x 2^len(rows), built by doubling:
    flipping row i subtracts 2 a_i), and each pattern's weight, its sign times
    the product of the sums of the columns listed in ``fold``.  Patterns of
    weight 0 are dropped."""
    sums = np.empty((len(a), 1 << len(rows)), dtype=np.int64)
    sums[:, 0] = start
    sign = np.ones(1 << len(rows), dtype=np.int64)
    for b, i in enumerate(rows):
        sums[:, 1 << b:2 << b] = sums[:, :1 << b] - 2 * a[i][:, None]
        sign[1 << b:2 << b] = -sign[:1 << b]
    weight = _product(sums[fold], p, sign)
    keep = np.flatnonzero(weight)
    return sums[:, keep], weight[keep]


def _product(sums, p, weight):
    """``weight`` times the product of ``sums`` over axis 0: wrapping mod 2^64,
    or mod p with a reduction after each group of at most 6 rows."""
    if p is None:
        return np.prod(sums, axis=0) * weight
    out = np.prod(sums[:6], axis=0)
    out *= weight
    out %= p
    for i in range(6, len(sums), 6):
        out *= np.prod(sums[i:i + 6], axis=0)
        out %= p
    return out


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


def bregman_bound(row_sums):
    """Minc-Bregman upper bound: sum over rows of log(r_i!)/r_i."""
    if any(r < 0 for r in row_sums):
        raise InvalidParameters("bregman_bound: negative row sum")
    if any(r == 0 for r in row_sums):
        return LogBound(value=-math.inf, kind="upper", source="bregman", is_zero=True)
    value = sum(math.lgamma(r + 1) / r for r in row_sums)
    return LogBound(value=value, kind="upper", source="bregman")


def bregman_below(row_sums, modulus):
    """Whether the Minc-Bregman bound prod_i (r_i!)^(1/r_i) on per(A) is below
    ``modulus``: with c_r rows of sum r and L the least common denominator of
    the c_r / r, whether prod_r (r!)^(c_r L / r) < modulus^L.  A zero row gives
    True (per(A) = 0), and L bits(modulus) > 2^22 gives False."""
    counts = Counter(row_sums)
    if 0 in counts:
        return True
    lcd = math.lcm(*(r // math.gcd(c, r) for r, c in counts.items()))
    if lcd * modulus.bit_length() > 1 << 22:
        return False
    top = math.prod(math.factorial(r) ** (c * lcd // r) for r, c in counts.items())
    return top < modulus**lcd


def crt_lift(x, modulus, cap, row_sums, residue):
    """The count y = x mod ``modulus`` with 0 <= y <= cap and y <= per(A) for
    some A with these row sums: y mod p = ``residue(p)`` for p in PRIMES is
    joined by the CRT until min(cap, Minc-Bregman) is below the modulus."""
    for p in PRIMES:
        if cap < modulus or bregman_below(row_sums, modulus):
            break
        lift = (residue(p) - x) * pow(modulus, -1, p) % p
        x, modulus = x + lift * modulus, modulus * p
    return x


def vdw_lower(n, d):
    """Egorychev-Falikman lower bound for a d-regular adjacency matrix:
    per(A) >= n! (d/n)^n, via the doubly stochastic matrix A/d."""
    if not 1 <= d <= n:
        raise InvalidParameters("vdw_lower: 1 <= d <= n required")
    value = math.lgamma(n + 1) + n * math.log(d / n)
    return LogBound(value=value, kind="lower", source="vdw")


def regular_upper(n, d):
    """(d!)^(n/d): permanent (hence 2-factor and Hamilton-cycle) upper bound
    for any d-regular graph."""
    if d < 1:
        raise InvalidParameters("regular_upper: d >= 1 required")
    return LogBound(value=n / d * math.lgamma(d + 1), kind="upper", source="regular-upper")


def alon_friedland_upper(n, d):
    """(d!)^(n/(2d)): perfect-matching count upper bound for d-regular graphs."""
    if n % 2 != 0:
        raise InvalidParameters("alon_friedland_upper: n must be even")
    if d < 1:
        raise InvalidParameters("alon_friedland_upper: d >= 1 required")
    return LogBound(
        value=n / (2 * d) * math.lgamma(d + 1), kind="upper", source="alon-friedland"
    )
