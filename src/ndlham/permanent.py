"""Exact 0-1 permanents (Glynn's formula, meet in the middle over the row
signs) and the log-domain permanent bounds used by the counting arguments."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, InvariantViolation, check_cap

# Glynn visits 2^(n-1) sign vectors at n products each; beyond this is not
# desk scale
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
    a = np.array([[r >> j & 1 for j in range(n)] for r in m.rows], dtype=np.int64)
    total = _glynn(a)
    if total % (1 << (n - 1)):
        raise InvariantViolation(f"permanent_exact: Glynn sum {total} is not divisible by 2^{n - 1}")
    return crt_lift(total >> (n - 1), 1 << (65 - n), math.factorial(n),
                    [r.bit_count() for r in m.rows], lambda p: _glynn(a, p) * pow(2, 1 - n, p))


def _glynn(a, p=None):
    """Glynn's sum 2^(n-1) per(A) of the n x n 0-1 int64 array ``a``, meet
    in the middle, mod 2^64 by int64 wraparound or mod a prime ``p`` < 2^31.

    Rows 1..n-1 are split into n//2 low and (n-1)//2 high rows.  Each half
    gets an n x 2^rows table of its share of the column sums for every sign
    pattern of its rows, built by doubling (flipping row i subtracts 2 a_i),
    and the sign of each pattern.  Each high pattern then takes the column
    products for all low patterns at once and one signed dot product.  With
    wraparound every product and sum is exact mod 2^64.  Mod p, at most 6
    column sums (each |sum| <= n <= 28, so their product is below 2^29) are
    multiplied before a reduction, so no product reaches 2^60, and a dot
    product of 2^(n//2) residues stays below 2^45.
    """
    n = len(a)

    def table(rows, start):
        sums = np.zeros((n, 1 << len(rows)), dtype=np.int64)
        sums[:, 0] = start
        sign = np.ones(1 << len(rows), dtype=np.int64)
        for b, i in enumerate(rows):
            sums[:, 1 << b:2 << b] = sums[:, :1 << b] - 2 * a[i][:, None]
            sign[1 << b:2 << b] = -sign[:1 << b]
        return sums, sign

    split = 1 + n // 2
    low, low_sign = table(range(1, split), a.sum(axis=0))
    high, high_sign = table(range(split, n), 0)
    total = 0
    for k in range(high.shape[1]):
        sums = low + high[:, k:k + 1]
        if p is None:
            prods = np.prod(sums, axis=0)
        else:
            prods = np.prod(sums[:6], axis=0) % p
            for i in range(6, n, 6):
                prods = prods * np.prod(sums[i:i + 6], axis=0) % p
        s = int(low_sign @ prods)
        total += s if high_sign[k] > 0 else -s
    return total % (p or 1 << 64)


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
