"""Reference answers computed without the package's own algorithms.

Each workload compares the package's output against one of these, so an
identity is always checked by two different implementations.
"""

import math

import numpy as np


def permanent_meet_in_middle(rows, n):
    """Exact 0-1 permanent by Ryser's formula, split into column halves.

    Row-sum tables are built for every subset of the low and of the high
    columns; each high subset is then combined with all low subsets in one
    numpy product.  This shares no code with ``ndlham.permanent``.
    """
    max_row = max(r.bit_count() for r in rows)
    # every product is at most max_row^n and there are 2^n of them
    if n * (math.log2(max(max_row, 1)) + 1) >= 62:
        raise ValueError(f"permanent oracle: int64 cannot hold n={n}, row sum {max_row}")
    half = n // 2

    def table(cols):
        sums = np.zeros((1 << len(cols), n), dtype=np.int64)
        parity = np.zeros(1 << len(cols), dtype=np.int64)
        for b, j in enumerate(cols):
            col = np.array([(r >> j) & 1 for r in rows], dtype=np.int64)
            sums[1 << b : 2 << b] = sums[: 1 << b] + col
            parity[1 << b : 2 << b] = 1 - parity[: 1 << b]
        return sums, parity

    low, low_parity = table(range(half))
    high, high_parity = table(range(half, n))
    low_sign = 1 - 2 * low_parity
    total = 0
    for k in range(high.shape[0]):
        s = int(low_sign @ np.prod(low + high[k], axis=1))
        total += -s if high_parity[k] else s
    return total if n % 2 == 0 else -total


def second_eigenvalue_bound(g):
    """lambda = max(|eig_2|, |eig_n|) from LAPACK's symmetric solver."""
    eigs = np.linalg.eigvalsh(g.adjacency_matrix())  # ascending
    return float(max(abs(eigs[-2]), abs(eigs[0])))


def paley_lambda(q):
    """Paley graphs have nontrivial eigenvalues (-1 +- sqrt(q)) / 2."""
    return (1.0 + math.sqrt(q)) / 2.0


def mixing_pair_count(n, samples):
    """Pairs that ``verify_mixing`` checks: all singleton pairs, the full
    pair, every (S, S) with 2 <= |S| <= 4 (n <= 16) or |S| = 2 (n > 16),
    and the random samples."""
    largest = 4 if n <= 16 else 2
    return n * n + 1 + sum(math.comb(n, k) for k in range(2, largest + 1)) + samples
