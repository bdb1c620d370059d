"""Edge-distribution checks: the expander mixing inequality and the two
derived facts (small-set vertex expansion, guaranteed edge between large
disjoint sets).

The mixing check runs on 0/1 membership blocks: row i of the k x n float64
arrays S and T marks the i-th pair's sets, and one kernel computes, per row,
e(S,T) = rowsum((S @ A) * T), the expectation (d/n)|S||T|, the defect and
the bound lambda*sqrt(|S||T|).  Every entry of S @ A is |N(v) ∩ S| <= n and
every e is at most n^2 < 2^53, so each partial sum is an integer that
float64 holds exactly, whatever order BLAS adds in; the float expressions
that follow are evaluated in the same order as the scalar formula, so each
row gives the bit-identical defect and bound.  The n^2 singleton pairs and
the (S,S) pairs with |S| = 2 skip the product: their e is A[i,j] or
2 A[i,j], read from A, and the same float expressions follow.

Blocks hold at most ``_BLOCK`` rows, so one block's arrays stay in cache,
and each generator fills the same buffers for every block it yields: a
block is valid only until the next one is drawn.  A random k-subset is
drawn by a sort threshold: n iid uniform keys, a sorted copy of them, and
the columns whose key is <= the k-th smallest.  When the k-th and
(k+1)-th smallest keys tie, which has probability below n^2 2^-54, the
row's keys are drawn again, so every set has exactly its drawn size.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import InvalidParameters, check_certificate, check_seed
from .graph import _bits, _mask

DEFECT_TOL = 1e-9
_BLOCK = 256  # pairs per kernel call: a block's few 256 x n float64 arrays stay in cache


def edge_count(g, s, t):
    """Number of edges with one endpoint in s and the other in t.

    For overlapping sets this follows the convention e(U,U) = 2*e(U):
    an edge inside the overlap is counted once per orientation.
    """
    _mask(s, g.n)  # range validation
    t_mask = _mask(t, g.n)
    # sum over v in S of |N(v) ∩ T|: each cross edge once, each edge with
    # both endpoints in the overlap twice, matching e(U,U) = 2 e(U)
    return sum((g.rows[v] & t_mask).bit_count() for v in set(s))


def _defects(a, cert, s, t, sa=None):
    """Per-row (e, |e - (d/n)|S||T||, lambda*sqrt(|S||T|)) of the 0/1 blocks
    s and t against the float64 adjacency matrix a; e is exact (see the
    module docstring).  ``sa``, if given, is a buffer of s's shape that
    receives s @ a."""
    e = np.einsum("ij,ij->i", np.matmul(s, a, out=sa), t)
    return (e, *_judge(cert, e, s.sum(axis=1), t.sum(axis=1)))


def _judge(cert, e, size_s, size_t):
    """(|e - (d/n)|S||T||, lambda*sqrt(|S||T|)) from e and the set sizes,
    given per row or as one float for every row, in the scalar formula's
    float order."""
    expected = cert.d / cert.n * size_s * size_t
    return np.abs(e - expected), cert.lam * np.sqrt(size_s * size_t)


def mixing_defect(g, cert, s, t):
    """(e(S,T), |e - (d/n)|S||T||, lambda*sqrt(|S||T|)) for one pair: a
    one-row call of the kernel ``verify_mixing`` runs."""
    check_certificate(g, cert, "mixing_defect")
    if not s or not t:
        raise InvalidParameters("mixing_defect: sets must be nonempty")
    _mask(s, g.n)  # range validation
    _mask(t, g.n)
    m = np.zeros((2, g.n))
    m[0, list(s)] = m[1, list(t)] = 1.0
    e, defect, bound = _defects(g.adjacency_matrix(), cert, m[:1], m[1:])
    return int(e[0]), float(defect[0]), float(bound[0])


@dataclass(frozen=True)
class MixingReport:
    pairs_checked: int
    max_normalized_defect: float
    worst_pair: tuple  # (sorted S, sorted T); ([], []) when no normalised defect is positive
    violations: int

    def to_json_dict(self):
        return {
            "pairs_checked": self.pairs_checked,
            "max_normalized_defect": self.max_normalized_defect,
            "worst_pair": [list(self.worst_pair[0]), list(self.worst_pair[1])],
            "violations": self.violations,
        }


def _pair_blocks(a, cert, sample_count, seed):
    """(defect, bound, pair) per block of pairs, in order: all n^2 singleton
    pairs ({i}, {j}) row-major, the full pair (V, V), every (S, S) with
    |S| = 2, then with 3 <= |S| <= 4 when n <= 16, lexicographic, then the
    ``sample_count`` pairs of ``_sample_blocks``.  ``pair(i)`` gives the
    block's i-th pair as (sorted S, sorted T) and is valid only until the
    next block is drawn.

    e({i},{j}) = A[i,j] and e({i,j},{i,j}) = 2 A[i,j], so those pairs are
    read from A; every other block goes through the kernel ``_defects``.
    """
    n = len(a)
    sa = np.empty((_BLOCK, n))
    yield (*_judge(cert, a.ravel(), 1.0, 1.0), lambda i: ([i // n], [i % n]))
    full = np.ones((1, n))
    yield from _kernel(a, cert, [(full, full)], sa)
    if n > 1:
        two = np.array(list(combinations(range(n), 2)))
        yield (*_judge(cert, 2.0 * a[two[:, 0], two[:, 1]], 2.0, 2.0),
               lambda i: (two[i].tolist(), two[i].tolist()))
    if n <= 16:
        yield from _kernel(a, cert, _same_sets(n, (3, 4)), sa)
    yield from _kernel(a, cert, _sample_blocks(n, sample_count, seed), sa)


def _kernel(a, cert, blocks, sa):
    """(defect, bound, pair) of each (S, T) block of ``blocks`` by
    ``_defects``, with ``sa`` as its s @ a buffer."""
    for s, t in blocks:
        _, defect, bound = _defects(a, cert, s, t, sa[: len(s)])
        yield defect, bound, lambda i, s=s, t=t: (
            np.flatnonzero(s[i]).tolist(), np.flatnonzero(t[i]).tolist())


def _same_sets(n, sizes):
    """(S, S) blocks of every S with |S| in ``sizes``, lexicographic.  The
    blocks share a buffer: each is valid only until the next is drawn."""
    s = np.empty((_BLOCK, n))
    for size in sizes:
        combos = combinations(range(n), size)
        while chunk := list(islice(combos, _BLOCK)):
            k = len(chunk)
            s[:k] = 0.0
            s[np.arange(k)[:, None], chunk] = 1.0
            yield s[:k], s[:k]


def _subsets(rng, sizes, keys, srt, out):
    """Set row i of the 0/1 block ``out`` to the sizes[i] columns of row i
    of ``keys`` with the smallest keys: those <= the sizes[i]-th smallest,
    found in ``srt``, a sorted copy.  A row whose sizes[i]-th and
    (sizes[i]+1)-th smallest keys tie would get more columns, so its keys
    are drawn again from ``rng`` until they do not tie."""
    n = keys.shape[1]
    rows = np.arange(len(sizes))
    nxt = np.minimum(sizes, n - 1)  # a row with sizes[i] = n cannot tie
    while True:
        np.copyto(srt, keys)
        srt.sort(axis=1)
        thresh = srt[rows, sizes - 1]
        tied = (sizes < n) & (srt[rows, nxt] == thresh)
        if not tied.any():
            break
        keys[tied] = rng.random((np.count_nonzero(tied), n))
    np.less_equal(keys, thresh[:, None], out=out)


def _sample_blocks(n, count, seed):
    """(S, T) blocks of ``count`` random pairs from
    ``np.random.default_rng(seed)``.  Per block of b pairs: |S| and |T| are
    drawn uniform on 1..n, then each set is the columns of a row of b x n
    iid uniform keys that are <= the row's |S|-th (|T|-th) smallest key, so
    it is a uniform subset of its size; ``_subsets`` redraws a row whose
    threshold ties.  The blocks share buffers: each is valid only until the
    next is drawn."""
    rng = np.random.default_rng(seed)
    keys, srt, s, t = np.empty((4, _BLOCK, n))
    for start in range(0, count, _BLOCK):
        k = min(_BLOCK, count - start)
        size_s, size_t = rng.integers(1, n + 1, size=(2, k))
        for sizes, out in ((size_s, s[:k]), (size_t, t[:k])):
            rng.random(out=keys[:k])
            _subsets(rng, sizes, keys[:k], srt[:k], out)
        yield s[:k], t[:k]


def verify_mixing(g, cert, sample_count=1000, seed=0):
    """Check the mixing inequality on all singleton pairs, the full-set
    pair, every (S,S) with |S| small, and ``sample_count`` random (S,T)
    pairs drawn by ``_sample_blocks`` from ``seed`` (a non-negative int).

    Zero violations is a theorem for a correct certificate; a positive
    count refutes the supplied lambda.  The deterministic small-set
    battery matters for refutation: an understated lambda shows up first
    on sparse or dense small sets that uniform sampling almost never hits.

    Pairs come in blocks from ``_pair_blocks``.  The normalised defect is
    defect/bound, or, where the bound is 0, 0.0 for a defect within
    DEFECT_TOL and inf otherwise.  ``worst_pair`` is the first pair, in
    battery-then-sample order, whose normalised defect is the largest
    positive one.
    """
    check_certificate(g, cert, "verify_mixing")
    if sample_count < 1:
        raise InvalidParameters("verify_mixing: sample_count >= 1 required")
    check_seed(seed, "verify_mixing: seed")
    checked, violations = 0, 0
    worst, worst_pair = 0.0, ([], [])
    for defect, bound, pair in _pair_blocks(g.adjacency_matrix(), cert, sample_count, seed):
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.where(bound > 0, defect / bound, np.where(defect <= DEFECT_TOL, 0.0, np.inf))
        i = int(np.argmax(norm))
        if norm[i] > worst:
            worst = float(norm[i])
            worst_pair = pair(i)
        violations += int(np.count_nonzero(defect > bound + DEFECT_TOL))
        checked += len(defect)
    return MixingReport(
        pairs_checked=checked,
        max_normalized_defect=worst,
        worst_pair=worst_pair,
        violations=violations,
    )


def external_neighborhood(g, x):
    xm = _mask(x, g.n)
    nm = 0
    for v in x:
        nm |= g.rows[v]
    nm &= ~xm
    return _bits(nm)


def expansion_check(g, cert, x):
    """Small-set expansion |N(X)| >= (d-2*lam)^2/(3*lam^2) * |X|, applicable
    only when |X| <= lam^2 * n / d^2."""
    check_certificate(g, cert, "expansion_check")
    if not x:
        raise InvalidParameters("expansion_check: X must be nonempty")
    lam, d, n = cert.lam, cert.d, cert.n
    applicable = lam > 0 and len(set(x)) <= lam * lam * n / (d * d)
    observed = len(external_neighborhood(g, x))
    required = (d - 2 * lam) ** 2 / (3 * lam * lam) * len(set(x)) if lam > 0 else math.inf
    return observed, required, applicable


def large_sets_edge(g, cert, x, y):
    """There is an edge between disjoint sets larger than lam*n/d each."""
    check_certificate(g, cert, "large_sets_edge")
    xs, ys = set(x), set(y)
    if xs & ys:
        raise InvalidParameters("large_sets_edge: sets must be disjoint")
    threshold = cert.lam * cert.n / cert.d
    if len(xs) <= threshold or len(ys) <= threshold:
        raise InvalidParameters(
            f"large_sets_edge: both sets must have size > {threshold:.4f}"
        )
    return edge_count(g, sorted(xs), sorted(ys)) > 0
