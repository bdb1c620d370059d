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
row gives the bit-identical defect and bound.
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import InvalidParameters, check_seed
from .graph import _mask

DEFECT_TOL = 1e-9
_BLOCK = 1024  # pairs per kernel call: each block is a few 1024 x n float64 arrays


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


def _defects(a, cert, s, t):
    """Per-row (e, |e - (d/n)|S||T||, lambda*sqrt(|S||T|)) of the 0/1 blocks
    s and t against the float64 adjacency matrix a; e is exact (see the
    module docstring)."""
    e = np.einsum("ij,ij->i", s @ a, t)
    size_s, size_t = s.sum(axis=1), t.sum(axis=1)
    expected = cert.d / cert.n * size_s * size_t
    defect = np.abs(e - expected)
    bound = cert.lam * np.sqrt(size_s * size_t)
    return e, defect, bound


def _membership(n, cols, values=1.0):
    """k x n block with ``values`` put at ``cols[i]`` of row i."""
    m = np.zeros((len(cols), n))
    np.put_along_axis(m, cols, values, axis=1)
    return m


def mixing_defect(g, cert, s, t):
    """(e(S,T), |e - (d/n)|S||T||, lambda*sqrt(|S||T|)) for one pair: a
    one-row call of the kernel ``verify_mixing`` runs."""
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


def _battery(n):
    """(S, T) blocks of the seed-independent pairs, in order: all n^2
    singleton pairs ({i}, {j}) row-major, the full pair (V, V), then every
    (S, S) with 2 <= |S| <= 4 when n <= 16, else |S| = 2, lexicographic."""
    eye = np.eye(n)
    for start in range(0, n * n, _BLOCK):
        p = np.arange(start, min(start + _BLOCK, n * n))
        yield eye[p // n], eye[p % n]
    full = np.ones((1, n))
    yield full, full
    for size in range(2, (4 if n <= 16 else 2) + 1):
        combos = combinations(range(n), size)
        while chunk := list(islice(combos, _BLOCK)):
            s = _membership(n, np.array(chunk))
            yield s, s


def _sample_blocks(n, count, seed):
    """(S, T) blocks of ``count`` random pairs from
    ``np.random.default_rng(seed)``.  Per block of b pairs: |S| and |T| are
    drawn uniform on 1..n, then each set is the first |S| (|T|) entries of a
    uniformly random permutation of 0..n-1 (argsort of b x n iid uniform
    keys), so it is a uniform subset of its size."""
    rng = np.random.default_rng(seed)
    cols = np.arange(n)

    def subsets(sizes):
        order = rng.random((len(sizes), n)).argsort(axis=1)
        return _membership(n, order, (cols < sizes[:, None]).astype(float))

    for start in range(0, count, _BLOCK):
        size_s, size_t = rng.integers(1, n + 1, size=(2, min(_BLOCK, count - start)))
        yield subsets(size_s), subsets(size_t)


def verify_mixing(g, cert, sample_count=1000, seed=0):
    """Check the mixing inequality on all singleton pairs, the full-set
    pair, every (S,S) with |S| small, and ``sample_count`` random (S,T)
    pairs drawn by ``_sample_blocks`` from ``seed`` (a non-negative int).

    Zero violations is a theorem for a correct certificate; a positive
    count refutes the supplied lambda.  The deterministic small-set
    battery matters for refutation: an understated lambda shows up first
    on sparse or dense small sets that uniform sampling almost never hits.

    Pairs go through the kernel ``_defects`` in blocks of ``_BLOCK`` rows.
    The normalised defect is defect/bound, or, where the bound is 0, 0.0 for
    a defect within DEFECT_TOL and inf otherwise.  ``worst_pair`` is the
    first pair, in battery-then-sample order, whose normalised defect is the
    largest positive one.
    """
    if sample_count < 1:
        raise InvalidParameters("verify_mixing: sample_count >= 1 required")
    check_seed(seed, "verify_mixing: seed")
    n = g.n
    a = g.adjacency_matrix()
    checked, violations = 0, 0
    worst, worst_pair = 0.0, ([], [])
    for s, t in chain(_battery(n), _sample_blocks(n, sample_count, seed)):
        _, defect, bound = _defects(a, cert, s, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.where(bound > 0, defect / bound, np.where(defect <= DEFECT_TOL, 0.0, np.inf))
        i = int(np.argmax(norm))
        if norm[i] > worst:
            worst = float(norm[i])
            worst_pair = (np.flatnonzero(s[i]).tolist(), np.flatnonzero(t[i]).tolist())
        violations += int(np.count_nonzero(defect > bound + DEFECT_TOL))
        checked += len(s)
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
    return [v for v in range(g.n) if nm >> v & 1]


def expansion_check(g, cert, x):
    """Small-set expansion |N(X)| >= (d-2*lam)^2/(3*lam^2) * |X|, applicable
    only when |X| <= lam^2 * n / d^2."""
    if not x:
        raise InvalidParameters("expansion_check: X must be nonempty")
    lam, d, n = cert.lam, cert.d, cert.n
    applicable = lam > 0 and len(set(x)) <= lam * lam * n / (d * d)
    observed = len(external_neighborhood(g, x))
    required = (d - 2 * lam) ** 2 / (3 * lam * lam) * len(set(x)) if lam > 0 else math.inf
    return observed, required, applicable


def large_sets_edge(g, cert, x, y):
    """There is an edge between disjoint sets larger than lam*n/d each."""
    xs, ys = set(x), set(y)
    if xs & ys:
        raise InvalidParameters("large_sets_edge: sets must be disjoint")
    threshold = cert.lam * cert.n / cert.d
    if len(xs) <= threshold or len(ys) <= threshold:
        raise InvalidParameters(
            f"large_sets_edge: both sets must have size > {threshold:.4f}"
        )
    return edge_count(g, sorted(xs), sorted(ys)) > 0
