"""Edge-distribution check: the expander mixing inequality, sampled over
pairs of vertex sets.  Its two corollaries (small-set vertex expansion, an
edge between large disjoint sets) are checked in the tests.

The mixing check runs on 0/1 membership blocks: row i of the k x n arrays
S and T marks the i-th pair's sets, and one kernel computes, per row,
e(S,T) = rowsum((S @ A) * T), the expectation (d/n)|S||T|, the defect and
the bound lambda*sqrt(|S||T|).  Every entry of S @ A is |N(v) ∩ S| <= n and
every e is at most n^2, so each partial sum is an integer at most n^2.  One
width rule on n, ``_widths``, sets the blocks' dtype: float32 while
n^2 < 2^24, where float32 holds every such integer exactly, and float64
(exact below 2^53) from n = 4096 on; either way e is exact whatever order
BLAS adds in.  e and the set sizes are then taken as float64, and the float
expressions that follow are evaluated in the same order as the scalar
formula, so each row gives the bit-identical defect and bound.  The n^2
singleton pairs and the (S,S) pairs with |S| = 2 skip the product: their e
is A[i,j] or 2 A[i,j], read from A, and the same float expressions follow.

Blocks hold at most ``_BLOCK`` rows, so one block's arrays stay in cache,
and each generator fills the same buffers for every block it yields: a
block is valid only until the next one is drawn.  A random k-subset is
drawn by a sort threshold: n iid uniform keys, a sorted copy of them, and
the columns whose key is <= the k-th smallest.  The keys are 16-bit, four
to each 64-bit word of the generator, while n^2 < 2^24, and 32-bit, two to
a word, from n = 4096 on, where 16-bit keys would tie often.  When the
k-th and (k+1)-th smallest keys tie, which has probability below n 2^-16,
about n 2^-17 (below n 2^-32 for 32-bit keys), the row's keys are drawn
again, so every set has exactly its drawn size and, given that size, is
uniform.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import InvalidParameters, check_certificate, check_seed, is_int
from .graph import _unpack

DEFECT_TOL = 1e-9
_BLOCK = 256  # pairs per kernel call: a block's few 256 x n arrays (see _widths) stay in cache


def _widths(n):
    """(key dtype, block dtype) of the mixing check on n vertices: uint16
    keys and float32 blocks while n^2 < 2^24, so that float32 sums of 0/1
    products are exact and a 16-bit threshold ties with probability below
    n 2^-16; uint32 keys and float64 blocks from n = 4096 on."""
    if n * n < 1 << 24:
        return np.uint16, np.float32
    return np.uint32, np.float64


def _defects(a, cert, s, t, sa=None):
    """Per-row float64 (e, |e - (d/n)|S||T||, lambda*sqrt(|S||T|)) of the
    0/1 blocks s and t against the 0/1 adjacency matrix a, float32 or
    float64; e is exact while n^2 < 2^24 in float32 and n^2 < 2^53 in
    float64 (see the module docstring).  ``sa``, if given, is a buffer of
    s's shape that receives s @ a."""
    e = np.einsum("ij,ij->i", np.matmul(s, a, out=sa), t).astype(np.float64)
    return (e, *_judge(cert, e, s.sum(axis=1), t.sum(axis=1)))


def _judge(cert, e, size_s, size_t):
    """(|e - (d/n)|S||T||, lambda*sqrt(|S||T|)) from e and the set sizes,
    given per row or as one number for every row, all taken as float64 (a
    float32 array would otherwise keep float32 arithmetic against a Python
    float), in the scalar formula's float order."""
    e, size_s, size_t = (np.asarray(x, np.float64) for x in (e, size_s, size_t))
    expected = cert.d / cert.n * size_s * size_t
    return np.abs(e - expected), cert.lam * np.sqrt(size_s * size_t)


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
    read from A; every other block goes through the kernel ``_defects`` at
    the block dtype of ``_widths(n)``, the dtype ``a`` is given in.
    """
    n = len(a)
    dtype = _widths(n)[1]
    sa = np.empty((_BLOCK, n), dtype)
    yield (*_judge(cert, a.ravel(), 1.0, 1.0), lambda i: ([i // n], [i % n]))
    full = np.ones((1, n), dtype)
    yield from _kernel(a, cert, [(full, full)], sa)
    if n > 1:
        two = np.transpose(np.triu_indices(n, 1))
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
    s = np.empty((_BLOCK, n), _widths(n)[1])
    for size in sizes:
        combos = combinations(range(n), size)
        while chunk := list(islice(combos, _BLOCK)):
            k = len(chunk)
            s[:k] = 0.0
            s[np.arange(k)[:, None], chunk] = 1.0
            yield s[:k], s[:k]


def _keys(rng, dtype, *shape):
    """An array of ``shape`` of iid uniform keys of the unsigned ``dtype``:
    the 16-bit quarters (or 32-bit halves) of as many raw 64-bit words of
    ``rng``'s generator as they need, in order."""
    size = math.prod(shape)
    per_word = 8 // np.dtype(dtype).itemsize
    return rng.bit_generator.random_raw(-(-size // per_word)).view(dtype)[:size].reshape(shape)


def _subsets(rng, sizes, keys, srt, out):
    """Set row i of the 0/1 block ``out`` to the sizes[i] columns of row i
    of ``keys`` with the smallest keys: those <= the sizes[i]-th smallest,
    found in ``srt``, a sorted copy of keys' dtype.  A row whose sizes[i]-th
    and (sizes[i]+1)-th smallest keys tie would get more columns, so the
    tied rows' keys are drawn again by ``_keys``, in row order, until no
    row ties; with n keys a threshold ties with probability below n 2^-16
    for 16-bit keys and n 2^-32 for 32-bit ones."""
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
        keys[tied] = _keys(rng, keys.dtype, np.count_nonzero(tied), n)
    np.less_equal(keys, thresh[:, None], out=out)


def _sample_blocks(n, count, seed):
    """(S, T) blocks of ``count`` random pairs from
    ``np.random.default_rng(seed)``, at the key and block dtypes of
    ``_widths(n)``.  Per block of b pairs: the b sizes |S| and then the b
    sizes |T| are drawn uniform on 1..n, then 2b x n keys by ``_keys``, S's
    b rows and then T's, and each set is the columns of its row that are
    <= the row's |S|-th (|T|-th) smallest key, so it is a uniform subset of
    its size; one ``_subsets`` call sorts all 2b rows and redraws the tied
    ones, S's before T's.  The blocks share buffers: each is valid only
    until the next is drawn."""
    rng = np.random.default_rng(seed)
    key, block = _widths(n)
    srt = np.empty((2 * _BLOCK, n), key)
    st = np.empty((2 * _BLOCK, n), block)
    for start in range(0, count, _BLOCK):
        k = min(_BLOCK, count - start)
        sizes = rng.integers(1, n + 1, size=2 * k)
        _subsets(rng, sizes, _keys(rng, key, 2 * k, n), srt[: 2 * k], st[: 2 * k])
        yield st[:k], st[k : 2 * k]


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
    if not is_int(sample_count) or sample_count < 1:
        raise InvalidParameters(f"verify_mixing: sample_count must be an integer >= 1, got {sample_count!r}")
    check_seed(seed, "verify_mixing: seed")
    checked, violations = 0, 0
    worst, worst_pair = 0.0, ([], [])
    a = _unpack(g.rows, g.n).astype(_widths(g.n)[1])
    for defect, bound, pair in _pair_blocks(a, cert, sample_count, seed):
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
