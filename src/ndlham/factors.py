"""Exact counting of 2-factors, Hamilton cycles and perfect matchings.

A 2-factor here follows the permutation-cycle-cover reading: the vertex set
is partitioned into components, each a single edge or a graph cycle of
length >= 3.  Every component of length >= 3 contributes a factor of two in
the permanent expansion (its two orientations), which is what makes the
``weighted_total`` of ``factor_histogram`` agree with the exact permanent.
One component walk, ``_components``, serves both the 2-factor list and the
histogram: it lists the edges and canonical cycles through the lowest free
vertex.  Both memoize on the free-vertex mask, the histogram its generating
functions and the enumerator its list of covers.  Hamilton cycles are
counted by the Held-Karp subset DP over the live subsets of each popcount
layer, on int64 residues mod 2^64 and, where 2h may not fit, mod a prime.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, check_cap
from .graph import _bits

ENUM_CAP = 16
HAMILTON_CAP = 24
MATCHING_CAP = 30
PHI_CAP = 14
NEAR_CAP = 12
PRIME = 2**58 - 27  # a sum of n - 2 <= 22 residues stays below 2^63


@dataclass(frozen=True, slots=True)
class TwoFactor:
    """Partition of the vertices into edge-components and cycles."""

    components: tuple

    @property
    def num_components(self):
        return len(self.components)

    @property
    def num_long_cycles(self):
        """c(F): components that are genuine cycles (length >= 3)."""
        return sum(1 for c in self.components if len(c) >= 3)

    def edges(self):
        out = set()
        for comp in self.components:
            if len(comp) == 2:
                out.add(tuple(sorted(comp)))
            else:
                for i in range(len(comp)):
                    out.add(tuple(sorted((comp[i], comp[(i + 1) % len(comp)]))))
        return out


def validate_two_factor(g, f):
    """Raise InvalidParameters unless the components of ``f`` partition the
    vertices of ``g`` into edges and cycles of ``g``."""
    rows = g.rows
    covered, size = 0, 0
    try:
        for comp in f.components:
            for v in comp:
                covered |= 1 << v
            size += len(comp)
    except ValueError:  # negative vertex
        covered = -1
    if size != g.n or covered != (1 << g.n) - 1:
        raise InvalidParameters("two-factor components must partition the vertex set")
    for comp in f.components:
        if len(comp) < 2:
            raise InvalidParameters("component shorter than 2")
        if len(comp) == 2:
            if not rows[comp[0]] >> comp[1] & 1:
                raise InvalidParameters(f"non-edge component {comp}")
        else:
            for u, v in zip(comp, comp[1:] + comp[:1]):
                if not rows[u] >> v & 1:
                    raise InvalidParameters(f"non-edge ({u},{v}) in component {comp}")


def _components(rows, free, visit):
    """Call ``visit(comp, rest)`` for every component through the lowest
    vertex v of the mask ``free``: first the edges {v, u} in ascending u,
    then the cycles of length >= 3 in DFS order.  ``comp`` is canonical (v
    first, second vertex below the last) and ``rest`` is ``free`` without
    it.  A path v, p1, ... is extended only while a neighbour of v above p1
    is still unused, since a canonical cycle can only close there, and while
    its last vertex has a neighbour off the path.
    """
    v = (free & -free).bit_length() - 1
    avail = free ^ (1 << v)
    for u in _bits(rows[v] & avail):
        visit((v, u), avail ^ (1 << u))
    path = [v]

    def extend(cur, left, ends):
        # left: vertices of avail off the path; ends: the unused vertices
        # where the cycle may still close
        for w in _bits(rows[cur] & left):
            bit = 1 << w
            path.append(w)
            if ends & bit:
                visit(tuple(path), left ^ bit)
            if ends & ~bit and rows[w] & left & ~bit:
                extend(w, left ^ bit, ends & ~bit)
            path.pop()

    for w in _bits(rows[v] & avail):
        ends = rows[v] & avail & -(2 << w)
        if ends:
            path.append(w)
            extend(w, avail ^ (1 << w), ends)
            path.pop()


def enumerate_two_factors(g):
    """All 2-factors of g, each exactly once, in canonical form.

    The covers of a free mask are its components through the lowest free
    vertex, each followed by every cover of the rest; the lists are
    memoized on the mask, so each mask is walked once.  The order is
    lexicographic by the canonical encoding.
    """
    check_cap(g.n, ENUM_CAP, "enumerate_two_factors")
    rows = g.rows
    memo = {0: [()]}

    def covers(free):
        hit = memo.get(free)
        if hit is not None:
            return hit
        out = []

        def visit(comp, rest):
            out.extend((comp,) + t for t in covers(rest))

        _components(rows, free, visit)
        memo[free] = out
        return out

    found = [TwoFactor(t) for t in covers((1 << g.n) - 1)]
    memo.clear()  # the closures form a cycle; free the memo now, not at GC
    return found


@dataclass(frozen=True)
class FactorHistogram:
    """f(G,s) by component count s, plus the total and the 2^c(F)-weighted
    total (which equals the permanent of the adjacency matrix)."""

    counts: dict
    total: int
    weighted_total: int
    weighted_by_s: dict

    def to_json_dict(self):
        return {
            "counts": {str(s): str(c) for s, c in sorted(self.counts.items())},
            "total": str(self.total),
            "weighted_total": str(self.weighted_total),
        }


def factor_histogram(g):
    """Count the 2-factors by component count s, plain and 2^c(F)-weighted.

    Both are generating functions in x = 2^B, memoized on the free mask and
    packed into one Python int each: the cover count and the weight of the
    covers of a free set, with the coefficient of x^s belonging to s
    components.  Every coefficient is at most per(A) <= n! < 2^B, so the
    slots never carry into each other.  A component shifts its remainder's
    pair by B, and a cycle of length >= 3 doubles the weight.
    """
    check_cap(g.n, ENUM_CAP, "factor_histogram")
    n = g.n
    rows = g.rows
    width = math.factorial(n).bit_length()
    memo = {0: (1, 1)}

    def covers(free):
        hit = memo.get(free)
        if hit is not None:
            return hit
        acc = [0, 0]

        def visit(comp, rest):
            count, weight = covers(rest)
            acc[0] += count
            acc[1] += weight << (len(comp) > 2)

        _components(rows, free, visit)
        memo[free] = pair = (acc[0] << width, acc[1] << width)
        return pair

    count, weight = covers((1 << n) - 1)
    memo.clear()  # the closures form a cycle; free the memo now, not at GC
    slot = (1 << width) - 1
    counts, weighted_by_s = {}, {}
    for s in range(n + 1):
        c = count >> s * width & slot
        if c:
            counts[s] = c
            weighted_by_s[s] = weight >> s * width & slot
    return FactorHistogram(
        counts=counts,
        total=sum(counts.values()),
        weighted_total=sum(weighted_by_s.values()),
        weighted_by_s=weighted_by_s,
    )


# ---------------------------------------------------------------------------
# Hamilton cycles


def hamilton_count_exact(g):
    """h(G) by dynamic programming over (visited-subset, endpoint) states.

    Paths are rooted at vertex 0 and closed back to it, so each cycle is
    counted twice, and 2h <= B = min((n-1)!, deg(0) (max degree - 1)^(n-2)).
    One pass gives 2h mod 2^64, which is 2h when B < 2^64; otherwise a pass
    mod PRIME follows, and the CRT rebuilds 2h < 2^64 PRIME (> 23!).
    """
    check_cap(g.n, HAMILTON_CAP, "hamilton_count_exact")
    n = g.n
    if n < 3:
        return 0
    bound = min(math.factorial(n - 1), g.degree(0) * (max(g.degrees) - 1) ** (n - 2))
    twice = _hamilton_dp(g)
    if bound >= 1 << 64:
        lift = (_hamilton_dp(g, PRIME) - twice) * pow(1 << 64, -1, PRIME) % PRIME
        twice += lift << 64
    return twice // 2


def _hamilton_dp(g, p=None):
    """2h(G) mod 2^64, or mod ``p``, by the Held-Karp DP over popcount
    layers of the subsets of 1..n-1, kept sparse: each layer holds only its
    live masks.

    Bit u - 1 of a mask stands for vertex u; the value at (u, mask) counts
    the paths that start at 0, visit exactly 0 and the mask, and end at u.
    A layer is the ascending array ``masks`` and the int64 table ``cnt``,
    with ``cnt[u - 1, pos]`` for ``masks[pos]``.  For each endpoint u, the
    counts of u's neighbors are summed over the masks without u, and the
    nonzero sums go to the masks with u added; those are stamped into
    ``live``, a flag per subset, and ``rank`` maps the next layer's masks
    to their positions.  The DP only adds, so cells that wrap stay exact
    mod 2^64 and a zero residue can be dropped; mod p < 2^58, each sum of
    at most n - 2 residues is reduced before it can reach 2^63.
    """
    n = g.n
    rows = g.rows
    size = 1 << (n - 1)
    live = np.zeros(size, dtype=bool)
    rank = np.zeros(size, dtype=np.int32)
    # layer 1: the one-edge paths from 0, one per neighbor u, mask 1 << (u - 1)
    first = np.array([u - 1 for u in _bits(rows[0])], dtype=np.int32)
    masks = np.left_shift(1, first, dtype=np.int32)
    cnt = np.zeros((n - 1, len(first)), dtype=np.int64)
    cnt[first, np.arange(len(first))] = 1
    # rows of the DP that may precede u on a path: its neighbors other than 0
    preds = [[v - 1 for v in _bits(rows[u] & ~1)] for u in range(n)]
    for _ in range(2, n):
        steps = []
        for u in range(1, n):
            if not preds[u]:
                continue
            bit = 1 << (u - 1)
            src = np.flatnonzero((masks & bit) == 0)
            acc = cnt[preds[u][0]][src]
            for v in preds[u][1:]:
                acc += cnt[v][src]
            if p:
                acc %= p
            keep = np.flatnonzero(acc)
            to = masks[src[keep]] | bit
            live[to] = True
            steps.append((u - 1, to, acc[keep]))
        # drop the old table before the new one is allocated
        cnt = None
        masks = np.flatnonzero(live).astype(np.int32)
        live[masks] = False
        rank[masks] = np.arange(len(masks), dtype=np.int32)
        cnt = np.zeros((n - 1, len(masks)), dtype=np.int64)
        for row, to, val in steps:
            cnt[row][rank[to]] = val
    # the last layer is the full mask alone, or empty
    if not len(masks):
        return 0
    return sum(int(cnt[v - 1, 0]) for v in _bits(rows[0])) % (p or 1 << 64)


def is_hamilton_cycle(g, seq):
    """Whether ``seq`` lists a Hamilton cycle of g: n vertices, each a
    neighbor of the one before it (the first of the last), whose bits fill
    the vertex mask."""
    n = g.n
    if len(seq) != n or n < 3 or not 0 <= seq[-1] < n:
        return False
    rows = g.rows
    seen = 0
    u = seq[-1]
    for v in seq:
        # a vertex >= n is in no row; a negative one is rejected first
        if v < 0 or not rows[u] >> v & 1:
            return False
        seen |= 1 << v
        u = v
    return seen == (1 << n) - 1


# ---------------------------------------------------------------------------
# perfect matchings


def perfect_matching_count(g):
    """m(G): match the lowest uncovered vertex to each neighbor, memoized on
    the uncovered-vertex bitset."""
    if g.n % 2 != 0:
        raise InvalidParameters("perfect_matching_count: n must be even")
    check_cap(g.n, MATCHING_CAP, "perfect_matching_count")
    rows = g.rows
    memo = {0: 1}

    def count(free):
        hit = memo.get(free)
        if hit is not None:
            return hit
        v = (free & -free).bit_length() - 1
        rest = free ^ (1 << v)
        total = 0
        for u in _bits(rows[v] & rest):
            total += count(rest ^ (1 << u))
        memo[free] = total
        return total

    return count((1 << g.n) - 1)


# ---------------------------------------------------------------------------
# phi and near-Hamilton counts


def phi(g, k):
    """Maximum 2-factor count over all induced k-vertex subgraphs."""
    return phi_argmax(g, k)[0]


def phi_argmax(g, k):
    """(max f(G[V0]), one maximizing V0) over k-subsets."""
    from itertools import combinations

    if not 2 <= k <= g.n:
        raise InvalidParameters("phi: 2 <= k <= n required")
    check_cap(g.n, PHI_CAP, "phi")
    best, best_set = -1, None
    for subset in combinations(range(g.n), k):
        val = factor_histogram(g.induced(subset)).total
        if val > best:
            best, best_set = val, subset
    return best, best_set


def two_factors_near_hamilton(g, h, k):
    """Number of 2-factors within k edge replacements of the Hamilton cycle
    h: those obtainable by deleting at most k cycle edges and re-tailoring,
    i.e. |E(H) \\ E(F)| <= k."""
    if not 0 <= k <= 3:
        raise InvalidParameters("two_factors_near_hamilton: 0 <= k <= 3 required")
    check_cap(g.n, NEAR_CAP, "two_factors_near_hamilton")
    if h.num_components != 1 or not is_hamilton_cycle(g, h.components[0]):
        raise InvalidParameters("two_factors_near_hamilton: H is not a Hamilton cycle")
    h_edges = h.edges()
    count = 0
    for f in enumerate_two_factors(g):
        if len(h_edges - f.edges()) <= k:
            count += 1
    return count
