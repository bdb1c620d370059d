"""Exact counting of 2-factors, Hamilton cycles and perfect matchings.

A 2-factor here follows the permutation-cycle-cover reading: the vertex set
is partitioned into components, each a single edge or a graph cycle of
length >= 3.  Every component of length >= 3 contributes a factor of two in
the permanent expansion (its two orientations), which is what makes the
``weighted_total`` of ``factor_histogram`` agree with the exact permanent.
Two algorithms count them, and each checks the other's totals.  The
enumerator walks the edges and canonical cycles through the lowest free
vertex, memoizes each free mask's list of covers and builds a component
only when the rest of its mask has a cover; ``hamiltonize`` draws its
2-factor from it.  The cover table counts without listing: it memoizes the
generating functions of G[X] for every mask X and merges the open paths of
a cycle that reach the same state, as Held and Karp's DP does; the
histogram, ``phi`` and the report read it.  All of them run up to ENUM_CAP
vertices.
Hamilton cycles are counted by the Held-Karp subset DP over the live subsets
of each popcount layer, met in the middle: the layers up to (n - 1) // 2
are built and one join pairs each path from vertex 0 with the reversed rest
of its cycle.  It runs on int64 residues mod 2^64 and, where 2h may not
fit, mod the permanent's first prime.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidParameters, check_cap, is_int
from .graph import _bits, _vertex
from .permanent import crt_lift

ENUM_CAP = 16
HAMILTON_CAP = 24
MATCHING_CAP = 30


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
        return {(u, v) if u < v else (v, u)
                for comp in self.components for u, v in zip(comp, (*comp[1:], *comp[:1]))}


def validate_two_factor(g, f):
    """Raise InvalidParameters unless the components of ``f`` partition the
    vertices of ``g`` into edges and cycles of ``g``."""
    _component_masks(g, f)


def _component_masks(g, f, have=None):
    """Check ``f`` as ``validate_two_factor`` promises and return each
    component's vertex mask and its vertices as ints, in order.  Given a
    list ``have`` of n zeros, also fill it with the factor's edges as one
    bitset row per vertex, a 2-vertex component being one edge.

    One walk builds each component's mask and checks its edges, the one
    from its last vertex back to its first included, fills ``have`` only if
    it is given, and records the first component with a non-edge or fewer
    than 2 vertices.  A component with a vertex that is no int in 0..n-1
    adds its length to ``size`` but no mask, so the walk fails.  On a fault
    each vertex must be a vertex by ``graph._vertex``, or the partition
    fails; a factor with numpy integer vertices is then walked again as its
    int copy, with ``have`` zeroed.  The faults are named in this order: the
    partition, then the recorded component's length, then its first
    non-edge from ``comp[0]`` on."""
    rows, n, bad = g.rows, g.n, None
    out, covered, size = [], 0, 0
    for comp in f.components:
        try:
            size += len(comp)
            m, u = 0, comp[-1]
            if type(u) is not int:
                raise TypeError  # as any vertex that is no int, below
            for v in comp:
                if type(v) is not int:
                    raise TypeError
                bit = 1 << v
                if not rows[u] & bit and bad is None:
                    bad = comp
                m |= bit
                if have is not None:
                    have[u] |= bit
                    have[v] |= 1 << u
                u = v
            covered |= m
            out.append((m, comp))
        except (IndexError, TypeError, ValueError):
            # no vertex, one that is no int, or an int outside 0..n-1
            if bad is None:
                bad = comp
    full = (1 << n) - 1
    if bad is None and size == n and covered == full:
        return out
    partition = "two-factor components must partition the vertex set"
    try:
        ints = TwoFactor(tuple(tuple(_vertex(v, n) for v in c) for c in f.components))
    except (InvalidParameters, TypeError):  # or a component is no sequence
        raise InvalidParameters(partition) from None
    if any(type(v) is not int for c in f.components for v in c):
        if have is not None:
            have[:] = [0] * n
        return _component_masks(g, ints, have)
    if size != n or covered != full:
        raise InvalidParameters(partition)
    if len(bad) < 2:
        raise InvalidParameters("component shorter than 2")
    u = bad[0]
    for v in (*bad[1:], u):
        if not rows[u] >> v & 1:
            if len(bad) == 2:
                raise InvalidParameters(f"non-edge component {bad}")
            raise InvalidParameters(f"non-edge ({u},{v}) in component {bad}")
        u = v


def enumerate_two_factors(g):
    """All 2-factors of g, each exactly once, in canonical form.

    The covers of a free mask are its components through the lowest free
    vertex v, each followed by every cover of the rest: first the edges
    {v, u} in ascending u, then the cycles of length >= 3 in DFS order.  A
    component is canonical (v first, second vertex below the last).  A path
    v, p1, ... is extended only while a neighbour of v above p1 is still
    unused, since a canonical cycle can only close there, and while its last
    vertex has a neighbour off the path.  The lists are memoized on the
    mask, so each mask is walked once, and a component's tuple is built
    only when its rest has a cover; one list comprehension joins each kept
    component with the rest's list, in the walk's order.  The order is
    lexicographic by the canonical encoding.
    """
    check_cap(g.n, ENUM_CAP, "enumerate_two_factors")
    rows = g.rows
    memo = {0: [()]}

    def covers(free):
        hit = memo.get(free)
        if hit is not None:
            return hit
        low = free & -free
        v = low.bit_length() - 1
        avail = free ^ low
        adj = rows[v] & avail
        kept = []
        x = adj
        while x:
            bit = x & -x
            x ^= bit
            tails = covers(avail ^ bit)
            if tails:
                kept.append(((v, bit.bit_length() - 1), tails))
        x = adj
        while x:
            bit = x & -x
            x ^= bit
            if x:  # v's neighbours above the second vertex: the cycle's ends
                extend([v, bit.bit_length() - 1], avail ^ bit, x, kept)
        memo[free] = out = [(comp,) + t for comp, tails in kept for t in tails]
        return out

    def extend(path, left, ends, kept):
        # left: vertices of the free mask off the path; ends: the unused
        # vertices where the cycle may still close
        x = rows[path[-1]] & left
        while x:
            bit = x & -x
            x ^= bit
            rest, w = left ^ bit, bit.bit_length() - 1
            if ends & bit:
                tails = covers(rest)
                if tails:
                    kept.append(((*path, w), tails))
            more = ends & ~bit
            if more and rows[w] & rest:
                path.append(w)
                extend(path, rest, more, kept)
                path.pop()

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


class _CoverTable:
    """The 2-factor generating functions of one graph's induced subgraphs:
    ``covers(X)`` returns the count and the weight of the 2-factors of G[X]
    for any vertex mask X.  Both are generating functions in x = 2^B,
    packed into one Python int each, with the coefficient of x^s belonging
    to s components.  Every coefficient is at most per(A) <= n! < 2^B, so
    the slots never carry into each other.  A component shifts its
    remainder's pair by B, and a cycle of length >= 3 doubles the weight.

    The covers of X take its lowest vertex v with each neighbour u: the
    edge {v, u} adds ``covers(X - v - u)``, and the cycles v, u, ..., w add
    ``_path(left, u, ends)``.  A path state is the set ``left`` of vertices
    off the path, the open end ``cur`` and the set ``ends`` of v's unused
    neighbours above u; the cycle may close only at a vertex of ``ends``,
    so each cycle is counted once, in one direction.  Paths that reach the
    same state share its memo entry, as in the Held-Karp DP, and a state's
    key packs the three into one int.  Every state with no cover shares one
    ``(0, 0)`` pair, two thirds of the path states on rr(16,4,0).  The path
    states peak below the densest graphs: of K16, K16 minus a perfect
    matching and the complements of rr(16,d,0) for d = 2..6, the most are
    complement(rr(16,2,0))'s 926,200 (13-regular), whose process peaks at
    252 MB RSS (29 MB of it the imports) after 5.9 s on a 2-CPU VM; K16
    holds 823,298, 233 MB in 6.4 s."""

    _dead = (0, 0)

    def __init__(self, g):
        self.rows, self.n = g.rows, g.n
        self.width = math.factorial(g.n).bit_length()
        self.shift = max(g.n - 1, 1).bit_length()  # the bits of ``cur``
        self.memo, self.paths = {0: (1, 1)}, {}

    def covers(self, free):
        hit = self.memo.get(free)
        if hit is not None:
            return hit
        covers, path = self.covers, self._path
        low = free & -free
        avail = free ^ low
        x = self.rows[low.bit_length() - 1] & avail
        count = weight = 0
        while x:
            bit = x & -x
            x ^= bit
            c, w = covers(avail ^ bit)
            count += c
            weight += w
            if x:  # v's neighbours above u: the ends of u's cycles
                c, w = path(avail ^ bit, bit.bit_length() - 1, x)
                count += c
                weight += w << 1
        pair = (count << self.width, weight << self.width) if count else self._dead
        self.memo[free] = pair
        return pair

    def _path(self, left, cur, ends):
        """The sum of ``covers(rest)`` over every way to extend the open path
        from ``cur`` through ``left`` and close it at a vertex of ``ends``,
        ``rest`` being what the cycle leaves of ``left``; the caller shifts
        and doubles it for the cycle."""
        key = (left << self.n | ends) << self.shift | cur
        hit = self.paths.get(key)
        if hit is not None:
            return hit
        rows, covers, path = self.rows, self.covers, self._path
        count = weight = 0
        x = rows[cur] & left
        while x:
            bit = x & -x
            x ^= bit
            rest = left ^ bit
            if ends & bit:
                c, w = covers(rest)
                count += c
                weight += w
            more, u = ends & ~bit, bit.bit_length() - 1
            if more and rows[u] & rest:
                c, w = path(rest, u, more)
                count += c
                weight += w
        self.paths[key] = pair = (count, weight) if count else self._dead
        return pair

    def slots(self, packed, size):
        """The coefficients of x^0 .. x^size of a packed generating function."""
        slot = (1 << self.width) - 1
        return [packed >> s * self.width & slot for s in range(size + 1)]


def factor_histogram(g):
    """Count the 2-factors by component count s, plain and 2^c(F)-weighted,
    from the cover table's generating functions of the full vertex mask."""
    check_cap(g.n, ENUM_CAP, "factor_histogram")
    table = _CoverTable(g)
    count, weight = table.covers((1 << g.n) - 1)
    # a weight slot is zero exactly where its count slot is
    counts = {s: c for s, c in enumerate(table.slots(count, g.n)) if c}
    weighted_by_s = {s: w for s, w in enumerate(table.slots(weight, g.n)) if w}
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

    Paths are rooted at vertex 0 and built up to (n - 1) // 2 edges; one
    join multiplies the counts of the two halves of each cycle, split at
    the same vertex, and sums the products.  Each cycle is counted twice,
    once per direction, and 2h <= min((n-1)!, per(A)).  One pass gives 2h
    mod 2^64, its products wrapping exactly in int64; ``crt_lift`` adds a
    pass mod PRIMES[0], whose products of two residues stay below 2^62,
    unless (n-1)! or the Minc-Bregman bound on per(A) is below 2^64, and
    2^64 (2^31 - 1) > 23!.
    """
    n = g.n
    check_cap(n, HAMILTON_CAP, "hamilton_count_exact")
    if n < 3:
        return 0
    return crt_lift(_hamilton_dp(g), 1 << 64, math.factorial(n - 1), g.degrees,
                    lambda p: _hamilton_dp(g, p)) // 2


def _hamilton_dp(g, p=None):
    """2h(G) mod 2^64, or mod ``p``, by the Held-Karp DP over popcount
    layers of the subsets of 1..n-1, kept sparse and met in the middle: only
    the layers up to L = (n - 1) // 2 are stored, and one more step joins
    the two halves of every cycle.

    Bit u - 1 of a mask stands for vertex u; f(S, u), the value at (u, S),
    counts the paths that start at 0, visit exactly 0 and S, and end at u.
    A layer is the ascending array ``masks`` and the int64 table ``cnt``,
    with ``cnt[u - 1, pos]`` for ``masks[pos]`` and a zero last column.
    For each endpoint u, the counts of u's neighbors are summed over the
    masks without u, and the nonzero sums go to the masks with u added;
    those are stamped into ``live``, a flag per subset, and ``rank`` maps
    the next layer's masks to their positions.  An endpoint with fewer
    non-neighbors than neighbors takes the layer's column total, summed
    once per layer, less its non-neighbors' rows; its own row adds nothing,
    being zero at the masks without u.

    The join: split each directed cycle from 0 at the vertex u reached
    after L + 1 edges.  The rest of the cycle, reversed, is a path from 0
    to u through the complement, so with full = 2^(n-1) - 1,
    2h = sum over u and over masks M without u of layer L of
    f(M | bit(u), u) f(full ^ M, u).  The first factor is the sum that
    would go to layer L + 1, taken from layer L as in any other step.
    For odd n, full ^ M is in layer L and the second factor is read from
    its table; for even n it is in the unstored layer L + 1, and is read
    from the step's sums at the mask full ^ M ^ bit(u) of layer L.  Either
    lookup is one gather through ``rank``, which is -1, the zero column,
    at the masks of the layer's popcount that are not live.

    The DP only adds and the join multiplies, so cells, products and sums
    that wrap stay exact mod 2^64, and a zero residue can be dropped.  Mod
    p < 2^31, each sum of at most n - 1 residues is reduced while it is
    below 2^36, and each product of two residues while it is below 2^62.
    """
    n = g.n
    rows = g.rows
    size = 1 << (n - 1)
    full = size - 1
    live = np.zeros(size, dtype=bool)
    # a layer's table ends in a zero column, position -1, which the masks
    # of its popcount that are not live keep as their rank
    rank = np.full(size, -1, dtype=np.int32)
    # layer 1: the one-edge paths from 0, one per neighbor u, mask 1 << (u - 1)
    first = np.array([u - 1 for u in _bits(rows[0])], dtype=np.int32)
    masks = np.left_shift(1, first, dtype=np.int32)
    rank[masks] = np.arange(len(first), dtype=np.int32)
    cnt = np.zeros((n - 1, len(first) + 1), dtype=np.int64)
    cnt[first, np.arange(len(first))] = 1
    # rows of the DP that may precede u on a path: its neighbors other than
    # 0; and the rows of its non-neighbors, for the dense endpoints
    preds = [[v - 1 for v in _bits(rows[u] & ~1)] for u in range(n)]
    nonpreds = [[v - 1 for v in _bits((1 << n) - 2 & ~rows[u] & ~(1 << u))] for u in range(n)]
    dense = [0 < u and len(nonpreds[u]) < len(preds[u]) for u in range(n)]
    two_h = 0
    for layer in range(2, (n + 1) // 2 + 1):
        join = 2 * layer >= n
        steps = []
        total = cnt.sum(axis=0) if any(dense) else None
        for u in range(1, n):
            if not preds[u]:
                continue
            bit = 1 << (u - 1)
            src = ((masks & bit) == 0).nonzero()[0]
            if dense[u]:
                acc = total[src]
                for v in nonpreds[u]:
                    acc -= cnt[v][src]
            else:
                acc = cnt[preds[u][0]][src]
                for v in preds[u][1:]:
                    acc += cnt[v][src]
            if p:
                acc %= p
            if join:
                # acc[j] = f(masks[src[j]] | bit, u); its mate is the rest of
                # the cycle, full ^ masks[src[j]], reversed
                mate = full ^ masks[src]
                if n % 2:
                    other = cnt[u - 1]
                else:
                    other = np.zeros(len(masks) + 1, dtype=np.int64)
                    other[src] = acc
                    mate ^= bit
                prod = acc * other[rank[mate]]
                if p:
                    prod %= p
                two_h += int(prod.sum())
                continue
            keep = acc.nonzero()[0]
            to = masks[src[keep]] | bit
            live[to] = True
            steps.append((u - 1, to, acc[keep]))
        if join:
            break
        # drop the old table before the new one is allocated
        cnt = None
        masks = np.flatnonzero(live).astype(np.int32)
        live[masks] = False
        rank[masks] = np.arange(len(masks), dtype=np.int32)
        cnt = np.zeros((n - 1, len(masks) + 1), dtype=np.int64)
        for row, to, val in steps:
            cnt[row][rank[to]] = val
    return two_h % (p or 1 << 64)


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
        x = rows[v] & rest
        while x:
            low = x & -x
            x ^= low
            total += count(rest ^ low)
        memo[free] = total
        return total

    return count((1 << g.n) - 1)


# ---------------------------------------------------------------------------
# phi and near-Hamilton counts


def phi(g, k):
    """Maximum 2-factor count over all induced k-vertex subgraphs, each read
    from one shared cover table, n <= ENUM_CAP."""
    if not is_int(k) or not 2 <= k <= g.n:
        raise InvalidParameters("phi: integer k with 2 <= k <= n required")
    check_cap(g.n, ENUM_CAP, "phi")
    table = _CoverTable(g)
    return max(
        sum(table.slots(table.covers(sum(1 << v for v in subset))[0], k))
        for subset in combinations(range(g.n), k)
    )
