"""Simple undirected graphs with bitset adjacency rows, generators and I/O.

Vertices are the integers 0..n-1.  Each adjacency row is a Python int used
as an n-bit set, which keeps the exponential counters downstream fast at
desk scale.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import GenerationTimeout, InvalidParameters, ParseError, check_seed

RESTART_CAP = 10_000  # configuration-model full restarts before giving up


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``rows[i]`` is the neighbor bitset of vertex ``i``.
    """

    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise InvalidParameters("adjacency must have one row per vertex")
        mask = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~mask:
                raise InvalidParameters(f"row {i} references vertices >= n")
            if row >> i & 1:
                raise InvalidParameters(f"self-loop at vertex {i}")
            for j in _bits(row):
                if not self.rows[j] >> i & 1:
                    raise InvalidParameters(f"adjacency not symmetric at ({i},{j})")

    @property
    def degrees(self):
        return [row.bit_count() for row in self.rows]

    def degree(self, v):
        return self.rows[v].bit_count()

    def is_regular(self):
        degs = self.degrees
        return self.n == 0 or all(d == degs[0] for d in degs)

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def edges(self):
        """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
        out = []
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    @property
    def edge_count(self):
        return sum(self.degrees) // 2

    def adjacency_matrix(self):
        a = np.zeros((self.n, self.n))
        for u, v in self.edges():
            a[u, v] = a[v, u] = 1.0
        return a

    def induced(self, vertices):
        """Induced subgraph on ``vertices``, relabeled 0..k-1 in sorted order."""
        verts = sorted(vertices)
        index = {v: i for i, v in enumerate(verts)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return from_edges(len(verts), edges)

    def relabeled(self, perm):
        """Image under the vertex relabeling i -> perm[i]."""
        return from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


def _bits(x):
    """Indices of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _mask(vertices, n):
    """Bitset of ``vertices``, each checked to lie in 0..n-1."""
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise InvalidParameters(f"vertex {v} out of range")
        m |= 1 << v
    return m


def from_edges(n, edges):
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameters(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InvalidParameters(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# generators


def is_prime(q):
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def complete(n):
    if n < 1:
        raise InvalidParameters("complete: n >= 1 required")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle(n):
    if n < 3:
        raise InvalidParameters("cycle: n >= 3 required")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def paley(q):
    """Paley graph on a prime q = 1 (mod 4): i ~ j iff i-j is a nonzero square."""
    if not is_prime(q) or q % 4 != 1:
        raise InvalidParameters("paley: q must be a prime congruent to 1 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    return from_edges(
        q, [(i, j) for i in range(q) for j in range(i + 1, q) if (i - j) % q in residues]
    )


def circulant(n, connection_set):
    if n < 3:
        raise InvalidParameters("circulant: n >= 3 required")
    s = set(connection_set)
    if not s or not all(1 <= k <= n // 2 for k in s):
        raise InvalidParameters("circulant: connection set must be within 1..n//2")
    edges = {tuple(sorted(((i, (i + k) % n)))) for i in range(n) for k in s}
    return from_edges(n, sorted(edges))


def random_regular(n, d, seed):
    """Random d-regular simple graph via the configuration model.

    Any loop or parallel edge triggers a full restart; generation is
    deterministic given (n, d, seed), and ``seed`` is a non-negative int.
    """
    check_seed(seed, "random-regular: seed")
    if not (2 <= d < n):
        raise InvalidParameters("random-regular: 2 <= d < n required")
    if (n * d) % 2 != 0:
        raise InvalidParameters("random-regular: n*d must be even")
    rng = random.Random(seed)
    for _ in range(RESTART_CAP):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if ok:
            return from_edges(n, sorted(seen))
    raise GenerationTimeout(f"random-regular(n={n}, d={d}) failed after {RESTART_CAP} restarts")


# ---------------------------------------------------------------------------
# edge-list I/O
#
# Format: header "n m", then m lines "u v" (u < v, sorted lexicographically
# on output); '#' lines are comments.


def write_edge_list(g):
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header line: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ParseError(f"header declares {m} edges, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge line: {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in line {ln!r}")
        if u == v:
            raise ParseError(f"self-loop in line {ln!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge in line {ln!r}")
        seen.add(key)
        edges.append(key)
    return from_edges(n, edges)
