"""Simple undirected graphs with bitset adjacency rows, generators and I/O.

Vertices are the integers 0..n-1.  Each adjacency row is a Python int used
as an n-bit set, which keeps the exponential counters downstream fast at
desk scale.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import GenerationTimeout, InvalidParameters, ParseError, check_seed, is_int

RESTART_CAP = 10_000  # configuration-model full restarts before giving up


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``rows[i]`` is the neighbor bitset of vertex ``i``.
    """

    n: int
    rows: tuple

    def __post_init__(self):
        if type(self.n) is not int or not all(type(r) is int for r in self.rows):
            raise InvalidParameters("a graph's size and adjacency rows must be ints")
        if self.n < 0 or len(self.rows) != self.n:
            raise InvalidParameters("adjacency must have one row per vertex")
        # rows within n bits unpack whole (n^2 bytes); any fault is then on the matrix
        if not self.rows or (min(self.rows) >= 0 and not max(self.rows) >> self.n):
            a = _unpack(self.rows, self.n)
            if not a.diagonal().any() and (a == a.T).all():
                return
        raise InvalidParameters(_first_fault(self.rows))

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
        return _unpack(self.rows, self.n).astype(np.float64)


def _unpack(rows, n):
    """The n x n uint8 0/1 matrix whose row i holds the bits of the n-bit
    int rows[i], bit j in column j."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def _first_fault(rows):
    """The message of the first fault of the bitset rows, by vertex: a bit
    at or above n, a self-loop, or an edge missing from the other end."""
    mask = (1 << len(rows)) - 1
    for i, row in enumerate(rows):
        if row & ~mask:
            return f"row {i} references vertices >= n"
        if row >> i & 1:
            return f"self-loop at vertex {i}"
        for j in _bits(row):
            if not rows[j] >> i & 1:
                return f"adjacency not symmetric at ({i},{j})"


def _bits(x):
    """Indices of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _vertex(v, n):
    """``v`` as a vertex of a graph on n vertices, the one rule for every
    vertex a caller names: an integer other than a bool, in 0..n-1, a numpy
    integer taken as its int.  Anything else raises InvalidParameters.  An
    int skips the ABC check of ``is_int``, which costs about 0.5 us."""
    if type(v) is not int and is_int(v):
        v = int(v)
    if type(v) is not int or not 0 <= v < n:
        raise InvalidParameters(f"vertex {v!r} is not an integer in 0..{n - 1}")
    return v


def from_edges(n, edges):
    """The graph on n vertices, an integer, with the edges (u, v)."""
    if not is_int(n):
        raise InvalidParameters(f"from_edges: n must be an integer, got {n!r}")
    n = int(n)
    try:
        pairs = [(u, v) for u, v in edges]
    except (TypeError, ValueError):  # no iterable, or an edge that is no pair
        raise InvalidParameters("from_edges: edges must be (u, v) pairs") from None
    rows = [0] * n
    for u, v in pairs:
        try:
            u, v = _vertex(u, n), _vertex(v, n)
        except InvalidParameters:
            raise InvalidParameters(f"edge ({u},{v}) out of range for n={n}") from None
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
    if not is_int(n) or n < 1:
        raise InvalidParameters("complete: integer n >= 1 required")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle(n):
    if not is_int(n) or n < 3:
        raise InvalidParameters("cycle: integer n >= 3 required")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def paley(q):
    """Paley graph on a prime q = 1 (mod 4): i ~ j iff i-j is a nonzero square."""
    if not is_int(q) or not is_prime(q) or q % 4 != 1:
        raise InvalidParameters("paley: q must be an integer prime congruent to 1 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    return from_edges(
        q, [(i, j) for i in range(q) for j in range(i + 1, q) if (i - j) % q in residues]
    )


def circulant(n, connection_set):
    if not is_int(n) or n < 3:
        raise InvalidParameters("circulant: integer n >= 3 required")
    s = set(connection_set)
    if not s or not all(is_int(k) and 1 <= k <= n // 2 for k in s):
        raise InvalidParameters("circulant: connection set must be integers within 1..n//2")
    edges = {tuple(sorted(((i, (i + k) % n)))) for i in range(n) for k in s}
    return from_edges(n, sorted(edges))


def random_regular(n, d, seed):
    """Random d-regular simple graph via the configuration model.

    Any loop or parallel edge triggers a full restart; generation is
    deterministic given (n, d, seed), and ``seed`` is a non-negative int.
    """
    check_seed(seed, "random-regular: seed")
    if not is_int(n) or not is_int(d) or not 2 <= d < n:
        raise InvalidParameters("random-regular: integers 2 <= d < n required")
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
    """Parse the format above, setting the row bits as each edge line is
    read; the first faulty line raises ParseError naming it."""
    lines = [(ln, parts) for ln in text.splitlines()
             if (parts := ln.split()) and not parts[0].startswith("#")]
    if not lines:
        raise ParseError("empty edge list")
    head, parts = lines[0]
    if len(parts) != 2:
        raise ParseError(f"bad header line: {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad header line: {head!r}") from None
    if len(lines) - 1 != m:
        raise ParseError(f"header declares {m} edges, found {len(lines) - 1}")
    rows = [0] * n
    for ln, parts in lines[1:]:
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
        if rows[u] >> v & 1:
            raise ParseError(f"duplicate edge in line {ln!r}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))
