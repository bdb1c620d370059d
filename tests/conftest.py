import itertools
import math

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InconsistentTrace


def random_regular_corpus():
    """The 20 seeded random-regular graphs used across the suite."""
    # seeds chosen so the configuration model succeeds within its restart
    # cap (d=6 makes simple outcomes rare at small n)
    specs = (
        [(n, 3, s) for n in (8, 10, 12, 14) for s in (1, 2)]
        + [(n, 4, s) for n in (8, 10, 12) for s in (1, 2)]
        + [(10, 6, 9), (10, 6, 11)]
        + [(12, 6, s) for s in (0, 1, 2, 3)]
    )
    return [
        (f"rr(n={n},d={d},seed={s})", nh.random_regular(n, d, s)) for n, d, s in specs
    ]


def corpus():
    graphs = [(f"K{n}", nh.complete(n)) for n in range(3, 9)]
    graphs += [(f"C{n}", nh.cycle(n)) for n in range(4, 11)]
    graphs += [
        ("petersen", nh.petersen()),
        ("paley5", nh.paley(5)),
        ("paley13", nh.paley(13)),
    ]
    graphs += random_regular_corpus()
    return graphs


@pytest.fixture(scope="session", name="corpus")
def corpus_fixture():
    return corpus()


# ---------------------------------------------------------------------------
# independent brute-force oracles (kept deliberately naive)


def brute_permanent(matrix_rows):
    """Permutation-sum permanent; rows are bitsets."""
    n = len(matrix_rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix_rows[i] >> j & 1
            if not prod:
                break
        total += prod
    return total


def ryser_permanent(rows, n):
    """Ryser's inclusion-exclusion over column subsets, visited in Gray-code
    order so that each step updates the per-row sums by one column; rows
    are bitsets."""
    if n == 0:
        return 1
    cols = [[i for i in range(n) if rows[i] >> j & 1] for j in range(n)]
    sums = [0] * n
    total = 0
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        j = (gray ^ prev).bit_length() - 1
        if gray >> j & 1:
            for i in cols[j]:
                sums[i] += 1
        else:
            for i in cols[j]:
                sums[i] -= 1
        prev = gray
        prod = 1
        for s in sums:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            total += -prod if gray.bit_count() % 2 else prod
    # per(A) = (-1)^n * sum over nonempty column subsets
    return total if n % 2 == 0 else -total


def brute_hamilton_count(g):
    n = g.n
    if n < 3:
        return 0
    count = 0
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            count += 1
    return count // 2


def ie_hamilton_count(g):
    """h(G) by inclusion-exclusion over vertex sets (Karp 1982; Bax 1993):
    2h = sum over the sets T that contain 0 of (-1)^(n-|T|) times the number
    of closed walks of length n from 0 inside G[T].  Column t of ``walks``
    stands for the bitset T = 2t + 1; each step advances the walks of every
    T at once, one int64 row per end vertex.  No walk count exceeds d^n, so
    int64 is exact; the signed sum is taken in Python integers."""
    n = g.n
    if n < 3:
        return 0
    assert max(g.degrees) ** n < 2**63
    sets = np.arange(1 << (n - 1)) << 1 | 1
    inside = np.array([sets >> u & 1 for u in range(n)], dtype=bool)
    walks = np.zeros((n, len(sets)), dtype=np.int64)
    walks[0] = 1
    for _ in range(n):
        walks = np.array(
            [walks[set_bits(g.rows[u])].sum(axis=0) for u in range(n)]
        ) * inside
    signed = np.where((n - inside.sum(axis=0)) % 2, -walks[0], walks[0])
    total = int(signed.astype(object).sum())
    assert total % 2 == 0
    return total // 2


def brute_matching_count(g):
    edges = g.edges()

    def count(free):
        if not free:
            return 1
        v = min(free)
        total = 0
        for u, w in edges:
            if v in (u, w) and u in free and w in free:
                total += count(free - {u, w})
        return total

    return count(frozenset(range(g.n)))


def brute_two_factors(g):
    """Distinct 2-factors as frozensets of edges, via fixed-point-free
    permutation cycle covers."""
    n = g.n
    out = set()
    for perm in itertools.permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue
        if any(not g.has_edge(i, perm[i]) for i in range(n)):
            continue
        out.add(frozenset(tuple(sorted((i, perm[i]))) for i in range(n)))
    return out


def induced_phi(g, k):
    """(max f(G[S]), the first maximizing S) over the k-subsets S in
    ``combinations`` order, from a fresh histogram of each induced graph."""
    best, best_set = -1, None
    for subset in itertools.combinations(range(g.n), k):
        val = nh.factor_histogram(g.induced(subset)).total
        if val > best:
            best, best_set = val, subset
    return best, best_set


def set_bits(x):
    """Indices of the set bits of x, ascending."""
    return [i for i in range(x.bit_length()) if x >> i & 1]


def backtrack_two_factors(g):
    """Every 2-factor of g in canonical form, by plain backtracking: the
    lowest free vertex takes each edge to a higher free neighbour, then
    each cycle through it found by DFS over simple paths.  Nothing is
    memoized or pruned; the emission order is lexicographic by the
    canonical encoding."""
    rows = g.rows
    found = []
    comps = []

    def descend(free):
        if free == 0:
            found.append(nh.TwoFactor(tuple(comps)))
            return
        v = (free & -free).bit_length() - 1
        avail = free ^ (1 << v)
        for u in set_bits(rows[v] & avail):
            comps.append((v, u))
            descend(avail ^ (1 << u))
            comps.pop()
        path = [v]

        def extend(cur, used):
            for w in set_bits(rows[cur] & avail & ~used):
                path.append(w)
                if len(path) >= 3 and rows[w] >> v & 1 and path[1] < path[-1]:
                    comps.append(tuple(path))
                    descend(free & ~(used | (1 << w) | (1 << v)))
                    comps.pop()
                extend(w, used | (1 << w))
                path.pop()

        extend(v, 1 << v)

    descend((1 << g.n) - 1)
    return found


def canonical_component(comp):
    """Canonical rotation of one component: smallest vertex first; cycles
    additionally take the orientation whose second vertex is the smaller
    neighbor of the start."""
    comp = list(comp)
    if len(comp) == 2:
        return tuple(sorted(comp))
    k = comp.index(min(comp))
    rot = comp[k:] + comp[:k]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[1:][::-1]
    return tuple(rot)


def two_factor_from_components(components):
    """The TwoFactor with these components, each in canonical form, in
    sorted order."""
    return nh.TwoFactor(tuple(sorted(canonical_component(c) for c in components)))


def set_replay(g, f, trace):
    """The trace audit on a set of (u, v) edge tuples that
    ``hamiltonize.replay`` replaced with bitset rows: the same checks in the
    same order, with the same messages, and the same final edge set."""
    nh.factors.validate_two_factor(g, f)
    edges = set(f.edges())
    for op, u, v in trace.trace:
        key = (u, v) if u < v else (v, u)
        if key[0] < 0 or key[1] >= g.n:
            raise InconsistentTrace(f"{op} names a vertex outside 0..{g.n - 1}: {key}")
        if op == "insert":
            if not g.has_edge(u, v):
                raise InconsistentTrace(f"inserted non-edge {key}")
            if key in edges:
                raise InconsistentTrace(f"inserted already-present edge {key}")
            edges.add(key)
        elif op == "delete":
            if key not in edges:
                raise InconsistentTrace(f"deleted absent edge {key}")
            edges.remove(key)
        else:
            raise InconsistentTrace(f"unknown op {op!r}")
    if trace.success:
        cyc = trace.hamilton_cycle
        if not nh.factors.is_hamilton_cycle(g, list(cyc)):
            raise InconsistentTrace("recorded cycle is not a Hamilton cycle")
        want = {tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))}
        if edges != want:
            raise InconsistentTrace("replayed edge set differs from recorded cycle")
    return edges


def jacobi_eigenvalues(a, tol=1e-12, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted
    descending; raises if the off-diagonal Frobenius norm is still >= tol
    after max_sweeps sweeps."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("jacobi_eigenvalues: symmetric square matrix required")
    sweeps = 0
    # summed directly: total minus diagonal squares cancels to ~1e-7 noise
    while (off := np.linalg.norm(a - np.diag(np.diag(a)))) >= tol:
        if sweeps == max_sweeps:
            raise RuntimeError(
                f"jacobi_eigenvalues: off-diagonal norm {off:.3g} after {sweeps} sweeps"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                # classical 2x2 symmetric Schur rotation
                tau = float(a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
    return np.sort(np.diag(a))[::-1]
