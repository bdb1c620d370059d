"""Edge-distribution checks: the expander mixing inequality and the two
derived facts (small-set vertex expansion, guaranteed edge between large
disjoint sets)."""

import math
import random
from dataclasses import dataclass

from .errors import InvalidParameters
from .graph import _mask

DEFECT_TOL = 1e-9


def edge_count(g, s, t):
    """Number of edges with one endpoint in s and the other in t.

    For overlapping sets this follows the convention e(U,U) = 2*e(U):
    an edge inside the overlap is counted once per orientation.
    """
    _mask(s, g.n)  # range validation
    return _cross_edges(g, set(s), _mask(t, g.n))


def _cross_edges(g, s_set, t_mask):
    # sum over v in S of |N(v) ∩ T|: each cross edge once, each edge with
    # both endpoints in the overlap twice, matching e(U,U) = 2 e(U)
    return sum((g.rows[v] & t_mask).bit_count() for v in s_set)


def mixing_defect(g, cert, s, t):
    """(e(S,T), |e - (d/n)|S||T||, lambda*sqrt(|S||T|)) for one pair."""
    if not s or not t:
        raise InvalidParameters("mixing_defect: sets must be nonempty")
    _mask(s, g.n)  # range validation
    s_set, t_mask = set(s), _mask(t, g.n)
    e = _cross_edges(g, s_set, t_mask)
    size_s, size_t = len(s_set), t_mask.bit_count()
    expected = cert.d / cert.n * size_s * size_t
    defect = abs(e - expected)
    bound = cert.lam * math.sqrt(size_s * size_t)
    return e, defect, bound


@dataclass(frozen=True)
class MixingReport:
    pairs_checked: int
    max_normalized_defect: float
    worst_pair: tuple
    violations: int

    def to_json_dict(self):
        return {
            "pairs_checked": self.pairs_checked,
            "max_normalized_defect": self.max_normalized_defect,
            "worst_pair": [sorted(self.worst_pair[0]), sorted(self.worst_pair[1])],
            "violations": self.violations,
        }


def verify_mixing(g, cert, sample_count=1000, seed=0):
    """Check the mixing inequality on all singleton pairs, the full-set
    pair, every (S,S) with |S| small, and ``sample_count`` random (S,T)
    pairs.

    Zero violations is a theorem for a correct certificate; a positive
    count refutes the supplied lambda.  The deterministic small-set
    battery matters for refutation: an understated lambda shows up first
    on sparse or dense small sets that uniform sampling almost never hits.
    """
    from itertools import combinations

    if sample_count < 1:
        raise InvalidParameters("verify_mixing: sample_count >= 1 required")
    n = g.n
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        for j in range(n):
            pairs.append(([i], [j]))
    full = list(range(n))
    pairs.append((full, full))
    small = 4 if n <= 16 else 2
    for size in range(2, small + 1):
        for s in combinations(full, size):
            pairs.append((list(s), list(s)))
    for _ in range(sample_count):
        ks = rng.randint(1, n)
        kt = rng.randint(1, n)
        pairs.append((rng.sample(full, ks), rng.sample(full, kt)))

    worst = (0.0, ([], []))
    violations = 0
    for s, t in pairs:
        _, defect, bound = mixing_defect(g, cert, s, t)
        norm = defect / bound if bound > 0 else (0.0 if defect <= DEFECT_TOL else math.inf)
        if norm > worst[0]:
            worst = (norm, (s, t))
        if defect > bound + DEFECT_TOL:
            violations += 1
    return MixingReport(
        pairs_checked=len(pairs),
        max_normalized_defect=worst[0],
        worst_pair=worst[1],
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
