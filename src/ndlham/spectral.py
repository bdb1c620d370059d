"""Adjacency spectra and (n,d,lambda) certification.

Eigenvalues come from LAPACK's symmetric solver (``numpy.linalg.eigvalsh``)
on the dense adjacency matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NotRegular, is_real
from .graph import _bits


def _connected_bipartite(g):
    """(connected, bipartite) for g, by one breadth-first search over its
    adjacency bitsets from vertex 0; the component of 0 is bipartite
    exactly when no edge joins two vertices of one BFS layer."""
    seen, frontier, odd = 1, 1, 0
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= g.rows[v]
        odd |= reach & frontier
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1, not odd


def spectrum(g):
    """All adjacency eigenvalues of g, sorted descending."""
    vals = np.linalg.eigvalsh(g.adjacency_matrix())
    return vals[::-1].tolist()


@dataclass(frozen=True)
class NdlCertificate:
    """Spectral certificate of the (n,d,lambda) property with the finite-n
    diagnostics of the two asymptotic side conditions (reported as margins,
    never as pass/fail)."""

    n: int
    d: int
    eigenvalues: tuple
    lam: float
    eigenvalue_ratio: float
    cond1_margin: float
    cond2_ratio: float
    connected: bool
    epsilon: float

    def to_json_dict(self):
        return {
            "n": self.n,
            "d": self.d,
            "lambda": self.lam,
            "eigenvalues": list(self.eigenvalues),
            "eigenvalue_ratio": self.eigenvalue_ratio,
            "cond1_margin": self.cond1_margin,
            "cond2_ratio": self.cond2_ratio,
            "connected": self.connected,
            "epsilon": self.epsilon,
        }


def certify(g, epsilon=0.1):
    """Certify g as an (n,d,lambda)-graph.

    lambda is the largest absolute value among the nontrivial eigenvalues,
    i.e. max(|eig_2|, |eig_n|) for the descending-sorted spectrum; it is set
    to d, exactly, when g is disconnected or bipartite, and is below d else.  All
    logarithms are natural.  epsilon, the constant of condition 1
    d/lambda >= (log n)^(1+epsilon), must be a number (not a bool), finite
    and positive.
    """
    if not is_real(epsilon) or not 0 < epsilon < math.inf:
        raise InvalidParameters(f"certify: epsilon must be a number, finite and > 0, got {epsilon!r}")
    if not g.is_regular():
        raise NotRegular("certify: graph is not regular")
    if g.n < 3:
        raise InvalidParameters("certify: n >= 3 required")
    eigs = spectrum(g)
    n = g.n
    d = g.degree(0)
    connected, bipartite = _connected_bipartite(g)
    lam = float(d) if bipartite or not connected else max(abs(eigs[1]), abs(eigs[-1]))
    ratio = d / lam if lam > 0 else math.inf
    logn = math.log(n)
    cond1 = ratio / logn ** (1.0 + epsilon)
    # lam = 0 only when d = 0, so d > lam implies lam > 0
    cond2 = math.log(d) * math.log(d / lam) / logn if d > lam else 0.0
    return NdlCertificate(
        n=n,
        d=d,
        eigenvalues=tuple(eigs),
        lam=lam,
        eigenvalue_ratio=ratio,
        cond1_margin=cond1,
        cond2_ratio=cond2,
        connected=connected,
        epsilon=epsilon,
    )
