"""Adjacency spectra and (n,d,lambda) certification.

Eigenvalues come from LAPACK's symmetric solver (``numpy.linalg.eigvalsh``)
on the dense adjacency matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NotRegular
from .graph import _bits


def _connected(g):
    """Whether g is connected, by a breadth-first search over its adjacency
    bitsets from vertex 0."""
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= g.rows[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


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
    i.e. max(|eig_2|, |eig_n|) for the descending-sorted spectrum.  All
    logarithms are natural.  epsilon, the constant of condition 1
    d/lambda >= (log n)^(1+epsilon), must be finite and positive.
    """
    if not 0 < epsilon < math.inf:
        raise InvalidParameters(f"certify: epsilon must be finite and > 0, got {epsilon}")
    if not g.is_regular():
        raise NotRegular("certify: graph is not regular")
    if g.n < 3:
        raise InvalidParameters("certify: n >= 3 required")
    eigs = spectrum(g)
    n = g.n
    d = g.degree(0)
    lam = max(abs(eigs[1]), abs(eigs[-1]))
    ratio = d / lam if lam > 0 else math.inf
    logn = math.log(n)
    cond1 = ratio / logn ** (1.0 + epsilon)
    if lam > 0 and d > lam:
        cond2 = (math.log(d) * math.log(d / lam)) / logn
    else:
        cond2 = 0.0 if lam >= d else math.inf
    return NdlCertificate(
        n=n,
        d=d,
        eigenvalues=tuple(eigs),
        lam=lam,
        eigenvalue_ratio=ratio,
        cond1_margin=cond1,
        cond2_ratio=cond2,
        connected=_connected(g),
        epsilon=epsilon,
    )
