import math
import random

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters, NotRegular
from ndlham.hamiltonize import merge_budget
from conftest import jacobi_eigenvalues, relabeled


def test_k4_spectrum():
    eigs = nh.spectrum(nh.complete(4))
    assert eigs == pytest.approx([3, -1, -1, -1], abs=1e-9)


def test_petersen_spectrum_char_poly():
    eigs = nh.spectrum(nh.petersen())
    expected = [3] + [1] * 5 + [-2] * 4
    assert eigs == pytest.approx(expected, abs=1e-9)
    # cross-check against the characteristic polynomial (x-3)(x-1)^5(x+2)^4
    for x in eigs:
        assert abs((x - 3) * (x - 1) ** 5 * (x + 2) ** 4) < 1e-6


def test_c5_circulant_formula():
    eigs = nh.spectrum(nh.cycle(5))
    expected = sorted(
        (2 * math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True
    )
    assert eigs == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_paley_closed_form(q):
    eigs = nh.spectrum(nh.paley(q))
    d = (q - 1) // 2
    pos = (-1 + math.sqrt(q)) / 2
    neg = (-1 - math.sqrt(q)) / 2
    assert eigs[0] == pytest.approx(d, abs=1e-9)
    for x in eigs[1:]:
        assert min(abs(x - pos), abs(x - neg)) < 1e-9


def test_jacobi_matches_lapack(corpus):
    for name, g in corpus:
        ref = jacobi_eigenvalues(g.adjacency_matrix())
        assert np.allclose(nh.spectrum(g), ref, atol=1e-9), name


def test_jacobi_oracle_raises_without_convergence():
    with pytest.raises(RuntimeError, match="after 1 sweeps"):
        jacobi_eigenvalues(nh.petersen().adjacency_matrix(), max_sweeps=1)


def test_trace_invariants(corpus):
    for name, g in corpus:
        eigs = nh.spectrum(g)
        n, d = g.n, g.degree(0)
        assert abs(sum(eigs)) < n * 1e-9, name
        assert abs(sum(x * x for x in eigs) - n * d) < n * 1e-8, name
        assert abs(eigs[0] - d) < 1e-9, name


def test_certify_examples():
    cert = nh.certify(nh.complete(4), 0.1)
    assert cert.d == 3
    assert cert.lam == pytest.approx(1.0, abs=1e-9)
    assert cert.eigenvalue_ratio == pytest.approx(3.0, abs=1e-8)

    cert = nh.certify(nh.petersen(), 0.1)
    assert cert.lam == pytest.approx(2.0, abs=1e-9)
    assert cert.eigenvalue_ratio == pytest.approx(1.5, abs=1e-8)

    cert = nh.certify(nh.paley(13), 0.1)
    assert cert.lam == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-9)
    assert cert.eigenvalue_ratio == pytest.approx(6 / 2.302776, rel=1e-5)


def test_certify_diagnostics_natural_logs():
    cert = nh.certify(nh.paley(13), 0.1)
    lam = cert.lam
    assert cert.cond1_margin == pytest.approx(
        (6 / lam) / math.log(13) ** 1.1, rel=1e-12
    )
    assert cert.cond2_ratio == pytest.approx(
        math.log(6) * math.log(6 / lam) / math.log(13), rel=1e-12
    )


def components_from_edges(g):
    """Number of connected components, by union-find over ``g.edges()``."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        parent[root(u)] = root(v)
    return len({root(v) for v in range(g.n)})


def test_certify_connectivity(corpus):
    assert nh.certify(nh.petersen()).connected
    two_triangles = nh.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not nh.certify(two_triangles).connected
    # vertices 0 and 1 in different triangles
    interleaved = nh.from_edges(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    assert not nh.certify(interleaved).connected
    k4 = nh.complete(4).edges()
    two_k4 = nh.from_edges(8, list(k4) + [(u + 4, v + 4) for u, v in k4])
    assert not nh.certify(two_k4).connected
    extra = [("two triangles", two_triangles), ("interleaved", interleaved), ("2K4", two_k4)]
    for name, g in corpus + extra:
        assert nh.certify(g).connected == (components_from_edges(g) == 1), name


def test_lambda_is_d_when_bipartite_or_disconnected(corpus):
    # the float spectrum puts C6's eigenvalue -2 at -1.9999999999999996
    for n in (6, 14, 16):
        cert = nh.certify(nh.cycle(n))
        assert cert.lam == 2.0
        assert merge_budget(n, cert.d, cert.lam, 10.0) == n
    k33 = nh.certify(nh.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]))
    assert (k33.lam, k33.eigenvalue_ratio, k33.cond2_ratio) == (3.0, 1.0, 0.0)
    two_k4 = nh.from_edges(8, [(u + s, v + s) for s in (0, 4) for u, v in nh.complete(4).edges()])
    assert nh.certify(two_k4).lam == 3.0
    # against the spectrum: a second eigenvalue d, or the eigenvalue -d
    for name, g in corpus + [("2K4", two_k4)]:
        eigs, d = nh.spectrum(g), g.degree(0)
        exact = abs(eigs[1] - d) < 1e-9 or abs(eigs[-1] + d) < 1e-9
        assert (nh.certify(g).lam == d) == exact, name


def test_certify_rejects_irregular():
    path = nh.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegular):
        nh.certify(path)


def test_relabel_invariance():
    rng = random.Random(7)
    g = nh.paley(13)
    base = nh.spectrum(g)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert nh.spectrum(relabeled(g, perm)) == pytest.approx(base, abs=1e-8)


def test_certificate_json_keys():
    d = nh.certify(nh.complete(4)).to_json_dict()
    assert set(d) == {
        "n", "d", "lambda", "eigenvalues", "eigenvalue_ratio",
        "cond1_margin", "cond2_ratio", "connected", "epsilon",
    }


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
def test_certify_rejects_malformed_epsilon(epsilon):
    with pytest.raises(InvalidParameters, match="finite and > 0"):
        nh.certify(nh.paley(13), epsilon)
